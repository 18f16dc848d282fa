//! Entity-name normalisation.
//!
//! Cross-lingual entity labels differ in case, diacritics and punctuation
//! ("São Paulo" vs "Sao Paulo", "T-Minus_(producer)" vs "T-Minus"). The
//! name channel normalises before any comparison, folding exactly the
//! variation that carries no alignment signal.

/// Folds one Latin-range accented character to its base letter.
///
/// Covers the Latin-1 Supplement and Latin Extended-A ranges that dominate
/// the EN/FR/DE benchmarks; characters outside the table pass through.
fn fold_diacritic(c: char) -> char {
    match c {
        'à'..='å' | 'ā' | 'ă' | 'ą' => 'a',
        'ç' | 'ć' | 'ĉ' | 'ċ' | 'č' => 'c',
        'è'..='ë' | 'ē' | 'ĕ' | 'ė' | 'ę' | 'ě' => 'e',
        'ì'..='ï' | 'ĩ' | 'ī' | 'ĭ' | 'į' | 'ı' => 'i',
        'ñ' | 'ń' | 'ņ' | 'ň' => 'n',
        'ò'..='ö' | 'ø' | 'ō' | 'ŏ' | 'ő' => 'o',
        'ù'..='ü' | 'ũ' | 'ū' | 'ŭ' | 'ů' | 'ű' | 'ų' => 'u',
        'ý' | 'ÿ' => 'y',
        'ß' => 's', // "ß" → "ss" handled by caller duplication? keep single 's' for stability
        'ś' | 'ŝ' | 'ş' | 'š' => 's',
        'ź' | 'ż' | 'ž' => 'z',
        'ð' | 'ď' | 'đ' => 'd',
        'ĝ' | 'ğ' | 'ġ' | 'ģ' => 'g',
        'ĺ' | 'ļ' | 'ľ' | 'ł' => 'l',
        'ŕ' | 'ŗ' | 'ř' => 'r',
        'ţ' | 'ť' | 'ŧ' => 't',
        'ŵ' => 'w',
        other => other,
    }
}

/// Normalises an entity label for comparison: lowercase, diacritics folded,
/// separators (`_`, `-`, punctuation) collapsed to single spaces, outer
/// whitespace trimmed, and a trailing parenthetical qualifier — DBpedia's
/// disambiguation suffix, e.g. `"T-Minus (producer)"` — removed.
pub fn normalize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    normalize_into(raw, &mut out);
    out
}

/// [`normalize_name`] into `out`, which is cleared first — so one buffer
/// serves a whole batch of names.
pub fn normalize_into(raw: &str, out: &mut String) {
    out.clear();
    // Strip a final "(...)" qualifier if present.
    let stripped = match (raw.rfind('('), raw.ends_with(')')) {
        (Some(open), true) if open > 0 => &raw[..open],
        _ => raw,
    };
    let mut pending_space = false;
    for c in stripped.chars() {
        let c = fold_diacritic(
            c.to_lowercase()
                .next()
                .expect("to_lowercase yields at least one char"),
        );
        if c.is_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(c);
        } else {
            pending_space = true;
        }
    }
}

/// Extracts a human-readable label from a URI-like entity key: the last
/// path segment with `_` as spaces (`http://db.org/resource/New_York` →
/// `New York`). Non-URI keys pass through unchanged.
pub fn label_from_key(key: &str) -> String {
    let tail = key.rsplit('/').next().unwrap_or(key);
    tail.replace('_', " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_folds() {
        assert_eq!(normalize_name("São Paulo"), "sao paulo");
        assert_eq!(normalize_name("Müller"), "muller");
        assert_eq!(normalize_name("Besançon"), "besancon");
    }

    #[test]
    fn strips_parenthetical_qualifier() {
        assert_eq!(normalize_name("T-Minus (producer)"), "t minus");
        assert_eq!(normalize_name("Mercury (planet)"), "mercury");
        // leading paren is not a qualifier
        assert_eq!(normalize_name("(What) A Name"), "what a name");
    }

    #[test]
    fn collapses_separators() {
        assert_eq!(normalize_name("New_York--City"), "new york city");
        assert_eq!(normalize_name("  spaced   out  "), "spaced out");
    }

    #[test]
    fn empty_and_symbol_only() {
        assert_eq!(normalize_name(""), "");
        assert_eq!(normalize_name("!!!"), "");
    }

    #[test]
    fn label_from_uri() {
        assert_eq!(
            label_from_key("http://dbpedia.org/resource/New_York"),
            "New York"
        );
        assert_eq!(label_from_key("plain name"), "plain name");
    }

    #[test]
    fn normalize_into_reuses_its_buffer() {
        let mut out = String::from("stale contents");
        for s in [
            "São Paulo",
            "",
            "T-Minus (producer)",
            "!!!",
            "New_York--City",
        ] {
            normalize_into(s, &mut out);
            assert_eq!(out, normalize_name(s), "{s:?}");
        }
    }

    #[test]
    fn normalization_is_idempotent() {
        for s in ["São Paulo", "T-Minus (producer)", "a_b-c"] {
            let once = normalize_name(s);
            assert_eq!(normalize_name(&once), once);
        }
    }
}
