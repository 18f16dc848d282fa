//! Parsers for what the harness reads back: the `largeea` CLI's stdout
//! lines and the `/proc` files that carry a child's CPU time and peak RSS.
//! Every parser returns a typed error on malformed input; none panics.

use std::fmt;

/// Why a line or file could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was being parsed (`"H@1 line"`, `"/proc stat"`, …).
    pub what: &'static str,
    /// The offending detail.
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse {}: {}", self.what, self.detail)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(what: &'static str, detail: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        what,
        detail: detail.into(),
    })
}

/// The number that follows `label` in `line`, ending at `suffix`.
fn number_after(
    what: &'static str,
    line: &str,
    label: &str,
    suffix: &str,
) -> Result<f64, ParseError> {
    let Some(at) = line.find(label) else {
        return err(what, format!("no {label:?} in {line:?}"));
    };
    let rest = line[at + label.len()..].trim_start();
    let end = if suffix.is_empty() {
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len())
    } else {
        match rest.find(suffix) {
            Some(e) => e,
            None => return err(what, format!("no {suffix:?} after {label:?} in {line:?}")),
        }
    };
    match rest[..end].trim().parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => err(
            what,
            format!("{:?} after {label:?} is not a number", &rest[..end]),
        ),
    }
}

/// `align`'s result line:
/// `H@1 87.5%  H@5 90.6%  MRR 0.89  (15000 test pairs, 19.8s, pseudo seeds 11738 @ 98.0%)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignLine {
    pub hits1_pct: f64,
    /// The pipeline seconds the program itself reports.
    pub pipeline_s: f64,
}

/// Finds and parses the `H@1 …` line of `align`'s stdout.
pub fn align_line(stdout: &str) -> Result<AlignLine, ParseError> {
    const WHAT: &str = "H@1 line";
    let Some(line) = stdout.lines().find(|l| l.starts_with("H@1 ")) else {
        return err(WHAT, "no line starts with \"H@1 \"");
    };
    let hits1_pct = number_after(WHAT, line, "H@1 ", "%")?;
    let pipeline_s = number_after(WHAT, line, "test pairs, ", "s,")?;
    if !(0.0..=100.0).contains(&hits1_pct) || pipeline_s < 0.0 {
        return err(WHAT, format!("values out of range in {line:?}"));
    }
    Ok(AlignLine {
        hits1_pct,
        pipeline_s,
    })
}

/// `partition`'s result line:
/// `K=20 MetisCps: retention total 40.8% / train 51.6% / test 38.2%, edge-cut rate 0.310`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionLine {
    pub retention_total_pct: f64,
    pub edge_cut_rate: f64,
}

/// Finds and parses the `retention …` line of `partition`'s stdout.
pub fn partition_line(stdout: &str) -> Result<PartitionLine, ParseError> {
    const WHAT: &str = "retention line";
    let Some(line) = stdout.lines().find(|l| l.contains("retention total ")) else {
        return err(WHAT, "no line contains \"retention total \"");
    };
    let retention_total_pct = number_after(WHAT, line, "retention total ", "%")?;
    let edge_cut_rate = number_after(WHAT, line, "edge-cut rate ", "")?;
    if !(0.0..=100.0).contains(&retention_total_pct) || !(0.0..=1.0).contains(&edge_cut_rate) {
        return err(WHAT, format!("values out of range in {line:?}"));
    }
    Ok(PartitionLine {
        retention_total_pct,
        edge_cut_rate,
    })
}

/// A size as `fmt_bytes` prints it (`812B`, `16.0K`, `45.6M`, `0.04G`), in
/// bytes.
fn printed_bytes(what: &'static str, text: &str) -> Result<f64, ParseError> {
    let (digits, mult) = match text.chars().last() {
        Some('B') => (&text[..text.len() - 1], 1.0),
        Some('K') => (&text[..text.len() - 1], 1024.0),
        Some('M') => (&text[..text.len() - 1], 1024.0 * 1024.0),
        Some('G') => (&text[..text.len() - 1], 1024.0 * 1024.0 * 1024.0),
        _ => return err(what, format!("{text:?} has no B/K/M/G suffix")),
    };
    match digits.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v * mult),
        _ => err(what, format!("{digits:?} is not a size")),
    }
}

/// Parses `tracked peak 0.04G (budget 0.05G)` into `(peak, budget)` bytes,
/// at the precision the program prints them.
pub fn tracked_peak_line(stdout: &str) -> Result<(f64, f64), ParseError> {
    const WHAT: &str = "tracked peak line";
    let Some(line) = stdout.lines().find(|l| l.starts_with("tracked peak ")) else {
        return err(WHAT, "no line starts with \"tracked peak \"");
    };
    let mut words = line["tracked peak ".len()..].split_whitespace();
    let (Some(peak), Some("(budget"), Some(budget)) = (words.next(), words.next(), words.next())
    else {
        return err(
            WHAT,
            format!("expected `<size> (budget <size>)` in {line:?}"),
        );
    };
    Ok((
        printed_bytes(WHAT, peak)?,
        printed_bytes(WHAT, budget.trim_end_matches(')'))?,
    ))
}

/// What `largeea stats` reports about a dataset directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsOut {
    pub source_entities: u64,
    pub source_triples: u64,
    pub target_entities: u64,
    pub target_triples: u64,
    pub links: u64,
}

/// Parses `largeea stats` stdout (one `source`/`target` table row each —
/// entities, relations, triples, … — and a `ground-truth links: N` line).
pub fn stats_out(stdout: &str) -> Result<StatsOut, ParseError> {
    const WHAT: &str = "stats output";
    let row = |side: &str| -> Result<(u64, u64), ParseError> {
        let Some(line) = stdout.lines().find(|l| l.starts_with(side)) else {
            return err(WHAT, format!("no {side:?} row"));
        };
        let cols: Vec<&str> = line.split_whitespace().collect();
        match (
            cols.get(1).and_then(|c| c.parse().ok()),
            cols.get(3).and_then(|c| c.parse().ok()),
        ) {
            (Some(entities), Some(triples)) => Ok((entities, triples)),
            _ => err(WHAT, format!("bad {side:?} row {line:?}")),
        }
    };
    let (source_entities, source_triples) = row("source")?;
    let (target_entities, target_triples) = row("target")?;
    let links = number_after(WHAT, stdout, "ground-truth links: ", " ")?;
    Ok(StatsOut {
        source_entities,
        source_triples,
        target_entities,
        target_triples,
        links: links as u64,
    })
}

/// `VmHWM` (peak resident set) of `/proc/<pid>/status`, in KiB.
pub fn vm_hwm_kib(status: &str) -> Result<u64, ParseError> {
    const WHAT: &str = "/proc status";
    let Some(line) = status.lines().find(|l| l.starts_with("VmHWM:")) else {
        return err(WHAT, "no VmHWM line");
    };
    let mut words = line["VmHWM:".len()..].split_whitespace();
    match (words.next().and_then(|w| w.parse().ok()), words.next()) {
        (Some(kib), Some("kB")) => Ok(kib),
        _ => err(WHAT, format!("bad VmHWM line {line:?}")),
    }
}

/// CPU clock ticks of `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatTicks {
    /// The process's own user and system time (fields 14, 15).
    pub utime: u64,
    pub stime: u64,
    /// User and system time of its waited-for children (fields 16, 17).
    pub cutime: u64,
    pub cstime: u64,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may hold spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn stat_ticks(stat: &str) -> Result<StatTicks, ParseError> {
    const WHAT: &str = "/proc stat";
    let Some(close) = stat.rfind(')') else {
        return err(WHAT, "no ')' closes the command name");
    };
    // the first field after ')' is field 3
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let field = |n: usize| -> Result<u64, ParseError> {
        match fields.get(n - 3).map(|f| f.parse::<u64>()) {
            Some(Ok(v)) => Ok(v),
            Some(Err(_)) => err(WHAT, format!("field {n} is not a tick count")),
            None => err(WHAT, format!("field {n} is missing")),
        }
    };
    Ok(StatTicks {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // captured from `largeea align` / `largeea partition` / `largeea stats`
    const ALIGN: &str = "tracked peak 0.04G (budget 0.05G)\n\
        H@1 87.5%  H@5 90.6%  MRR 0.89  (15000 test pairs, 19.8s, pseudo seeds 11738 @ 98.0%)\n\
        wrote 14777 predicted links → o1.tsv\n";
    const PARTITION: &str =
        "K=20 MetisCps: retention total 40.8% / train 51.6% / test 38.2%, edge-cut rate 0.310\n  \
         batch  0:    6738 source +    4887 target entities,    324 train pairs\n";
    const STATS: &str = "side       entities  relations    triples    max-deg isolated\n\
         source        15000        267      47334        389        0\n\
         target        15000        210      40864        402        3\n\
         ground-truth links: 15000 (unknown entities: 0.0% source, 0.0% target)\n";

    #[test]
    fn captured_lines_parse() {
        assert_eq!(
            align_line(ALIGN).unwrap(),
            AlignLine {
                hits1_pct: 87.5,
                pipeline_s: 19.8
            }
        );
        assert_eq!(
            partition_line(PARTITION).unwrap(),
            PartitionLine {
                retention_total_pct: 40.8,
                edge_cut_rate: 0.310
            }
        );
        let (peak, budget) = tracked_peak_line(ALIGN).unwrap();
        assert!(peak < budget);
        assert_eq!(budget, 0.05 * 1024.0 * 1024.0 * 1024.0);
        assert_eq!(
            stats_out(STATS).unwrap(),
            StatsOut {
                source_entities: 15000,
                source_triples: 47334,
                target_entities: 15000,
                target_triples: 40864,
                links: 15000
            }
        );
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad in [
            "",
            "H@1 \n",
            "H@1 abc%  H@5 1%  (3 test pairs, 1.0s,",
            "H@1 120.0%  H@5 1%  MRR 0.1  (3 test pairs, 1.0s, pseudo",
            "H@1 50.0%  H@5 60.0%  MRR 0.5  (3 test pairs, -1.0s,",
            "H@1 50.0%  H@5 60.0%  MRR 0.5  (3 test pairs, fast)",
        ] {
            assert_eq!(align_line(bad).unwrap_err().what, "H@1 line", "{bad:?}");
        }
        for bad in [
            "",
            "retention total 40.8",
            "retention total x% edge-cut rate 0.3",
            "retention total 40.8% / train 1% / test 1%, edge-cut rate",
            "retention total 40.8% / train 1% / test 1%, edge-cut rate 7.5",
        ] {
            assert_eq!(
                partition_line(bad).unwrap_err().what,
                "retention line",
                "{bad:?}"
            );
        }
        for bad in [
            "",
            "tracked peak",
            "tracked peak 12M",
            "tracked peak 12 (budget 13M)",
            "tracked peak 12M (budget lots)",
        ] {
            assert!(tracked_peak_line(bad).is_err(), "{bad:?}");
        }
        for bad in ["", "source 1 2\ntarget 1 2 3\n", "source a b c\n"] {
            assert!(stats_out(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn proc_fixtures() {
        let status =
            "Name:\tlargeea\nVmPeak:\t  300000 kB\nVmHWM:\t  147456 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(vm_hwm_kib(status).unwrap(), 147456);
        assert!(vm_hwm_kib("Name:\tx\n").is_err());
        assert!(vm_hwm_kib("VmHWM:\t lots kB\n").is_err());
        assert!(vm_hwm_kib("VmHWM:\t 12 pages\n").is_err());

        // field 2 holds a space and a ')' — fields still count from the last ')'
        let stat = "4242 (largeea b) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    31 7 1903 842 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(
            stat_ticks(stat).unwrap(),
            StatTicks {
                utime: 31,
                stime: 7,
                cutime: 1903,
                cstime: 842
            }
        );
        assert!(stat_ticks("4242 largeea S 1").is_err());
        assert!(stat_ticks("4242 (largeea) S 1 2 3").is_err());
        assert!(stat_ticks("1 (x) S 1 1 1 0 -1 0 0 0 0 0 a b c d").is_err());
    }
}
