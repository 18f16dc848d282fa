//! Strings stored once, back to back in one arena: [`Names`] and its
//! borrowed view [`NameSlice`]. A KG keeps its entity keys and labels this
//! way, and the name channel its normalised names.

use std::ops::Range;

/// Strings stored once, back to back in one arena, in push order.
///
/// `ends[i]` is one past the last arena byte of string `i`, a `u32`: an
/// arena holds at most `u32::MAX` bytes, and [`Names::push`] refuses the
/// string that would take it past that. Each string costs its bytes plus
/// four — no header, no allocation of its own.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    /// An empty arena with room for `n` strings of `bytes` bytes in all.
    pub fn with_capacity(n: usize, bytes: usize) -> Self {
        Self {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(n),
        }
    }

    /// Appends `name` and returns its index, or `None` (and appends
    /// nothing) when the arena would grow past `u32::MAX` bytes.
    pub fn push(&mut self, name: &str) -> Option<usize> {
        let end = u32::try_from(self.text.len() + name.len()).ok()?;
        self.text.push_str(name);
        self.ends.push(end);
        Some(self.ends.len() - 1)
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// String `i`. Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> &str {
        self.as_slice().get(i)
    }

    /// Drops the capacity growth left beyond what is held.
    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes held: the text and four per string.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + 4 * self.ends.capacity()
    }

    /// All the strings, as a view.
    pub fn as_slice(&self) -> NameSlice<'_> {
        NameSlice {
            text: &self.text,
            start: 0,
            ends: &self.ends,
        }
    }
}

/// A borrowed run of a [`Names`] arena: strings `first..first + len` of it,
/// read by index. `Copy`, like the `&[String]` it stands in for.
#[derive(Debug, Clone, Copy)]
pub struct NameSlice<'a> {
    text: &'a str,
    /// Where the first string starts.
    start: u32,
    ends: &'a [u32],
}

impl<'a> NameSlice<'a> {
    /// Number of strings.
    pub fn len(self) -> usize {
        self.ends.len()
    }

    /// Whether there are none.
    pub fn is_empty(self) -> bool {
        self.ends.is_empty()
    }

    /// String `i` of the view. Panics if `i` is out of range.
    pub fn get(self, i: usize) -> &'a str {
        let start = match i {
            0 => self.start,
            i => self.ends[i - 1],
        };
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// The strings in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a str> + Clone {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Strings `rows` of the view. Panics if `rows` is out of range.
    pub fn rows(self, rows: Range<usize>) -> NameSlice<'a> {
        NameSlice {
            text: self.text,
            start: match rows.start {
                0 => self.start,
                i => self.ends[i - 1],
            },
            ends: &self.ends[rows],
        }
    }

    /// Bytes of text the view covers.
    pub fn text_len(self) -> usize {
        self.ends
            .last()
            .map_or(0, |&end| (end - self.start) as usize)
    }

    /// The view's strings in an arena of their own.
    pub fn to_names(self) -> Names {
        let start = self.start as usize;
        Names {
            text: self.text[start..start + self.text_len()].to_owned(),
            ends: self.ends.iter().map(|&end| end - self.start).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_views_cut_rows_and_copy_out() {
        let mut names = Names::default();
        for s in ["", "ab", "é", "", "xyz"] {
            names.push(s).unwrap();
        }
        assert_eq!(names.len(), 5);
        let all = names.as_slice();
        assert_eq!(all.iter().collect::<Vec<_>>(), ["", "ab", "é", "", "xyz"]);
        assert_eq!(all.text_len(), 7);
        for a in 0..=5 {
            for b in a..=5 {
                let rows = all.rows(a..b);
                let want: Vec<_> = all.iter().skip(a).take(b - a).collect();
                assert_eq!(rows.iter().collect::<Vec<_>>(), want);
                assert_eq!(rows.text_len(), want.concat().len());
                let owned = rows.to_names();
                assert_eq!(owned.as_slice().iter().collect::<Vec<_>>(), want);
                assert!(owned.heap_bytes() >= rows.text_len());
            }
        }
        assert_eq!(all.rows(1..4).rows(1..3).get(0), "é");
    }
}
