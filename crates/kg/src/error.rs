//! Error type for KG construction and IO.

use std::fmt;
use std::io;

/// Errors produced while building or (de)serialising knowledge graphs.
#[derive(Debug)]
pub enum KgError {
    /// An entity id referenced a row that does not exist.
    UnknownEntity(u32),
    /// A relation id referenced a row that does not exist.
    UnknownRelation(u32),
    /// A line of an input file could not be parsed.
    Parse {
        /// Path or logical name of the input.
        source_name: String,
        /// 1-based line number.
        line: usize,
        /// Human-readable description of what was wrong.
        message: String,
    },
    /// Alignment referenced an entity name missing from one of the KGs.
    UnknownAlignmentEntity {
        /// The offending entity name.
        name: String,
        /// `"source"` or `"target"`.
        side: &'static str,
    },
    /// An input's names would take a name arena past the `u32::MAX` bytes
    /// its offsets address.
    TooLarge {
        /// Path or logical name of the input whose names overflowed.
        source_name: String,
    },
    /// Underlying IO failure.
    Io(io::Error),
}

impl fmt::Display for KgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgError::UnknownEntity(id) => write!(f, "unknown entity id {id}"),
            KgError::UnknownRelation(id) => write!(f, "unknown relation id {id}"),
            KgError::Parse {
                source_name,
                line,
                message,
            } => write!(f, "{source_name}:{line}: {message}"),
            KgError::UnknownAlignmentEntity { name, side } => {
                write!(f, "alignment references unknown {side} entity {name:?}")
            }
            KgError::TooLarge { source_name } => write!(
                f,
                "{source_name}: names exceed the 4 GiB a name arena addresses"
            ),
            KgError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for KgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for KgError {
    fn from(e: io::Error) -> Self {
        KgError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(KgError::UnknownEntity(3).to_string(), "unknown entity id 3");
        let p = KgError::Parse {
            source_name: "triples.txt".into(),
            line: 12,
            message: "expected 3 fields".into(),
        };
        assert_eq!(p.to_string(), "triples.txt:12: expected 3 fields");
        let big = KgError::TooLarge {
            source_name: "ent_labels_1".into(),
        };
        assert!(big.to_string().starts_with("ent_labels_1: names exceed"));
    }

    #[test]
    fn io_error_wraps() {
        let e: KgError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
