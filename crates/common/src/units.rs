//! Human-readable unit formatting shared across the workspace.
//!
//! [`fmt_bytes`] renders byte counts the way the paper's tables do
//! (`"4.04G"`, `"0.5M"`, `"16.0K"`, `"100B"`), so every memory number in
//! the tree — `trace heap`, the budget error message, the
//! table binaries — prints identically.

/// Formats bytes the way the paper's tables do (`"4.04G"`, `"0.13G"`, MB
/// below a gigabyte, KB below a tenth of a megabyte, raw bytes below 1K).
pub fn fmt_bytes(bytes: usize) -> String {
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= 0.01 * GB {
        format!("{:.2}G", b / GB)
    } else if b >= 0.1 * MB {
        format!("{:.1}M", b / MB)
    } else if b >= KB {
        format!("{:.1}K", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting_thresholds() {
        assert_eq!(fmt_bytes(4 * 1024 * 1024 * 1024), "4.00G");
        assert_eq!(fmt_bytes(512 * 1024), "0.5M");
        assert_eq!(fmt_bytes(16 * 1024), "16.0K");
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(0), "0B");
    }
}
