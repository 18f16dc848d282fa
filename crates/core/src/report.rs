//! Machine-readable experiment rows and table rendering.
//!
//! Every experiment binary in `largeea-bench` emits the paper's rows both
//! as aligned text (for eyes) and as JSON lines (for EXPERIMENTS.md
//! regeneration and diffing).

use crate::eval::EvalResult;
use largeea_common::fmt_bytes;
use largeea_common::json::{Json, ToJson};
use std::io::{self, Write};

/// One method × dataset × direction row of an accuracy table (the shape of
/// the paper's Tables 2–4).
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Dataset display name, e.g. `"IDS15K(EN-FR)"`.
    pub dataset: String,
    /// Method display name, e.g. `"LargeEA-R"`.
    pub method: String,
    /// Direction, e.g. `"EN→FR"`.
    pub direction: String,
    /// Hits@1 (%).
    pub hits1: f64,
    /// Hits@5 (%).
    pub hits5: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Peak bytes (GPU-memory stand-in).
    pub mem_bytes: usize,
}

impl MethodRow {
    /// Builds a row from an [`EvalResult`] plus cost figures.
    pub fn new(
        dataset: impl Into<String>,
        method: impl Into<String>,
        direction: impl Into<String>,
        eval: EvalResult,
        seconds: f64,
        mem_bytes: usize,
    ) -> Self {
        Self {
            dataset: dataset.into(),
            method: method.into(),
            direction: direction.into(),
            hits1: eval.hits1,
            hits5: eval.hits5,
            mrr: eval.mrr,
            seconds,
            mem_bytes,
        }
    }

    /// Aligned text rendering.
    pub fn formatted(&self) -> String {
        format!(
            "{:<18} {:<22} {:<7} {:>5.1} {:>5.1} {:>5.2} {:>9.2}s {:>8}",
            self.dataset,
            self.method,
            self.direction,
            self.hits1,
            self.hits5,
            self.mrr,
            self.seconds,
            fmt_bytes(self.mem_bytes),
        )
    }
}

/// Writes a titled table of rows (text + JSON lines) to `out`, mirroring
/// the paper's layout: header `H@1 H@5 MRR Time Mem.`.
pub fn write_table(out: &mut impl Write, title: &str, rows: &[MethodRow]) -> io::Result<()> {
    writeln!(out, "\n=== {title} ===")?;
    writeln!(
        out,
        "{:<18} {:<22} {:<7} {:>5} {:>5} {:>5} {:>10} {:>8}",
        "Dataset", "Method", "Dir", "H@1", "H@5", "MRR", "Time", "Mem."
    )?;
    for row in rows {
        writeln!(out, "{}", row.formatted())?;
    }
    writeln!(out, "--- json ---")?;
    for row in rows {
        writeln!(out, "{}", row.to_json_string())?;
    }
    Ok(())
}

/// [`write_table`] to stdout (panics on a broken pipe, like `println!`).
pub fn print_table(title: &str, rows: &[MethodRow]) {
    write_table(&mut io::stdout(), title, rows).expect("write to stdout");
}

impl ToJson for MethodRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.to_json()),
            ("method", self.method.to_json()),
            ("direction", self.direction.to_json()),
            ("hits1", self.hits1.to_json()),
            ("hits5", self.hits5.to_json()),
            ("mrr", self.mrr.to_json()),
            ("seconds", self.seconds.to_json()),
            ("mem_bytes", self.mem_bytes.to_json()),
        ])
    }
}

/// A generic labelled data series (the shape of the paper's figures).
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label, e.g. `"METIS-CPS"`.
    pub label: String,
    /// X values (seed ratio, K, D_ov, scale, …).
    pub x: Vec<f64>,
    /// Y values (H@1, seconds, R_ec, …).
    pub y: Vec<f64>,
}

/// Writes a titled set of series as aligned text plus JSON lines to `out`.
pub fn write_series(
    out: &mut impl Write,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
) -> io::Result<()> {
    writeln!(out, "\n=== {title} ===  ({x_label} vs {y_label})")?;
    for s in series {
        write!(out, "{:<14}", s.label)?;
        for (x, y) in s.x.iter().zip(&s.y) {
            write!(out, "  ({x:.3}, {y:.3})")?;
        }
        writeln!(out)?;
    }
    writeln!(out, "--- json ---")?;
    for s in series {
        writeln!(out, "{}", s.to_json_string())?;
    }
    Ok(())
}

/// [`write_series`] to stdout (panics on a broken pipe, like `println!`).
pub fn print_series(title: &str, x_label: &str, y_label: &str, series: &[Series]) {
    write_series(&mut io::stdout(), title, x_label, y_label, series).expect("write to stdout");
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("x", self.x.to_json()),
            ("y", self.y.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_all_columns() {
        let row = MethodRow::new(
            "IDS15K(EN-FR)",
            "LargeEA-R",
            "EN→FR",
            EvalResult {
                hits1: 88.4,
                hits5: 92.2,
                mrr: 0.9,
                evaluated: 100,
            },
            77.0,
            1_654_000_000,
        );
        let s = row.formatted();
        assert!(s.contains("88.4"));
        assert!(s.contains("LargeEA-R"));
        assert!(s.contains("1.54G"));
    }

    /// Golden test: the expected strings below are the literal
    /// `serde_json::to_string` outputs this repo produced before the
    /// in-tree emitter replaced serde — EXPERIMENTS.md rows must stay
    /// byte-identical across that swap.
    #[test]
    fn row_json_is_byte_identical_to_serde_output() {
        let row = MethodRow::new(
            "IDS15K(EN-FR)",
            "LargeEA-R",
            "EN→FR",
            EvalResult {
                hits1: 88.4,
                hits5: 92.2,
                mrr: 0.9,
                evaluated: 100,
            },
            77.0,
            1_654_000_000,
        );
        assert_eq!(
            row.to_json_string(),
            "{\"dataset\":\"IDS15K(EN-FR)\",\"method\":\"LargeEA-R\",\
             \"direction\":\"EN→FR\",\"hits1\":88.4,\"hits5\":92.2,\
             \"mrr\":0.9,\"seconds\":77.0,\"mem_bytes\":1654000000}"
        );
    }

    #[test]
    fn zero_row_json_is_byte_identical_to_serde_output() {
        let row = MethodRow::new("d", "m", "x", EvalResult::zero(0), 0.0, 0);
        assert_eq!(
            row.to_json_string(),
            "{\"dataset\":\"d\",\"method\":\"m\",\"direction\":\"x\",\
             \"hits1\":0.0,\"hits5\":0.0,\"mrr\":0.0,\"seconds\":0.0,\
             \"mem_bytes\":0}"
        );
    }

    #[test]
    fn tables_and_series_write_into_any_sink() {
        let row = MethodRow::new("d", "m", "x", EvalResult::zero(0), 1.0, 0);
        let mut buf = Vec::new();
        write_table(&mut buf, "T2", std::slice::from_ref(&row)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("\n=== T2 ===\n"));
        assert!(text.contains("Dataset"));
        assert!(text.contains("--- json ---"));
        assert!(text.contains(&row.to_json_string()));

        let s = Series {
            label: "VPS".into(),
            x: vec![0.5],
            y: vec![10.0],
        };
        let mut buf = Vec::new();
        write_series(&mut buf, "F6", "K", "H@1", std::slice::from_ref(&s)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("\n=== F6 ===  (K vs H@1)\n"));
        assert!(text.contains("VPS             (0.500, 10.000)\n"));
        assert!(text.contains(&s.to_json_string()));
    }

    #[test]
    fn series_json_is_byte_identical_to_serde_output() {
        let s = Series {
            label: "VPS".into(),
            x: vec![0.1, 0.2],
            y: vec![10.0, 20.0],
        };
        assert_eq!(
            s.to_json_string(),
            "{\"label\":\"VPS\",\"x\":[0.1,0.2],\"y\":[10.0,20.0]}"
        );
        let empty = Series {
            label: "γ=0.05".into(),
            x: vec![],
            y: vec![],
        };
        assert_eq!(
            empty.to_json_string(),
            "{\"label\":\"γ=0.05\",\"x\":[],\"y\":[]}"
        );
    }
}
