//! Time-series tables: named, unit-annotated columns of `f64` rows, with
//! CSV and JSONL export.
//!
//! This is the carrier format for per-episode search traces and
//! per-window serving telemetry. Columns are fixed at construction;
//! rows are appended in order and exported verbatim, so output is
//! deterministic given the same data.

use crate::{json_escape, json_f64};
use std::fmt::Write as _;

/// A named table of `f64` time-series rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Table name (used as a file stem by exporters).
    pub name: String,
    /// `(column, unit)` pairs; unit may be empty for dimensionless.
    pub columns: Vec<(String, String)>,
    /// Row-major data; every row has `columns.len()` cells.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// Create an empty series with the given `(column, unit)` schema.
    pub fn new(name: &str, columns: &[(&str, &str)]) -> Self {
        Series {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(|(c, u)| (c.to_string(), u.to_string()))
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row. Panics if the cell count does not match the
    /// schema (a programming error at the instrumentation site).
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "series {:?}: row has {} cells, schema has {} columns",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the series holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// CSV export: header row of `column[unit]` (or bare `column` when
    /// the unit is empty), then one line per row. Non-finite cells
    /// render as empty fields.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .map(|(c, u)| {
                if u.is_empty() {
                    c.clone()
                } else {
                    format!("{c}[{u}]")
                }
            })
            .collect();
        let _ = writeln!(out, "{}", header.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|&v| {
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        String::new()
                    }
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// JSON Lines export: one object per row keyed by column name, with
    /// non-finite cells rendered as `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let fields: Vec<String> = self
                .columns
                .iter()
                .zip(row)
                .map(|((c, _), &v)| format!("\"{}\":{}", json_escape(c), json_f64(v)))
                .collect();
            let _ = writeln!(out, "{{{}}}", fields.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_unit_annotated_header_and_roundtrip_floats() {
        let mut s = Series::new("ep", &[("episode", ""), ("reward", ""), ("energy", "nJ")]);
        s.push(vec![0.0, 0.5, 123.25]);
        s.push(vec![1.0, f64::NAN, 130.0]);
        assert_eq!(
            s.to_csv(),
            "episode,reward,energy[nJ]\n0,0.5,123.25\n1,,130\n"
        );
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn jsonl_keys_rows_by_column() {
        let mut s = Series::new("w", &[("t", "ns"), ("depth", "")]);
        s.push(vec![100.0, 2.0]);
        s.push(vec![200.0, f64::INFINITY]);
        assert_eq!(
            s.to_jsonl(),
            "{\"t\":100,\"depth\":2}\n{\"t\":200,\"depth\":null}\n"
        );
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn schema_mismatch_panics() {
        let mut s = Series::new("bad", &[("a", ""), ("b", "")]);
        s.push(vec![1.0]);
    }
}
