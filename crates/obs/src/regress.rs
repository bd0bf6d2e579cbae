//! Perf-regression sentinel over `BENCH_*.json` snapshots.
//!
//! `scripts/bench_snapshot.sh` records min-of-N criterion timings as
//! flat `{"results": {"name": ns, ...}}` JSON. This module parses those
//! snapshots (with a small hand-rolled JSON reader — the obs crate is
//! deliberately dependency-free), compares a current snapshot against a
//! baseline with a noise-aware threshold, and renders a machine-checkable
//! verdict artifact. `scripts/check.sh` runs it in warn mode on every gate;
//! `--hard` upgrades regressions to a non-zero exit for release gating.
//!
//! ## Noise model
//!
//! Min-of-N already suppresses scheduler noise, but small kernels still
//! jitter by a few percent and sub-microsecond benches by whole
//! nanoseconds. A result counts as **regressed** only when
//!
//! ```text
//! current > baseline * (1 + rel_threshold) + abs_slack_ns
//! ```
//!
//! and symmetrically as **improved** below
//! `baseline * (1 − rel_threshold) − abs_slack_ns`. The absolute slack
//! keeps 10 ns → 13 ns flips on trivial benches from paging; the
//! relative threshold (default 20%) absorbs run-to-run jitter on big
//! ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, literals).
// ---------------------------------------------------------------------------

/// Parsed JSON value. Only what snapshots need; numbers are f64.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order of the source text is preserved via BTreeMap's sorted
    /// iteration being irrelevant here — lookups are by key.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed for bench names;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (bench names are ASCII, but
                // stay correct for arbitrary input).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot model and comparison.
// ---------------------------------------------------------------------------

/// One parsed `BENCH_*.json` snapshot (the fields the sentinel needs).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Suite name (`"kernels"`, `"search"`, …).
    pub bench: String,
    /// Git revision the snapshot was taken at, if recorded.
    pub git_rev: String,
    /// `name → min ns/iter`, sorted by name.
    pub results: BTreeMap<String, f64>,
}

/// Parse a snapshot document. Nested `derived` blocks and any unknown
/// top-level keys are ignored; only `results` entries that are plain
/// numbers participate in comparison.
pub fn parse_snapshot(text: &str) -> Result<BenchSnapshot, String> {
    let doc = Json::parse(text)?;
    let results_obj = doc
        .get("results")
        .and_then(Json::as_obj)
        .ok_or("snapshot has no \"results\" object".to_string())?;
    let mut results = BTreeMap::new();
    for (name, v) in results_obj {
        if let Some(ns) = v.as_f64() {
            results.insert(name.clone(), ns);
        }
    }
    Ok(BenchSnapshot {
        bench: doc
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        git_rev: doc
            .get("git_rev")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        results,
    })
}

/// Noise-aware comparison thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressConfig {
    /// Relative change that counts as signal (0.20 = 20%).
    pub rel_threshold: f64,
    /// Absolute slack in nanoseconds added on top, shielding tiny benches.
    pub abs_slack_ns: f64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            rel_threshold: 0.20,
            abs_slack_ns: 100.0,
        }
    }
}

/// Verdict for one benchmark entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Slower than baseline beyond threshold + slack.
    Regressed,
    /// Faster than baseline beyond threshold + slack.
    Improved,
    /// Within the noise envelope.
    Unchanged,
    /// Present only in the current snapshot.
    Added,
    /// Present only in the baseline.
    Removed,
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of a comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressRow {
    pub name: String,
    /// Baseline min ns/iter (NaN for added entries).
    pub baseline_ns: f64,
    /// Current min ns/iter (NaN for removed entries).
    pub current_ns: f64,
    /// `current / baseline` (NaN when either side is missing).
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Full comparison of one suite, rows sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    pub bench: String,
    pub baseline_rev: String,
    pub current_rev: String,
    pub config: RegressConfig,
    pub rows: Vec<RegressRow>,
}

/// Compare `current` against `baseline` under `cfg`.
pub fn compare(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    cfg: RegressConfig,
) -> RegressReport {
    let mut names: Vec<&String> = baseline.results.keys().collect();
    for name in current.results.keys() {
        if !baseline.results.contains_key(name) {
            names.push(name);
        }
    }
    names.sort();
    let rows = names
        .into_iter()
        .map(|name| {
            let base = baseline.results.get(name).copied();
            let cur = current.results.get(name).copied();
            let (baseline_ns, current_ns, ratio, verdict) = match (base, cur) {
                (Some(b), Some(c)) => {
                    let verdict = if c > b * (1.0 + cfg.rel_threshold) + cfg.abs_slack_ns {
                        Verdict::Regressed
                    } else if c < b * (1.0 - cfg.rel_threshold) - cfg.abs_slack_ns {
                        Verdict::Improved
                    } else {
                        Verdict::Unchanged
                    };
                    (b, c, if b > 0.0 { c / b } else { f64::NAN }, verdict)
                }
                (None, Some(c)) => (f64::NAN, c, f64::NAN, Verdict::Added),
                (Some(b), None) => (b, f64::NAN, f64::NAN, Verdict::Removed),
                (None, None) => unreachable!("name came from one of the maps"),
            };
            RegressRow {
                name: name.clone(),
                baseline_ns,
                current_ns,
                ratio,
                verdict,
            }
        })
        .collect();
    RegressReport {
        bench: current.bench.clone(),
        baseline_rev: baseline.git_rev.clone(),
        current_rev: current.git_rev.clone(),
        config: cfg,
        rows,
    }
}

impl RegressReport {
    /// Rows that regressed.
    pub fn regressions(&self) -> Vec<&RegressRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .collect()
    }

    /// Rows that improved.
    pub fn improvements(&self) -> Vec<&RegressRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Improved)
            .collect()
    }

    /// JSONL verdict artifact: one object per row plus a trailing
    /// summary object (`"kind":"summary"`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{{\"kind\":\"row\",\"bench\":\"{}\",\"name\":\"{}\",\"baseline_ns\":{},\"current_ns\":{},\"ratio\":{},\"verdict\":\"{}\"}}",
                crate::json_escape(&self.bench),
                crate::json_escape(&r.name),
                crate::json_f64(r.baseline_ns),
                crate::json_f64(r.current_ns),
                crate::json_f64(r.ratio),
                r.verdict.label()
            );
        }
        let _ = writeln!(
            out,
            "{{\"kind\":\"summary\",\"bench\":\"{}\",\"baseline_rev\":\"{}\",\"current_rev\":\"{}\",\"rel_threshold\":{},\"abs_slack_ns\":{},\"total\":{},\"regressed\":{},\"improved\":{}}}",
            crate::json_escape(&self.bench),
            crate::json_escape(&self.baseline_rev),
            crate::json_escape(&self.current_rev),
            crate::json_f64(self.config.rel_threshold),
            crate::json_f64(self.config.abs_slack_ns),
            self.rows.len(),
            self.regressions().len(),
            self.improvements().len()
        );
        out
    }

    /// Human-readable summary for terminal / CI logs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench {:?}: {} entries, {} regressed, {} improved ({}% threshold, {} ns slack)",
            self.bench,
            self.rows.len(),
            self.regressions().len(),
            self.improvements().len(),
            self.config.rel_threshold * 100.0,
            self.config.abs_slack_ns
        );
        for r in &self.rows {
            if r.verdict == Verdict::Unchanged {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<10} {}  {} ns -> {} ns (x{:.3})",
                r.verdict.label(),
                r.name,
                r.baseline_ns,
                r.current_ns,
                r.ratio
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            bench: "test".into(),
            git_rev: "abc".into(),
            results: entries.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn json_parser_handles_snapshot_shape() {
        let doc = Json::parse(
            r#"{"bench":"kernels","reps":5,"results":{"a/b":10,"c":2.5e3},
                "derived":{"x":{"speedup":4.25}},"flag":true,"none":null,
                "arr":[1,"two\n",{}]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("kernels"));
        assert_eq!(
            doc.get("results")
                .and_then(|r| r.get("c"))
                .and_then(Json::as_f64),
            Some(2500.0)
        );
        assert_eq!(
            doc.get("derived")
                .and_then(|d| d.get("x"))
                .and_then(|x| x.get("speedup"))
                .and_then(Json::as_f64),
            Some(4.25)
        );
        assert!(Json::parse("{\"a\":1} junk").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    #[test]
    fn parse_real_bench_kernels_snapshot() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path).expect("BENCH_kernels.json present at repo root");
        let snap = parse_snapshot(&text).unwrap();
        assert_eq!(snap.bench, "kernels");
        assert!(!snap.results.is_empty());
        assert!(snap.results.values().all(|&ns| ns > 0.0));
    }

    #[test]
    fn identical_snapshots_are_unchanged() {
        let base = snap(&[("a", 1000.0), ("b", 50.0)]);
        let report = compare(&base, &base, RegressConfig::default());
        assert!(report.regressions().is_empty());
        assert!(report.improvements().is_empty());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
    }

    #[test]
    fn twenty_percent_slowdown_is_flagged_small_jitter_is_not() {
        let cfg = RegressConfig::default();
        let base = snap(&[("big", 100_000.0), ("tiny", 10.0)]);
        // 25% slowdown on a big bench: regressed.
        let cur = snap(&[("big", 125_000.0), ("tiny", 10.0)]);
        let report = compare(&base, &cur, cfg);
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].name, "big");
        // 19% slowdown: inside the envelope.
        let cur = snap(&[("big", 119_000.0), ("tiny", 10.0)]);
        assert!(compare(&base, &cur, cfg).regressions().is_empty());
        // Tiny bench tripling from 10 ns to 30 ns: shielded by abs slack.
        let cur = snap(&[("big", 100_000.0), ("tiny", 30.0)]);
        assert!(compare(&base, &cur, cfg).regressions().is_empty());
        // Large improvement is reported as such.
        let cur = snap(&[("big", 50_000.0), ("tiny", 10.0)]);
        assert_eq!(compare(&base, &cur, cfg).improvements().len(), 1);
    }

    #[test]
    fn added_and_removed_entries_are_classified() {
        let base = snap(&[("a", 100.0), ("gone", 5.0)]);
        let cur = snap(&[("a", 100.0), ("new", 7.0)]);
        let report = compare(&base, &cur, RegressConfig::default());
        let verdicts: Vec<(&str, Verdict)> = report
            .rows
            .iter()
            .map(|r| (r.name.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("a", Verdict::Unchanged),
                ("gone", Verdict::Removed),
                ("new", Verdict::Added)
            ]
        );
    }

    #[test]
    fn verdict_artifact_has_rows_and_summary() {
        let base = snap(&[("a", 100_000.0)]);
        let cur = snap(&[("a", 130_000.0)]);
        let report = compare(&base, &cur, RegressConfig::default());
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"verdict\":\"regressed\""));
        assert!(jsonl.contains("\"kind\":\"summary\""));
        assert!(jsonl.contains("\"regressed\":1"));
        let text = report.to_text();
        assert!(text.contains("1 regressed"));
    }

    #[test]
    fn real_snapshot_vs_itself_with_injected_slowdown() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path).unwrap();
        let base = parse_snapshot(&text).unwrap();
        // Self-comparison: the real trajectory passes.
        assert!(compare(&base, &base, RegressConfig::default())
            .regressions()
            .is_empty());
        // Inject a 25% slowdown into the largest entry of a copy.
        let mut cur = base.clone();
        let (victim, ns) = cur
            .results
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, v)| (k.clone(), *v))
            .unwrap();
        cur.results.insert(victim.clone(), ns * 1.25);
        let report = compare(&base, &cur, RegressConfig::default());
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].name, victim);
    }
}
