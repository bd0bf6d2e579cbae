//! Strategy persistence.
//!
//! §4.5 of the paper: "the RL training is executed once but the decision
//! result is used many times" — which requires saving that decision. This
//! module serializes a per-layer crossbar strategy to a small, stable,
//! human-readable text format:
//!
//! ```text
//! # autohet-strategy v1
//! # model: VGG16 (16 layers)
//! L1 576x512
//! L2 72x64
//! ...
//! ```
//!
//! Plain text (not JSON) keeps the offline dependency set to the
//! whitelisted crates and makes strategies diffable in code review.

use autohet_xbar::XbarShape;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Format version tag written to every file.
const HEADER: &str = "# autohet-strategy v1";

/// Serialize a strategy (with an optional model note).
///
/// ```
/// use autohet::persist::{strategy_from_str, strategy_to_string};
/// use autohet::prelude::paper_hybrid_candidates;
///
/// let strategy = paper_hybrid_candidates();
/// let text = strategy_to_string(&strategy, "demo");
/// assert_eq!(strategy_from_str(&text).unwrap(), strategy);
/// ```
pub fn strategy_to_string(strategy: &[XbarShape], model_note: &str) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    if !model_note.is_empty() {
        let _ = writeln!(out, "# model: {model_note}");
    }
    for (i, s) in strategy.iter().enumerate() {
        let _ = writeln!(out, "L{} {}", i + 1, s);
    }
    out
}

/// Errors from parsing a strategy file.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Empty input: the file was truncated before the header.
    Truncated,
    /// Missing or wrong version header.
    BadHeader,
    /// Line did not match `L<k> <rows>x<cols>`.
    BadLine(String),
    /// Layer indices were not 1..=N in order.
    BadIndex(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "empty or truncated strategy file"),
            ParseError::BadHeader => write!(f, "missing '{HEADER}' header"),
            ParseError::BadLine(l) => write!(f, "unparseable line: {l}"),
            ParseError::BadIndex(l) => write!(f, "out-of-order layer index: {l}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors from loading or saving a strategy file: every failure mode of
/// the search-once/deploy-many workflow is a distinct variant, and none
/// of the public functions panic on bad input.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure (missing file, permissions, short write, …).
    Io(io::Error),
    /// The file exists but is not a well-formed strategy.
    Parse(ParseError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "strategy file I/O: {e}"),
            PersistError::Parse(e) => write!(f, "strategy file format: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<ParseError> for PersistError {
    fn from(e: ParseError) -> Self {
        PersistError::Parse(e)
    }
}

/// Parse a strategy string (inverse of [`strategy_to_string`]).
pub fn strategy_from_str(text: &str) -> Result<Vec<XbarShape>, ParseError> {
    let mut lines = text.lines();
    match lines.next() {
        None => return Err(ParseError::Truncated),
        Some(first) if first.trim() != HEADER => return Err(ParseError::BadHeader),
        Some(_) => {}
    }
    let mut out = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (tag, shape) = line
            .split_once(' ')
            .ok_or_else(|| ParseError::BadLine(line.into()))?;
        let idx: usize = tag
            .strip_prefix('L')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ParseError::BadLine(line.into()))?;
        if idx != out.len() + 1 {
            return Err(ParseError::BadIndex(line.into()));
        }
        let (r, c) = shape
            .split_once('x')
            .ok_or_else(|| ParseError::BadLine(line.into()))?;
        let rows: u32 = r
            .trim()
            .parse()
            .map_err(|_| ParseError::BadLine(line.into()))?;
        let cols: u32 = c
            .trim()
            .parse()
            .map_err(|_| ParseError::BadLine(line.into()))?;
        if rows == 0 || cols == 0 {
            return Err(ParseError::BadLine(line.into()));
        }
        out.push(XbarShape::new(rows, cols));
    }
    Ok(out)
}

/// Write a strategy to a file.
pub fn save_strategy(
    path: &Path,
    strategy: &[XbarShape],
    model_note: &str,
) -> Result<(), PersistError> {
    fs::write(path, strategy_to_string(strategy, model_note))?;
    Ok(())
}

/// Read a strategy from a file.
pub fn load_strategy(path: &Path) -> Result<Vec<XbarShape>, PersistError> {
    let text = fs::read_to_string(path)?;
    Ok(strategy_from_str(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    fn sample() -> Vec<XbarShape> {
        paper_hybrid_candidates()
    }

    #[test]
    fn round_trips_through_string() {
        let s = sample();
        let text = strategy_to_string(&s, "demo (5 layers)");
        assert_eq!(strategy_from_str(&text).unwrap(), s);
    }

    #[test]
    fn round_trips_through_file() {
        let s = sample();
        let path = std::env::temp_dir().join("autohet_strategy_test.txt");
        save_strategy(&path, &s, "demo").unwrap();
        assert_eq!(load_strategy(&path).unwrap(), s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(strategy_from_str("L1 32x32\n"), Err(ParseError::BadHeader));
    }

    #[test]
    fn rejects_garbage_lines() {
        let text = format!("{HEADER}\nL1 32by32\n");
        assert!(matches!(
            strategy_from_str(&text),
            Err(ParseError::BadLine(_))
        ));
        let text = format!("{HEADER}\nL1 0x32\n");
        assert!(matches!(
            strategy_from_str(&text),
            Err(ParseError::BadLine(_))
        ));
    }

    #[test]
    fn rejects_out_of_order_indices() {
        let text = format!("{HEADER}\nL2 32x32\n");
        assert!(matches!(
            strategy_from_str(&text),
            Err(ParseError::BadIndex(_))
        ));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = format!("{HEADER}\n# a note\n\nL1 36x32\n# more\nL2 72x64\n");
        let s = strategy_from_str(&text).unwrap();
        assert_eq!(s, vec![XbarShape::new(36, 32), XbarShape::new(72, 64)]);
    }

    #[test]
    fn empty_strategy_round_trips() {
        let text = strategy_to_string(&[], "");
        assert_eq!(strategy_from_str(&text).unwrap(), vec![]);
    }

    #[test]
    fn empty_input_is_truncated_not_bad_header() {
        assert_eq!(strategy_from_str(""), Err(ParseError::Truncated));
    }

    #[test]
    fn load_surfaces_io_errors_without_panicking() {
        let path = std::env::temp_dir().join("autohet_no_such_strategy_file.txt");
        let _ = std::fs::remove_file(&path);
        match load_strategy(&path).unwrap_err() {
            PersistError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_truncated_file() {
        let path = std::env::temp_dir().join("autohet_truncated_strategy.txt");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            load_strategy(&path).unwrap_err(),
            PersistError::Parse(ParseError::Truncated)
        ));
        // Header alone parses as an empty strategy; a header cut mid-way
        // does not.
        std::fs::write(&path, &HEADER[..HEADER.len() / 2]).unwrap();
        assert!(matches!(
            load_strategy(&path).unwrap_err(),
            PersistError::Parse(ParseError::BadHeader)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_binary_garbage() {
        let path = std::env::temp_dir().join("autohet_garbage_strategy.txt");
        std::fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x9C, 0x41]).unwrap();
        // Non-UTF-8 bytes surface as an I/O error; UTF-8 noise as parse.
        assert!(matches!(
            load_strategy(&path).unwrap_err(),
            PersistError::Io(_)
        ));
        std::fs::write(&path, format!("{HEADER}\nL1 \u{2603}x64\n")).unwrap();
        assert!(matches!(
            load_strategy(&path).unwrap_err(),
            PersistError::Parse(ParseError::BadLine(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persist_error_chains_its_source() {
        use std::error::Error as _;
        let e = PersistError::from(ParseError::BadHeader);
        assert!(e.source().is_some());
        let io = PersistError::from(io::Error::from(io::ErrorKind::NotFound));
        assert!(io.source().is_some());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The text format round-trips any strategy, not just the
            // candidate shapes the search happens to emit.
            #[test]
            fn strategy_text_round_trips(
                dims in prop::collection::vec((1u32..=4096, 1u32..=4096), 0..48),
                note in prop_oneof![Just(""), Just("VGG16 (16 layers)"), Just("x")],
            ) {
                let strategy: Vec<XbarShape> =
                    dims.iter().map(|&(r, c)| XbarShape::new(r, c)).collect();
                let text = strategy_to_string(&strategy, note);
                prop_assert_eq!(strategy_from_str(&text).unwrap(), strategy);
            }
        }
    }
}
