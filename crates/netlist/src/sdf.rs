//! SDF (Standard Delay Format) back-annotation — the subset needed to
//! re-time a netlist from a delay calculator's output.
//!
//! The paper's conclusion reports "we process SDF backannotation to test
//! our method on industrial circuits"; this module implements the
//! corresponding substrate: an s-expression parser for the `DELAYFILE /
//! CELL / DELAY / ABSOLUTE / IOPATH` skeleton of SDF 3.0, and
//! [`apply_sdf`], which rebuilds a circuit with the annotated per-gate
//! delay intervals.
//!
//! Supported subset (everything else inside a cell is skipped):
//!
//! ```text
//! (DELAYFILE
//!   (SDFVERSION "3.0")
//!   (DESIGN "top")
//!   (TIMESCALE 1ns)
//!   (CELL (CELLTYPE "NAND2") (INSTANCE n7)
//!     (DELAY (ABSOLUTE (IOPATH a y (12:14:16) (12:14:16))))))
//! ```
//!
//! `INSTANCE` names refer to the gate's *output net* (our gates are
//! anonymous); each `IOPATH` triple `(min:typ:max)` (or a single value)
//! contributes `[min, max]` and multiple IOPATHs of a cell are merged by
//! interval union, since the analysis needs one `[d_min, d_max]` per gate
//! (§2: only `d_max` drives the max floating-mode delay).

use crate::{Circuit, DelayInterval, NamedEdit};
use std::error::Error;
use std::fmt;

/// Errors from [`parse_sdf`] / [`apply_sdf`].
#[derive(Clone, Debug, PartialEq)]
pub enum ParseSdfError {
    /// Lexical or structural s-expression error at a byte offset.
    Syntax {
        /// Byte offset of the offending token.
        offset: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// The top-level form is not a `DELAYFILE`.
    NotADelayFile,
    /// A cell's `INSTANCE` names a net that does not exist or is not a
    /// gate output.
    UnknownInstance(String),
    /// A delay triple was malformed or negative.
    BadDelayValue(String),
}

impl fmt::Display for ParseSdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSdfError::Syntax { offset, message } => {
                write!(f, "SDF syntax error at byte {offset}: {message}")
            }
            ParseSdfError::NotADelayFile => write!(f, "top-level form is not (DELAYFILE …)"),
            ParseSdfError::UnknownInstance(n) => {
                write!(f, "INSTANCE `{n}` is not a gate output net")
            }
            ParseSdfError::BadDelayValue(v) => write!(f, "bad delay value `{v}`"),
        }
    }
}

impl Error for ParseSdfError {}

/// One parsed cell annotation: the instance (gate output net) name and the
/// merged delay interval of its IOPATHs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SdfCell {
    /// The `INSTANCE` name (interpreted as the gate's output net name).
    pub instance: String,
    /// The merged `[d_min, d_max]` of the cell's IOPATH entries.
    pub delay: DelayInterval,
}

/// A parsed delay file: design name and per-instance delays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SdfFile {
    /// The `(DESIGN "…")` name, if present.
    pub design: Option<String>,
    /// The annotated cells, in file order.
    pub cells: Vec<SdfCell>,
}

// ---- S-expression scanner -------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Sexp {
    Atom(String),
    List(Vec<Sexp>),
}

/// Maximum s-expression nesting depth accepted by the scanner (guards the
/// recursive-descent parser against stack exhaustion on hostile inputs).
const MAX_NESTING: usize = 200;

struct Scanner<'a> {
    text: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            text: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseSdfError {
        ParseSdfError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.text.len() {
            match self.text[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'/' if self.text.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < self.text.len() && self.text[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn parse(&mut self) -> Result<Sexp, ParseSdfError> {
        self.parse_at(0)
    }

    fn parse_at(&mut self, depth: usize) -> Result<Sexp, ParseSdfError> {
        if depth > MAX_NESTING {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.text.get(self.pos) {
            None => Err(self.error("unexpected end of file")),
            Some(b'(') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.text.get(self.pos) {
                        None => return Err(self.error("unclosed parenthesis")),
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(Sexp::List(items));
                        }
                        _ => items.push(self.parse_at(depth + 1)?),
                    }
                }
            }
            Some(b')') => Err(self.error("unexpected `)`")),
            Some(b'"') => {
                let start = self.pos + 1;
                let mut end = start;
                while end < self.text.len() && self.text[end] != b'"' {
                    end += 1;
                }
                if end == self.text.len() {
                    return Err(self.error("unterminated string"));
                }
                self.pos = end + 1;
                Ok(Sexp::Atom(
                    String::from_utf8_lossy(&self.text[start..end]).into_owned(),
                ))
            }
            Some(_) => {
                let start = self.pos;
                while self.pos < self.text.len()
                    && !matches!(
                        self.text[self.pos],
                        b' ' | b'\t' | b'\r' | b'\n' | b'(' | b')'
                    )
                {
                    self.pos += 1;
                }
                Ok(Sexp::Atom(
                    String::from_utf8_lossy(&self.text[start..self.pos]).into_owned(),
                ))
            }
        }
    }
}

impl Sexp {
    fn atom(&self) -> Option<&str> {
        match self {
            Sexp::Atom(s) => Some(s),
            Sexp::List(_) => None,
        }
    }

    fn list(&self) -> Option<&[Sexp]> {
        match self {
            Sexp::List(items) => Some(items),
            Sexp::Atom(_) => None,
        }
    }

    /// Whether this is a list whose head atom equals `keyword`
    /// (case-insensitive).
    fn is_form(&self, keyword: &str) -> bool {
        self.list()
            .and_then(|items| items.first())
            .and_then(Sexp::atom)
            .is_some_and(|head| head.eq_ignore_ascii_case(keyword))
    }
}

// ---- SDF interpretation ----------------------------------------------------

/// Parses a delay triple `min:typ:max` (or a single value) into a
/// [`DelayInterval`]. Values may be decimal; they are rounded to the
/// nearest integer time unit.
fn parse_triple(text: &str) -> Result<DelayInterval, ParseSdfError> {
    let parts: Vec<&str> = text.split(':').collect();
    let parse_one = |p: &str| -> Result<u32, ParseSdfError> {
        let v: f64 = p
            .trim()
            .parse()
            .map_err(|_| ParseSdfError::BadDelayValue(text.to_string()))?;
        if !(0.0..=u32::MAX as f64).contains(&v) {
            return Err(ParseSdfError::BadDelayValue(text.to_string()));
        }
        Ok(v.round() as u32)
    };
    match parts.as_slice() {
        [single] => {
            let v = parse_one(single)?;
            Ok(DelayInterval::fixed(v))
        }
        [min, _typ, max] => {
            let (lo, hi) = (parse_one(min)?, parse_one(max)?);
            if lo > hi {
                return Err(ParseSdfError::BadDelayValue(text.to_string()));
            }
            Ok(DelayInterval::new(lo, hi))
        }
        _ => Err(ParseSdfError::BadDelayValue(text.to_string())),
    }
}

fn merge(a: Option<DelayInterval>, b: DelayInterval) -> DelayInterval {
    match a {
        None => b,
        Some(a) => DelayInterval::new(a.min().min(b.min()), a.max().max(b.max())),
    }
}

/// Parses the supported SDF subset.
///
/// # Errors
///
/// Returns [`ParseSdfError`] on malformed s-expressions, a non-`DELAYFILE`
/// top form, or malformed delay values. Unknown forms inside cells are
/// skipped (SDF is full of tool-specific extensions).
///
/// # Examples
///
/// ```
/// use ltt_netlist::sdf::parse_sdf;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sdf = r#"(DELAYFILE (DESIGN "top")
///   (CELL (CELLTYPE "NAND2") (INSTANCE y)
///     (DELAY (ABSOLUTE (IOPATH a y (3:4:5))))))"#;
/// let parsed = parse_sdf(sdf)?;
/// assert_eq!(parsed.design.as_deref(), Some("top"));
/// assert_eq!(parsed.cells.len(), 1);
/// assert_eq!(parsed.cells[0].delay.max(), 5);
/// # Ok(())
/// # }
/// ```
pub fn parse_sdf(text: &str) -> Result<SdfFile, ParseSdfError> {
    let mut scanner = Scanner::new(text);
    let top = scanner.parse()?;
    if !top.is_form("DELAYFILE") {
        return Err(ParseSdfError::NotADelayFile);
    }
    let mut file = SdfFile::default();
    for form in &top.list().expect("checked")[1..] {
        if form.is_form("DESIGN") {
            if let Some(name) = form.list().and_then(|l| l.get(1)).and_then(Sexp::atom) {
                file.design = Some(name.to_string());
            }
        } else if form.is_form("CELL") {
            let items = form.list().expect("checked");
            let mut instance = None;
            let mut delay: Option<DelayInterval> = None;
            for item in &items[1..] {
                if item.is_form("INSTANCE") {
                    instance = item
                        .list()
                        .and_then(|l| l.get(1))
                        .and_then(Sexp::atom)
                        .map(str::to_string);
                } else if item.is_form("DELAY") {
                    for abs in &item.list().expect("checked")[1..] {
                        if !abs.is_form("ABSOLUTE") && !abs.is_form("INCREMENT") {
                            continue;
                        }
                        for iopath in &abs.list().expect("checked")[1..] {
                            if !iopath.is_form("IOPATH") {
                                continue;
                            }
                            // (IOPATH in out (r) (f) …): delay values are
                            // the atoms/lists after the two port names.
                            let entries = iopath.list().expect("checked");
                            for value in entries.iter().skip(3) {
                                let text = match value {
                                    Sexp::Atom(a) => a.clone(),
                                    Sexp::List(inner) => inner
                                        .iter()
                                        .filter_map(Sexp::atom)
                                        .collect::<Vec<_>>()
                                        .join(":"),
                                };
                                if text.is_empty() {
                                    continue;
                                }
                                delay = Some(merge(delay, parse_triple(&text)?));
                            }
                        }
                    }
                }
            }
            if let (Some(instance), Some(delay)) = (instance, delay) {
                file.cells.push(SdfCell { instance, delay });
            }
        }
        // Other top-level forms (SDFVERSION, TIMESCALE, …) are skipped.
    }
    Ok(file)
}

/// Back-annotates a circuit from SDF text: every cell's `INSTANCE` is
/// looked up as a gate output net and that gate's delay replaced by the
/// cell's merged interval; unannotated gates keep their delays.
///
/// # Errors
///
/// Propagates [`parse_sdf`] errors, plus [`ParseSdfError::UnknownInstance`]
/// if a cell names a net that is not a gate output.
///
/// # Examples
///
/// ```
/// use ltt_netlist::sdf::apply_sdf;
/// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("c");
/// let a = b.input("a");
/// let y = b.gate("y", GateKind::Not, &[a], DelayInterval::fixed(10));
/// b.mark_output(y);
/// let circuit = b.build()?;
///
/// let sdf = r#"(DELAYFILE (CELL (INSTANCE y)
///   (DELAY (ABSOLUTE (IOPATH a y (20:22:25))))))"#;
/// let annotated = apply_sdf(&circuit, sdf)?;
/// assert_eq!(annotated.topological_delay(), 25);
/// # Ok(())
/// # }
/// ```
pub fn apply_sdf(circuit: &Circuit, text: &str) -> Result<Circuit, ParseSdfError> {
    let file = parse_sdf(text)?;
    let edits = (file.cells.iter())
        .map(|cell| {
            let (gate, delay) = (cell.instance.as_str(), cell.delay);
            circuit
                .resolve_edit(&NamedEdit::SetDelay { gate, delay })
                .map_err(|_| ParseSdfError::UnknownInstance(cell.instance.clone()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(circuit
        .apply_edit(&edits)
        .expect("resolved delay edits")
        .circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, GateKind};

    fn two_gate_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(10));
        let y = b.gate("y", GateKind::Buffer, &[x], DelayInterval::fixed(10));
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn parses_full_skeleton() {
        let sdf = r#"
        (DELAYFILE
          (SDFVERSION "3.0")
          (DESIGN "demo")
          (TIMESCALE 1ns)
          // a comment
          (CELL (CELLTYPE "INV") (INSTANCE x)
            (DELAY (ABSOLUTE (IOPATH a x (3:4:5) (2:3:4)))))
          (CELL (CELLTYPE "BUF") (INSTANCE y)
            (DELAY (ABSOLUTE (IOPATH x y (7))))))
        "#;
        let f = parse_sdf(sdf).unwrap();
        assert_eq!(f.design.as_deref(), Some("demo"));
        assert_eq!(f.cells.len(), 2);
        // Rise/fall triples merged by union: [2, 5].
        assert_eq!(f.cells[0].delay, DelayInterval::new(2, 5));
        assert_eq!(f.cells[1].delay, DelayInterval::fixed(7));
    }

    #[test]
    fn apply_reannotates_and_preserves_structure() {
        let c = two_gate_circuit();
        let sdf = r#"(DELAYFILE
          (CELL (INSTANCE x) (DELAY (ABSOLUTE (IOPATH a x (30)))))
        )"#;
        let r = apply_sdf(&c, sdf).unwrap();
        assert_eq!(r.topological_delay(), 40); // 30 + 10 (y unannotated)
        assert_eq!(r.num_gates(), c.num_gates());
        assert_eq!(r.evaluate(&[true]), c.evaluate(&[true]));
    }

    #[test]
    fn unknown_instance_rejected() {
        let c = two_gate_circuit();
        let sdf = r#"(DELAYFILE (CELL (INSTANCE ghost)
            (DELAY (ABSOLUTE (IOPATH a b (1))))))"#;
        assert!(matches!(
            apply_sdf(&c, sdf),
            Err(ParseSdfError::UnknownInstance(n)) if n == "ghost"
        ));
        // A primary input is also not a valid instance.
        let sdf = r#"(DELAYFILE (CELL (INSTANCE a)
            (DELAY (ABSOLUTE (IOPATH a b (1))))))"#;
        assert!(matches!(
            apply_sdf(&c, sdf),
            Err(ParseSdfError::UnknownInstance(_))
        ));
    }

    #[test]
    fn syntax_errors_are_located() {
        assert!(matches!(
            parse_sdf("(DELAYFILE (CELL"),
            Err(ParseSdfError::Syntax { .. })
        ));
        assert!(matches!(
            parse_sdf("(NOTADELAYFILE)"),
            Err(ParseSdfError::NotADelayFile)
        ));
        assert!(matches!(
            parse_sdf(
                r#"(DELAYFILE (CELL (INSTANCE x)
                (DELAY (ABSOLUTE (IOPATH a x (1:2))))))"#
            ),
            Err(ParseSdfError::BadDelayValue(_))
        ));
        assert!(matches!(
            parse_sdf(
                r#"(DELAYFILE (CELL (INSTANCE x)
                (DELAY (ABSOLUTE (IOPATH a x (5:4:3))))))"#
            ),
            Err(ParseSdfError::BadDelayValue(_))
        ));
    }

    #[test]
    fn decimal_values_round() {
        let sdf = r#"(DELAYFILE (CELL (INSTANCE x)
            (DELAY (ABSOLUTE (IOPATH a x (1.4:2.0:2.6))))))"#;
        let f = parse_sdf(sdf).unwrap();
        assert_eq!(f.cells[0].delay, DelayInterval::new(1, 3));
    }

    #[test]
    fn annotated_timing_flows_into_verification() {
        // End-to-end: re-annotate, the timing analysis follows.
        let c = two_gate_circuit();
        assert_eq!(c.topological_delay(), 20);
        let sdf = r#"(DELAYFILE
          (CELL (INSTANCE x) (DELAY (ABSOLUTE (IOPATH a x (100)))))
          (CELL (INSTANCE y) (DELAY (ABSOLUTE (IOPATH x y (50))))))"#;
        let r = apply_sdf(&c, sdf).unwrap();
        assert_eq!(r.topological_delay(), 150);
        assert_eq!(
            r.gate(r.net(r.net_by_name("x").unwrap()).driver().unwrap())
                .dmax(),
            100
        );
    }
}
