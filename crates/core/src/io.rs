//! Save / load quantized models.
//!
//! A deployed Deep Positron instance is *defined* by its format and its
//! weight/bias bit patterns — exactly what a bitstream generator or an
//! embedded runtime needs. This module serializes a [`QuantizedMlp`] to a
//! small line-oriented text format (stable, diffable, no external
//! dependencies):
//!
//! ```text
//! deep-positron-model v1
//! format posit 8 0
//! dims 4 8 3
//! layer 0
//! w 40 2c ...        # one line per neuron, hex patterns
//! b 12 ...
//! ```

use crate::format::NumericFormat;
use crate::quantized::{QuantizedLayer, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Error from parsing a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    line: usize,
    message: String,
}

impl ParseModelError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseModelError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseModelError {}

/// Serializes a quantized model to the v1 text format.
pub fn to_string(model: &QuantizedMlp) -> String {
    let mut s = String::from("deep-positron-model v1\n");
    s.push_str(&format!("format {}\n", format_tag(&model.format)));
    let dims: Vec<String> = model.dims().iter().map(|d| d.to_string()).collect();
    s.push_str(&format!("dims {}\n", dims.join(" ")));
    for (i, layer) in model.layers.iter().enumerate() {
        s.push_str(&format!("layer {i}\n"));
        for row in layer.weight_rows() {
            let hex: Vec<String> = row.iter().map(|w| format!("{w:x}")).collect();
            s.push_str(&format!("w {}\n", hex.join(" ")));
        }
        let hex: Vec<String> = layer.biases().iter().map(|b| format!("{b:x}")).collect();
        s.push_str(&format!("b {}\n", hex.join(" ")));
    }
    s
}

/// Parses the v1 text format back into a model.
///
/// # Errors
///
/// Returns [`ParseModelError`] on malformed input (bad magic, unknown
/// format tag, inconsistent shapes, non-hex patterns).
pub fn from_str(text: &str) -> Result<QuantizedMlp, ParseModelError> {
    let mut lines = text.lines().enumerate();
    let (n, magic) = lines
        .next()
        .ok_or_else(|| ParseModelError::new(0, "empty input"))?;
    if magic.trim() != "deep-positron-model v1" {
        return Err(ParseModelError::new(n + 1, "bad magic line"));
    }
    let (n, fmt_line) = lines
        .next()
        .ok_or_else(|| ParseModelError::new(2, "missing format line"))?;
    let format = parse_format(fmt_line).map_err(|m| ParseModelError::new(n + 1, m))?;
    let (n, dims_line) = lines
        .next()
        .ok_or_else(|| ParseModelError::new(3, "missing dims line"))?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| ParseModelError::new(n + 1, "expected `dims ...`"))?
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| ParseModelError::new(n + 1, format!("bad dim: {e}")))?;
    if dims.len() < 2 {
        return Err(ParseModelError::new(n + 1, "need at least two dims"));
    }

    let mut layers = Vec::new();
    for li in 0..dims.len() - 1 {
        let (fan_in, fan_out) = (dims[li], dims[li + 1]);
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseModelError::new(0, format!("missing layer {li}")))?;
        if header.trim() != format!("layer {li}") {
            return Err(ParseModelError::new(
                n + 1,
                format!("expected `layer {li}`"),
            ));
        }
        // Each weight takes at least one byte of the rows that follow, so a
        // declared layer larger than the rest of the input is rejected
        // before anything is reserved for it.
        let entries = fan_in
            .checked_mul(fan_out)
            .filter(|&e| e <= rest_len(text, header))
            .ok_or_else(|| {
                ParseModelError::new(
                    n + 1,
                    format!("layer {li}: {fan_in} x {fan_out} weights cannot fit the input"),
                )
            })?;
        let mut weights = Vec::with_capacity(entries);
        for _ in 0..fan_out {
            let (n, wline) = lines
                .next()
                .ok_or_else(|| ParseModelError::new(0, "missing weight row"))?;
            let row =
                parse_hex_row(wline, "w ", fan_in).map_err(|m| ParseModelError::new(n + 1, m))?;
            weights.extend_from_slice(&row);
        }
        let (n, bline) = lines
            .next()
            .ok_or_else(|| ParseModelError::new(0, "missing bias row"))?;
        let biases =
            parse_hex_row(bline, "b ", fan_out).map_err(|m| ParseModelError::new(n + 1, m))?;
        layers.push(QuantizedLayer::new(fan_in, fan_out, weights, biases));
    }
    Ok(QuantizedMlp { format, layers })
}

/// Writes a model to a file (v1 text format).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save<P: AsRef<Path>>(model: &QuantizedMlp, path: P) -> io::Result<()> {
    fs::write(path, to_string(model))
}

/// Reads a model from a file.
///
/// # Errors
///
/// Returns an `io::Error` for filesystem problems; parse failures are
/// wrapped as `InvalidData`.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<QuantizedMlp> {
    let text = fs::read_to_string(path)?;
    from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn format_tag(f: &NumericFormat) -> String {
    match f {
        NumericFormat::F32 => "f32".into(),
        NumericFormat::Posit(p) => format!("posit {} {}", p.n(), p.es()),
        NumericFormat::Float(p) => format!("float {} {}", p.we(), p.wf()),
        NumericFormat::Fixed(p) => format!("fixed {} {}", p.n(), p.q()),
    }
}

fn parse_format(line: &str) -> Result<NumericFormat, String> {
    let rest = line
        .strip_prefix("format ")
        .ok_or("expected `format ...`")?;
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let num = |t: &str| t.parse::<u32>().map_err(|e| format!("bad number: {e}"));
    match toks.as_slice() {
        ["f32"] => Ok(NumericFormat::F32),
        ["posit", n, es] => PositFormat::new(num(n)?, num(es)?)
            .map(NumericFormat::Posit)
            .map_err(|e| e.to_string()),
        ["float", we, wf] => FloatFormat::new(num(we)?, num(wf)?)
            .map(NumericFormat::Float)
            .map_err(|e| e.to_string()),
        ["fixed", n, q] => FixedFormat::new(num(n)?, num(q)?)
            .map(NumericFormat::Fixed)
            .map_err(|e| e.to_string()),
        _ => Err(format!("unknown format tag `{rest}`")),
    }
}

/// Bytes of `text` after `line`, a line borrowed from it.
fn rest_len(text: &str, line: &str) -> usize {
    let end = line.as_ptr() as usize - text.as_ptr() as usize + line.len();
    text.len() - end
}

fn parse_hex_row(line: &str, prefix: &str, expect: usize) -> Result<Vec<u32>, String> {
    let rest = line
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected `{prefix}...`"))?;
    let row: Vec<u32> = rest
        .split_whitespace()
        .map(|t| u32::from_str_radix(t, 16).map_err(|e| format!("bad hex `{t}`: {e}")))
        .collect::<Result<_, _>>()?;
    if row.len() != expect {
        return Err(format!("expected {expect} entries, got {}", row.len()));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;

    fn model() -> QuantizedMlp {
        let mlp = Mlp::new(&[3, 4, 2], 77);
        QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 1).unwrap()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = model();
        let text = to_string(&m);
        let back = from_str(&text).expect("parse");
        assert_eq!(back.format, m.format);
        assert_eq!(back.dims(), m.dims());
        for (a, b) in m.layers.iter().zip(&back.layers) {
            assert_eq!(a, b);
        }
        // And it still infers identically.
        let x = [0.3, 0.6, 0.9];
        assert_eq!(m.infer(&x), back.infer(&x));
    }

    #[test]
    fn roundtrip_all_format_families() {
        let mlp = Mlp::new(&[2, 2], 5);
        for fmt in [
            NumericFormat::F32,
            NumericFormat::Posit(PositFormat::new(6, 0).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        ] {
            let m = QuantizedMlp::quantize(&mlp, fmt);
            let back = from_str(&to_string(&m)).expect("parse");
            assert_eq!(back.format, fmt);
            assert_eq!(back.layers[0].weights(), m.layers[0].weights());
        }
    }

    #[test]
    fn file_roundtrip() {
        let m = model();
        let path = std::env::temp_dir().join("dp_model_io_test.dpm");
        save(&m, &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back.layers[0].biases(), m.layers[0].biases());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong magic").is_err());
        let e = from_str("deep-positron-model v1\nformat posit 99 0\ndims 2 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = from_str("deep-positron-model v1\nformat f32\ndims 2\n").unwrap_err();
        assert!(e.to_string().contains("two dims"));
        // Wrong row width.
        let text = "deep-positron-model v1\nformat f32\ndims 2 1\nlayer 0\nw 1\nb 1\n";
        assert!(from_str(text).is_err());
        // Bad hex.
        let text = "deep-positron-model v1\nformat f32\ndims 1 1\nlayer 0\nw zz\nb 1\n";
        assert!(from_str(text).is_err());
    }

    #[test]
    fn oversized_layer_declarations_are_rejected_before_reserving() {
        // A 73-byte file declaring 10^16 weights is a located parse error,
        // not an allocation that aborts the process.
        let text = "deep-positron-model v1\nformat posit 8 0\ndims 100000000000 100000\nlayer 0\n";
        let e = from_str(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("cannot fit"), "{e}");
        // A weight count that overflows usize is the same error.
        let text = format!(
            "deep-positron-model v1\nformat f32\ndims {} 2\nlayer 0\n",
            usize::MAX
        );
        assert!(from_str(&text)
            .unwrap_err()
            .to_string()
            .contains("cannot fit"));
        // A layer that fits its input still parses.
        let text = "deep-positron-model v1\nformat f32\ndims 2 1\nlayer 0\nw 1 2\nb 3\n";
        assert_eq!(from_str(text).unwrap().layers[0].fan_in(), 2);
    }

    #[test]
    fn format_is_human_auditable() {
        let text = to_string(&model());
        assert!(text.starts_with("deep-positron-model v1\n"));
        assert!(text.contains("format posit 8 1"));
        assert!(text.contains("dims 3 4 2"));
        assert!(text.contains("layer 1"));
    }
}
