//! The flatd wire protocol: length-prefixed JSONL frames and a bitwise
//! value encoding.
//!
//! ## Framing
//!
//! Every frame is a 4-byte big-endian length `n` followed by exactly
//! `n` bytes of UTF-8 JSON ending in a single `'\n'` (so a captured
//! stream with the prefixes stripped is a valid JSONL file). Frames
//! larger than the receiver's limit are a protocol error: the receiver
//! answers with a structured `toobig` error and closes the connection
//! (the stream cannot be resynchronized without trusting the oversized
//! length).
//!
//! ## Value encoding
//!
//! Results must round-trip **bitwise** — the acceptance bar is equality
//! with a local `flatc exec --backend vm` run down to the float bit
//! patterns, which decimal JSON cannot guarantee. Scalars and array
//! buffers therefore travel as hex-encoded little-endian bit patterns
//! (`f32` via `to_bits`, one byte per `bool`), the same convention the
//! perf archive uses for its `{v, bits}` floats. Large arrays are
//! streamed as a `result` header frame followed by `result-chunk`
//! frames carrying bounded slices of the hex text, so one result can
//! exceed the frame limit without one frame ever doing so.
//!
//! ## Errors
//!
//! Error frames are `{"type":"error","code":C,"message":M}`. Codes map
//! onto `flatc`'s exit-code taxonomy where one exists — `parse` → 2,
//! `type` → 3, `lint` → 4 — and to exit 1 for the service-level codes
//! (`fail`, `busy`, `deadline`, `toobig`, `proto`, `unknown-program`,
//! `shutdown`).

use flat_ir::ast::Const;
use flat_ir::types::ScalarType;
use flat_ir::value::{ArrayVal, Buffer, Value as IrValue};
use flat_obs::json::Value;
use std::io::{self, Read, Write};

/// Default per-frame byte limit (length prefix excluded).
pub const MAX_FRAME: usize = 16 << 20;

/// Default hex characters per `result-chunk` frame (1 MiB of text,
/// half that in raw bytes).
pub const CHUNK_HEX: usize = 1 << 20;

/// A structured service error: a stable machine code plus a
/// human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceError {
    pub code: String,
    pub message: String,
}

impl ServiceError {
    pub fn new(code: &str, message: impl Into<String>) -> ServiceError {
        ServiceError { code: code.to_string(), message: message.into() }
    }

    /// The exit code a CLI should terminate with for this error —
    /// `flatc`'s taxonomy: 2 parse, 3 type, 4 lint, 1 anything else.
    pub fn exit_code(&self) -> u8 {
        match self.code.as_str() {
            "parse" => 2,
            "type" => 3,
            "lint" => 4,
            _ => 1,
        }
    }

    pub fn to_frame(&self) -> Value {
        Value::object(vec![
            ("type", Value::from("error")),
            ("code", Value::from(self.code.as_str())),
            ("message", Value::from(self.message.as_str())),
        ])
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream before any length byte.
    Eof,
    /// I/O failure (including mid-frame disconnects).
    Io(io::Error),
    /// The sender declared a frame longer than the receiver's limit.
    TooBig(usize),
    /// The payload was not a single valid JSON document.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooBig(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

/// Write one frame: 4-byte big-endian length, then the JSON text plus a
/// trailing newline.
pub fn write_frame(w: &mut impl Write, v: &Value) -> io::Result<()> {
    let mut text = flat_obs::json::to_string(v)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    text.push('\n');
    let len = text.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one frame, enforcing `max` bytes. A clean EOF before the first
/// length byte is [`FrameError::Eof`]; EOF inside the prefix or payload
/// is a mid-stream disconnect and surfaces as [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Value, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "disconnect inside frame length",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::TooBig(len));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    let text = String::from_utf8(buf)
        .map_err(|e| FrameError::Malformed(format!("invalid utf-8: {e}")))?;
    flat_obs::json::from_str(text.trim_end_matches('\n'))
        .map_err(|e| FrameError::Malformed(e.to_string()))
}

fn push_hex(out: &mut String, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
}

fn hex_of(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    push_hex(&mut s, bytes);
    s
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    let nib = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex byte {c:#x}")),
        }
    };
    let b = s.as_bytes();
    (0..s.len() / 2)
        .map(|i| Ok(nib(b[2 * i])? << 4 | nib(b[2 * i + 1])?))
        .collect()
}

fn scalar_type_name(t: ScalarType) -> &'static str {
    match t {
        ScalarType::I32 => "i32",
        ScalarType::I64 => "i64",
        ScalarType::F32 => "f32",
        ScalarType::F64 => "f64",
        ScalarType::Bool => "bool",
    }
}

fn scalar_type_of(name: &str) -> Result<ScalarType, String> {
    match name {
        "i32" => Ok(ScalarType::I32),
        "i64" => Ok(ScalarType::I64),
        "f32" => Ok(ScalarType::F32),
        "f64" => Ok(ScalarType::F64),
        "bool" => Ok(ScalarType::Bool),
        other => Err(format!("unknown element type `{other}`")),
    }
}

fn const_bits(c: Const) -> (&'static str, String) {
    match c {
        Const::I32(v) => ("i32", hex_of(&v.to_le_bytes())),
        Const::I64(v) => ("i64", hex_of(&v.to_le_bytes())),
        Const::F32(v) => ("f32", hex_of(&v.to_bits().to_le_bytes())),
        Const::F64(v) => ("f64", hex_of(&v.to_bits().to_le_bytes())),
        Const::Bool(v) => ("bool", hex_of(&[v as u8])),
    }
}

fn const_of_bits(t: &str, bits: &str) -> Result<Const, String> {
    let raw = unhex(bits)?;
    let want = |n: usize| -> Result<(), String> {
        if raw.len() == n {
            Ok(())
        } else {
            Err(format!("{t} wants {n} bytes, got {}", raw.len()))
        }
    };
    match t {
        "i32" => {
            want(4)?;
            Ok(Const::I32(i32::from_le_bytes(raw.try_into().unwrap())))
        }
        "i64" => {
            want(8)?;
            Ok(Const::I64(i64::from_le_bytes(raw.try_into().unwrap())))
        }
        "f32" => {
            want(4)?;
            Ok(Const::F32(f32::from_bits(u32::from_le_bytes(raw.try_into().unwrap()))))
        }
        "f64" => {
            want(8)?;
            Ok(Const::F64(f64::from_bits(u64::from_le_bytes(raw.try_into().unwrap()))))
        }
        "bool" => {
            want(1)?;
            Ok(Const::Bool(raw[0] != 0))
        }
        other => Err(format!("unknown scalar type `{other}`")),
    }
}

/// Bitwise value equality: shapes, element types, and the exact bit
/// patterns of every element — so `NaN == NaN` and `-0.0 != 0.0`. This
/// is the predicate behind the "remote results are bitwise identical to
/// a local run" guarantee.
pub fn bitwise_eq(a: &IrValue, b: &IrValue) -> bool {
    match (a, b) {
        (IrValue::Scalar(x), IrValue::Scalar(y)) => const_bits(*x) == const_bits(*y),
        (IrValue::Array(x), IrValue::Array(y)) => {
            x.shape == y.shape && buffer_bits(&x.data) == buffer_bits(&y.data)
        }
        _ => false,
    }
}

/// Serialize a buffer as `(element type name, hex of little-endian
/// element bit patterns)`.
pub fn buffer_bits(buf: &Buffer) -> (&'static str, String) {
    match buf {
        Buffer::I32(xs) => {
            let mut s = String::with_capacity(xs.len() * 8);
            for x in xs {
                push_hex(&mut s, &x.to_le_bytes());
            }
            ("i32", s)
        }
        Buffer::I64(xs) => {
            let mut s = String::with_capacity(xs.len() * 16);
            for x in xs {
                push_hex(&mut s, &x.to_le_bytes());
            }
            ("i64", s)
        }
        Buffer::F32(xs) => {
            let mut s = String::with_capacity(xs.len() * 8);
            for x in xs {
                push_hex(&mut s, &x.to_bits().to_le_bytes());
            }
            ("f32", s)
        }
        Buffer::F64(xs) => {
            let mut s = String::with_capacity(xs.len() * 16);
            for x in xs {
                push_hex(&mut s, &x.to_bits().to_le_bytes());
            }
            ("f64", s)
        }
        Buffer::Bool(xs) => {
            let mut s = String::with_capacity(xs.len() * 2);
            for &x in xs {
                push_hex(&mut s, &[x as u8]);
            }
            ("bool", s)
        }
    }
}

/// Rebuild a buffer from [`buffer_bits`] output.
pub fn buffer_of_bits(elem: ScalarType, bits: &str) -> Result<Buffer, String> {
    let raw = unhex(bits)?;
    let chunks = |n: usize| -> Result<Vec<&[u8]>, String> {
        if raw.len() % n != 0 {
            return Err(format!("buffer bytes not a multiple of {n}"));
        }
        Ok(raw.chunks(n).collect())
    };
    Ok(match elem {
        ScalarType::I32 => Buffer::I32(
            chunks(4)?.into_iter().map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect(),
        ),
        ScalarType::I64 => Buffer::I64(
            chunks(8)?.into_iter().map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect(),
        ),
        ScalarType::F32 => Buffer::F32(
            chunks(4)?
                .into_iter()
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                .collect(),
        ),
        ScalarType::F64 => Buffer::F64(
            chunks(8)?
                .into_iter()
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect(),
        ),
        ScalarType::Bool => Buffer::Bool(raw.into_iter().map(|b| b != 0).collect()),
    })
}

/// The header frame for result `index`, plus the hex payload to stream
/// after it (empty for scalars, whose bits ride in the header).
pub fn result_header(index: usize, v: &IrValue) -> (Value, String) {
    match v {
        IrValue::Scalar(c) => {
            let (t, bits) = const_bits(*c);
            (
                Value::object(vec![
                    ("type", Value::from("result")),
                    ("index", Value::from(index as u64)),
                    ("k", Value::from("scalar")),
                    ("t", Value::from(t)),
                    ("bits", Value::from(bits)),
                    ("chunks", Value::from(0u64)),
                ]),
                String::new(),
            )
        }
        IrValue::Array(av) => {
            let (elem, bits) = buffer_bits(&av.data);
            // A zero-extent array has no payload: announce no chunks, or
            // the receiver waits for one that never comes.
            let chunks = bits.len().div_ceil(CHUNK_HEX);
            (
                Value::object(vec![
                    ("type", Value::from("result")),
                    ("index", Value::from(index as u64)),
                    ("k", Value::from("array")),
                    ("elem", Value::from(elem)),
                    (
                        "shape",
                        Value::Array(av.shape.iter().map(|&d| Value::from(d)).collect()),
                    ),
                    ("chunks", Value::from(chunks as u64)),
                ]),
                bits,
            )
        }
    }
}

/// The frame sequence delivering one result value: the header frame,
/// then `chunks` `result-chunk` frames of at most [`CHUNK_HEX`] hex
/// characters each.
pub fn result_frames(index: usize, v: &IrValue) -> Vec<Value> {
    let (header, bits) = result_header(index, v);
    let mut frames = vec![header];
    for seq in 0..bits.len().div_ceil(CHUNK_HEX) {
        let lo = seq * CHUNK_HEX;
        let hi = ((seq + 1) * CHUNK_HEX).min(bits.len());
        frames.push(Value::object(vec![
            ("type", Value::from("result-chunk")),
            ("index", Value::from(index as u64)),
            ("seq", Value::from(seq as u64)),
            ("data", Value::from(&bits[lo..hi])),
        ]));
    }
    frames
}

/// Stream one result value directly to a writer.
pub fn write_result(w: &mut impl Write, index: usize, v: &IrValue) -> io::Result<()> {
    for frame in result_frames(index, v) {
        write_frame(w, &frame)?;
    }
    Ok(())
}

/// A partially received streamed result; feed the header then each
/// chunk, then [`ResultAssembly::finish`].
pub struct ResultAssembly {
    pub index: usize,
    kind: AssemblyKind,
    chunks_left: usize,
    bits: String,
}

enum AssemblyKind {
    Scalar(Const),
    Array { shape: Vec<i64>, elem: ScalarType },
}

impl ResultAssembly {
    /// Parse a `result` header frame.
    pub fn from_header(v: &Value) -> Result<ResultAssembly, String> {
        let index = v
            .get("index")
            .and_then(Value::as_u64)
            .ok_or("result frame missing index")? as usize;
        let chunks =
            v.get("chunks").and_then(Value::as_u64).ok_or("result frame missing chunks")?
                as usize;
        match v.get("k").and_then(Value::as_str) {
            Some("scalar") => {
                let t = v.get("t").and_then(Value::as_str).ok_or("scalar result missing t")?;
                let bits =
                    v.get("bits").and_then(Value::as_str).ok_or("scalar result missing bits")?;
                Ok(ResultAssembly {
                    index,
                    kind: AssemblyKind::Scalar(const_of_bits(t, bits)?),
                    chunks_left: 0,
                    bits: String::new(),
                })
            }
            Some("array") => {
                let elem = scalar_type_of(
                    v.get("elem").and_then(Value::as_str).ok_or("array result missing elem")?,
                )?;
                let shape: Vec<i64> = v
                    .get("shape")
                    .and_then(Value::as_array)
                    .ok_or("array result missing shape")?
                    .iter()
                    .map(|d| d.as_i64().ok_or("bad shape dim".to_string()))
                    .collect::<Result<_, _>>()?;
                Ok(ResultAssembly {
                    index,
                    kind: AssemblyKind::Array { shape, elem },
                    chunks_left: chunks,
                    bits: String::new(),
                })
            }
            other => Err(format!("bad result kind {other:?}")),
        }
    }

    pub fn needs_chunks(&self) -> bool {
        self.chunks_left > 0
    }

    /// Feed the next `result-chunk` frame.
    pub fn push_chunk(&mut self, v: &Value) -> Result<(), String> {
        if self.chunks_left == 0 {
            return Err("unexpected result-chunk".into());
        }
        let data =
            v.get("data").and_then(Value::as_str).ok_or("result-chunk missing data")?;
        self.bits.push_str(data);
        self.chunks_left -= 1;
        Ok(())
    }

    pub fn finish(self) -> Result<IrValue, String> {
        if self.chunks_left > 0 {
            return Err(format!("{} chunk(s) missing", self.chunks_left));
        }
        match self.kind {
            AssemblyKind::Scalar(c) => Ok(IrValue::Scalar(c)),
            AssemblyKind::Array { shape, elem } => {
                let data = buffer_of_bits(elem, &self.bits)?;
                let want: i64 = shape.iter().product();
                if data.len() as i64 != want {
                    return Err(format!(
                        "array bits carry {} elements, shape wants {want}",
                        data.len()
                    ));
                }
                Ok(IrValue::Array(ArrayVal { shape, data }))
            }
        }
    }
}

/// One `--arg` spec; the grammar is `gpu_sim::AbsValue`'s `FromStr`.
pub fn parse_abs_value(spec: &str) -> Result<gpu_sim::AbsValue, String> {
    spec.parse()
}

/// Shorthand: the name of a scalar type as it appears on the wire.
pub fn elem_name(t: ScalarType) -> &'static str {
    scalar_type_name(t)
}

/// Render an abstract value back into the `--arg` spec grammar
/// [`parse_abs_value`] accepts, so existing datasets (benchmark specs,
/// tuning datasets) can be replayed over the wire. Floats use `{:?}` to
/// keep the decimal point (`1.0`, not `1`, which would re-parse as an
/// i64 scalar). Unknown scalars and non-`i64`/`f32` scalar types have
/// no spec form and error.
pub fn abs_value_spec(v: &gpu_sim::AbsValue) -> Result<String, String> {
    match v {
        gpu_sim::AbsValue::Scalar(Some(Const::I64(n))) => Ok(format!("{n}")),
        gpu_sim::AbsValue::Scalar(Some(Const::F32(x))) => Ok(format!("{x:?}")),
        gpu_sim::AbsValue::Scalar(other) => {
            Err(format!("scalar {other:?} has no --arg spec form"))
        }
        gpu_sim::AbsValue::Array { shape, elem, .. } => {
            let mut s = String::new();
            for d in shape {
                s.push_str(&format!("[{d}]"));
            }
            s.push_str(scalar_type_name(*elem));
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let bytes = [0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(unhex(&hex_of(&bytes)).unwrap(), bytes);
        assert!(unhex("0").is_err());
        assert!(unhex("zz").is_err());
    }

    #[test]
    fn scalar_bits_round_trip() {
        for c in [
            Const::I32(-7),
            Const::I64(i64::MIN),
            Const::F32(f32::NAN),
            Const::F64(-0.0),
            Const::Bool(true),
        ] {
            let (t, bits) = const_bits(c);
            let back = const_of_bits(t, &bits).unwrap();
            // Compare bit patterns, not values: NaN != NaN.
            assert_eq!(const_bits(back), (t, bits));
        }
    }

    #[test]
    fn buffer_bits_round_trip() {
        let buf = Buffer::F32(vec![0.0, -0.0, f32::NAN, 1.5e-40]);
        let (elem, bits) = buffer_bits(&buf);
        let back = buffer_of_bits(scalar_type_of(elem).unwrap(), &bits).unwrap();
        assert_eq!(buffer_bits(&back), (elem, bits));
    }

    #[test]
    fn frame_round_trip_and_limits() {
        let v = Value::object(vec![("type", Value::from("status"))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let mut r = &buf[..];
        let got = read_frame(&mut r, MAX_FRAME).unwrap();
        assert_eq!(got.get("type").and_then(Value::as_str), Some("status"));
        assert!(matches!(read_frame(&mut r, MAX_FRAME), Err(FrameError::Eof)));

        // Oversized declared length.
        let mut big = Vec::new();
        big.extend_from_slice(&(64u32).to_be_bytes());
        big.extend_from_slice(&[b' '; 64]);
        assert!(matches!(read_frame(&mut &big[..], 16), Err(FrameError::TooBig(64))));

        // Mid-stream disconnect: payload shorter than declared.
        let mut cut = Vec::new();
        cut.extend_from_slice(&(10u32).to_be_bytes());
        cut.extend_from_slice(b"{}");
        assert!(matches!(read_frame(&mut &cut[..], MAX_FRAME), Err(FrameError::Io(_))));

        // Malformed payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(4u32).to_be_bytes());
        bad.extend_from_slice(b"nope");
        assert!(matches!(read_frame(&mut &bad[..], MAX_FRAME), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn streamed_value_round_trip() {
        let v = IrValue::Array(ArrayVal {
            shape: vec![2, 3],
            data: Buffer::I64(vec![1, -2, 3, -4, 5, -6]),
        });
        let mut wire = Vec::new();
        write_result(&mut wire, 0, &v).unwrap();
        let mut r = &wire[..];
        let header = read_frame(&mut r, MAX_FRAME).unwrap();
        let mut asm = ResultAssembly::from_header(&header).unwrap();
        while asm.needs_chunks() {
            let chunk = read_frame(&mut r, MAX_FRAME).unwrap();
            asm.push_chunk(&chunk).unwrap();
        }
        assert_eq!(asm.finish().unwrap(), v);
    }

    #[test]
    fn abs_value_spec_round_trips() {
        let cases = vec![
            gpu_sim::AbsValue::known(Const::I64(4096)),
            gpu_sim::AbsValue::known(Const::F32(1.0)),
            gpu_sim::AbsValue::known(Const::F32(3.5)),
            gpu_sim::AbsValue::array(vec![16, 256], ScalarType::F32),
            gpu_sim::AbsValue::array(vec![8], ScalarType::I64),
            gpu_sim::AbsValue::array(vec![2, 3, 4], ScalarType::Bool),
        ];
        for v in cases {
            let spec = abs_value_spec(&v).unwrap();
            assert_eq!(parse_abs_value(&spec).unwrap(), v, "spec `{spec}`");
            assert_eq!(spec.parse::<gpu_sim::AbsValue>().unwrap(), v, "spec `{spec}`");
        }
        assert!(abs_value_spec(&gpu_sim::AbsValue::unknown()).is_err());
    }
}
