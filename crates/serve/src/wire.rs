//! The wire layer: the length-prefixed binary format, the
//! [`SnapshotBlob`] snapshots travel in, and the [`Framer`] that splits
//! a connection's bytes into messages.
//!
//! NDJSON (see [`crate::proto`]) is kept as the debug protocol; the
//! binary format is the production framing the reactor and the
//! [`crate::Client`] default to. Which of the two a connection speaks,
//! and how its bytes become messages and its messages bytes, is decided
//! here alone: the reactor, the router frontend and the `Client` each
//! hold one [`Framer`]. A frame is:
//!
//! ```text
//! offset 0   u8   MAGIC (0xB5 — never a valid NDJSON first byte)
//! offset 1   u8   code: request opcode (0x01–0x0E) or
//!                 response status (0x81–0x8C, 0xEF = error)
//! offset 2   u32  payload length, little-endian (≤ MAX_FRAME)
//! offset 6   …    payload: the message body
//! ```
//!
//! Every payload but one is the binary value encoding of the *same
//! serde [`Value`] tree* the NDJSON protocol serializes, minus the
//! discriminator field (`"op"` / `"ok"`) that the code byte replaces.
//! Decoding such a frame yields exactly the [`Request`]/[`Response`] an
//! equivalent NDJSON line would — the differential e2e test pins this,
//! and it is what makes work counters provably identical across the
//! two protocols.
//!
//! The exception is a replay submit ([`Work::Replay`]), which travels
//! under opcode 0x0E in a fixed layout that decodes straight into its
//! edges, 4 bytes per request, with no value tree in between. It
//! decodes to a [`Request`] equal to the NDJSON line's (a 0x02 frame
//! carrying a `requests` array still decodes as well):
//!
//! ```text
//! offset 0   u64  session
//! offset 8   u32  count
//! offset 12  …    count × u32 edge ids (nothing after the last)
//! ```
//!
//! Value encoding (tag byte, then payload; integers little-endian):
//!
//! ```text
//! 0x00 null            0x01 false           0x02 true
//! 0x03 uint  (u64)     0x04 int   (i64)     0x05 float (f64 bits)
//! 0x06 str   (u32 len + UTF-8 bytes)
//! 0x07 arr   (u32 count + elements)
//! 0x08 obj   (u32 count + (u32 key len + key bytes + value)*)
//! 0x09 f64 column       (u32 count + count × 8 bytes)
//! 0x0A unsigned column  (u32 count + u8 width + count × width bytes)
//! ```
//!
//! A numeric array travels as a packed column of raw numbers, not as
//! one tagged node per element. The packing is canonical: every
//! non-empty [`Value::Arr`] whose elements are all floats or all
//! unsigned integers is packed, and an unsigned column takes the
//! narrowest width (1, 2, 4 or 8 bytes) that holds its largest element.
//! So equal values encode to equal bytes, and a column decodes back to
//! the `Arr` it was packed from. Empty arrays stay 0x07.
//!
//! Snapshots leave the worker that owns a session as bytes: the
//! `snapshot` field of a `restore` request and of a `snapshot` response
//! is a [`SnapshotBlob`], the value encoding of
//! [`crate::Session::snapshot`]'s tree. Encoding splices the blob in
//! where the tree's encoding would go, so those frames are
//! byte-identical to encoding the tree. Decoding cuts it back out after
//! a skip walk that checks it under the value decoder's rules, so a
//! router stores and forwards snapshots without ever building one; only
//! NDJSON renders the tree.
//!
//! Robustness rules (enforced on both encodings): frames and NDJSON
//! lines larger than [`MAX_FRAME`] are rejected with a protocol error
//! instead of growing buffers without bound; nesting deeper than
//! [`MAX_DEPTH`] is rejected (a tiny frame must not be able to
//! overflow the decoder's stack), and a non-empty column counts as an
//! array whose elements sit one level deeper; declared lengths are
//! validated against the bytes actually present before any allocation;
//! a column width other than 1, 2, 4 or 8 is refused.

use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_model::Edge;

use crate::manager::Work;
use crate::proto::{Request, Response};

/// First byte of every binary frame. Chosen to be invalid as the first
/// byte of NDJSON (`{`, whitespace, or any ASCII JSON start), which is
/// what lets the server auto-detect the protocol per connection.
pub const MAGIC: u8 = 0xB5;

/// Bytes in a frame header: magic, code, u32 payload length.
pub const HEADER_LEN: usize = 6;

/// Upper bound on one frame's payload — and on one NDJSON line. Large
/// enough for any snapshot the session layer produces, small enough
/// that a hostile length prefix cannot OOM the server.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Maximum nesting depth the binary value decoder accepts.
pub const MAX_DEPTH: u32 = 96;

/// A framing/codec violation. [`WireError::Fatal`] means the stream
/// can no longer be trusted (bad magic, oversized length) and the
/// connection must close after the error reply; [`WireError::Frame`]
/// is confined to one well-delimited frame, so the connection stays
/// usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream is desynchronized or abusive; close after replying.
    Fatal(String),
    /// One frame was malformed; later frames are unaffected.
    Frame(String),
}

impl WireError {
    /// The human-readable description (what goes in the error reply).
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            WireError::Fatal(m) | WireError::Frame(m) => m,
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "wire error: {}", self.message())
    }
}

impl std::error::Error for WireError {}

// --- opcode tables -------------------------------------------------------

/// Request opcodes, mirroring the NDJSON `"op"` strings 1:1.
const REQUEST_OPS: [(u8, &str); 13] = [
    (0x01, "create"),
    (0x02, "submit"),
    (0x03, "query"),
    (0x04, "snapshot"),
    (0x05, "restore"),
    (0x06, "close"),
    (0x07, "stats"),
    (0x08, "ping"),
    (0x09, "shutdown"),
    (0x0A, "hello"),
    (0x0B, "migrate"),
    (0x0C, "lineage"),
    (0x0D, "cluster"),
];

/// The opcode of a typed replay submit: a `submit` whose payload is the
/// fixed layout in the module docs rather than a value tree.
const OP_REPLAY: u8 = 0x0E;

/// Response status codes, mirroring the NDJSON `"ok"` strings 1:1.
/// The high bit distinguishes responses from requests on the wire.
const RESPONSE_KINDS: [(u8, &str); 13] = [
    (0x81, "created"),
    (0x82, "submitted"),
    (0x83, "status"),
    (0x84, "snapshot"),
    (0x85, "closed"),
    (0x86, "stats"),
    (0x87, "pong"),
    (0x88, "bye"),
    (0x89, "hello"),
    (0x8A, "migrated"),
    (0x8B, "lineage"),
    (0x8C, "cluster"),
    (0xEF, "error"),
];

fn code_of(table: &[(u8, &str)], name: &str) -> u8 {
    table
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(c, _)| *c)
        .unwrap_or_else(|| unreachable!("unmapped wire discriminator `{name}`"))
}

fn name_of(table: &'static [(u8, &'static str)], code: u8) -> Option<&'static str> {
    table.iter().find(|(c, _)| *c == code).map(|(_, n)| *n)
}

// --- value codec ---------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_INT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARR: u8 = 0x07;
const TAG_OBJ: u8 = 0x08;
const TAG_FLOATS: u8 = 0x09;
const TAG_UINTS: u8 = 0x0A;

/// The field of a `restore` request and a `snapshot` response that
/// holds a [`SnapshotBlob`].
const SNAPSHOT_FIELD: &str = "snapshot";

/// Nesting depth of a field of a frame body (the body object is at 0).
const FIELD_DEPTH: u32 = 1;

fn put_len(out: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("value longer than u32::MAX entries");
    out.extend_from_slice(&len.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends the binary encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    encode_at(value, 0, out);
}

/// [`encode_value`] for a value nested `depth` levels deep in its
/// frame. Returns whether the decoder accepts it there: whether none of
/// its nodes sits deeper than [`MAX_DEPTH`].
fn encode_at(value: &Value, depth: u32, out: &mut Vec<u8>) -> bool {
    let mut fits = depth <= MAX_DEPTH;
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Arr(items) if !items.is_empty() && items.iter().all(is_float) => {
            fits &= depth < MAX_DEPTH;
            put_floats(out, items);
        }
        Value::Arr(items) if !items.is_empty() && items.iter().all(is_uint) => {
            fits &= depth < MAX_DEPTH;
            put_uints(out, items);
        }
        Value::Arr(items) => {
            out.push(TAG_ARR);
            put_len(out, items.len());
            for item in items {
                fits &= encode_at(item, depth + 1, out);
            }
        }
        Value::Obj(pairs) => {
            out.push(TAG_OBJ);
            put_len(out, pairs.len());
            for (key, val) in pairs {
                put_str(out, key);
                fits &= encode_at(val, depth + 1, out);
            }
        }
    }
    fits
}

fn is_float(value: &Value) -> bool {
    matches!(value, Value::Float(_))
}

fn is_uint(value: &Value) -> bool {
    matches!(value, Value::UInt(_))
}

/// Appends a non-empty array of floats as an f64 column.
fn put_floats(out: &mut Vec<u8>, items: &[Value]) {
    out.push(TAG_FLOATS);
    put_len(out, items.len());
    out.reserve(8 * items.len());
    for x in items.iter().filter_map(Value::as_f64) {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// The narrowest column width, in bytes, that holds `max`.
fn uint_width(max: u64) -> usize {
    match max {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// Appends a non-empty array of unsigned integers as an unsigned
/// column, each element in the narrowest width that holds the largest.
fn put_uints(out: &mut Vec<u8>, items: &[Value]) {
    let xs = items.iter().filter_map(Value::as_u64);
    let width = uint_width(xs.clone().max().unwrap_or(0));
    out.push(TAG_UINTS);
    put_len(out, items.len());
    out.push(width as u8);
    out.reserve(width * items.len());
    // One loop per width, so each one's store is a constant size; every
    // element fits, as none exceeds the maximum.
    match width {
        1 => out.extend(xs.map(|x| x as u8)),
        2 => xs.for_each(|x| out.extend_from_slice(&(x as u16).to_le_bytes())),
        4 => xs.for_each(|x| out.extend_from_slice(&(x as u32).to_le_bytes())),
        _ => xs.for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
    }
}

fn too_deep() -> WireError {
    WireError::Frame(format!("value nesting exceeds the depth limit {MAX_DEPTH}"))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                WireError::Frame(format!(
                    "truncated value: need {n} more bytes at offset {}, payload has {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(le_u64(self.take(8)?))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| WireError::Frame("string payload is not UTF-8".into()))
    }

    /// Upper bound for a pre-allocation: a count larger than the bytes
    /// left cannot be honest (every element costs ≥ 1 byte), so a
    /// hostile count prefix never reserves more than the frame size.
    fn bounded(&self, count: usize) -> usize {
        count.min(self.buf.len() - self.pos)
    }

    fn value(&mut self, depth: u32) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_UINT => Ok(Value::UInt(self.u64()?)),
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::Str(self.str()?.to_owned())),
            TAG_ARR => {
                let count = self.u32()? as usize;
                let mut items = Vec::with_capacity(self.bounded(count));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Arr(items))
            }
            TAG_OBJ => {
                let count = self.u32()? as usize;
                let mut pairs = Vec::with_capacity(self.bounded(count));
                for _ in 0..count {
                    let key = self.str()?.to_owned();
                    pairs.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Obj(pairs))
            }
            TAG_FLOATS => {
                let (_, raw) = self.column(TAG_FLOATS, depth)?;
                let xs = raw.chunks_exact(8).map(|b| f64::from_bits(le_u64(b)));
                Ok(Value::Arr(xs.map(Value::Float).collect()))
            }
            TAG_UINTS => {
                let (width, raw) = self.column(TAG_UINTS, depth)?;
                let xs = raw.chunks_exact(width);
                // One loop per width, so each one's load is a constant size.
                Ok(Value::Arr(match width {
                    1 => raw.iter().map(|&b| Value::UInt(u64::from(b))).collect(),
                    2 => xs
                        .map(|b| Value::UInt(u64::from(u16::from_le_bytes([b[0], b[1]]))))
                        .collect(),
                    4 => xs
                        .map(|b| {
                            Value::UInt(u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                        })
                        .collect(),
                    _ => xs.map(|b| Value::UInt(le_u64(b))).collect(),
                }))
            }
            other => Err(unknown_tag(other)),
        }
    }

    /// The element width and raw bytes of a packed column whose tag was
    /// just read, checked under the rules an array's elements obey:
    /// the elements must fit the bytes left (checked before anything is
    /// allocated) and sit no deeper than [`MAX_DEPTH`], and an unsigned
    /// column's width byte must be 1, 2, 4 or 8.
    fn column(&mut self, tag: u8, depth: u32) -> Result<(usize, &'a [u8]), WireError> {
        let count = self.u32()? as usize;
        let width = if tag == TAG_FLOATS {
            8
        } else {
            match self.byte()? {
                width @ (1 | 2 | 4 | 8) => usize::from(width),
                other => {
                    return Err(WireError::Frame(format!(
                        "unsigned column width {other} is not 1, 2, 4 or 8"
                    )))
                }
            }
        };
        if count > 0 && depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        let len = count.checked_mul(width).ok_or_else(|| {
            WireError::Frame(format!("a column of {count} × {width} bytes overflows"))
        })?;
        Ok((width, self.take(len)?))
    }

    /// Walks past one value under exactly the rules of
    /// [`Cursor::value`] — depth, tags, lengths, UTF-8 — without
    /// building it.
    fn skip(&mut self, depth: u32) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        match self.byte()? {
            TAG_NULL | TAG_FALSE | TAG_TRUE => {}
            TAG_UINT | TAG_INT | TAG_FLOAT => {
                self.take(8)?;
            }
            TAG_STR => {
                self.str()?;
            }
            TAG_ARR => {
                for _ in 0..self.u32()? {
                    self.skip(depth + 1)?;
                }
            }
            TAG_OBJ => {
                for _ in 0..self.u32()? {
                    self.str()?;
                    self.skip(depth + 1)?;
                }
            }
            tag @ (TAG_FLOATS | TAG_UINTS) => {
                self.column(tag, depth)?;
            }
            other => return Err(unknown_tag(other)),
        }
        Ok(())
    }

    /// Fails unless the whole buffer was consumed.
    fn finish(&self) -> Result<(), WireError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(WireError::Frame(format!(
                "{extra} trailing bytes after the value"
            ))),
        }
    }
}

/// The little-endian `u64` in the 8 bytes of `bytes`.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

fn unknown_tag(tag: u8) -> WireError {
    WireError::Frame(format!("unknown value tag 0x{tag:02X}"))
}

/// Decodes one binary value occupying all of `payload`.
///
/// # Errors
/// Returns a [`WireError::Frame`] on truncation, bad tags, non-UTF-8
/// strings, excessive nesting, or trailing bytes.
pub fn decode_value(payload: &[u8]) -> Result<Value, WireError> {
    let mut cursor = Cursor::new(payload);
    let value = cursor.value(0)?;
    cursor.finish()?;
    Ok(value)
}

// --- snapshot blobs ------------------------------------------------------

/// A session snapshot as the bytes of its binary value encoding:
/// [`encode_value`] of the tree [`crate::Session::snapshot`] returns.
///
/// Snapshots cross the system in this form. The worker that owns a
/// session encodes its snapshot once; frames splice the bytes in and
/// cut them out; a router stores and forwards them without decoding;
/// the worker that restores decodes them once. Clones share the bytes.
/// A blob a version-4 peer encoded, with every array one node per
/// element, decodes as well (to the same tree).
///
/// Every blob holds exactly one value that the frame decoder accepts as
/// a field of a frame body — depth, tags, lengths and UTF-8 are checked
/// by whichever constructor made it — so [`SnapshotBlob::decode`]
/// cannot fail. Its NDJSON form is the tree.
#[derive(Clone)]
pub struct SnapshotBlob(Arc<[u8]>);

impl SnapshotBlob {
    /// Encodes a snapshot tree.
    ///
    /// # Errors
    /// Returns a [`WireError::Frame`] if the tree nests deeper than a
    /// frame field may ([`MAX_DEPTH`]).
    pub fn encode(value: &Value) -> Result<Self, WireError> {
        let mut bytes = Vec::new();
        if !encode_at(value, FIELD_DEPTH, &mut bytes) {
            return Err(too_deep());
        }
        Ok(Self(bytes.into()))
    }

    /// The snapshot's tree, as [`crate::Session::restore`] takes it.
    #[must_use]
    pub fn decode(&self) -> Value {
        decode_value(&self.0).expect("a snapshot blob holds one valid value")
    }

    /// The encoded bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for SnapshotBlob {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SnapshotBlob({} bytes)", self.0.len())
    }
}

impl Serialize for SnapshotBlob {
    fn to_value(&self) -> Value {
        self.decode()
    }
}

impl Deserialize for SnapshotBlob {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::encode(v).map_err(|e| DeError(e.message().to_owned()))
    }
}

// --- framing -------------------------------------------------------------

/// Splits the tagged object the NDJSON serializers produce into its
/// discriminator string and the remaining body pairs.
fn untag(value: Value, key: &str) -> (String, Value) {
    let Value::Obj(mut pairs) = value else {
        unreachable!("protocol messages serialize as objects");
    };
    let pos = pairs
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| unreachable!("protocol messages carry `{key}`"));
    let (_, tag) = pairs.remove(pos);
    let Value::Str(name) = tag else {
        unreachable!("`{key}` is a string discriminator");
    };
    (name, Value::Obj(pairs))
}

/// A frame with code byte `code` whose payload `write` appends;
/// `capacity` sizes the buffer for it up front.
fn frame(code: u8, capacity: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + capacity);
    out.push(MAGIC);
    out.push(code);
    out.extend_from_slice(&[0; 4]); // length back-patched below
    write(&mut out);
    let len = u32::try_from(out.len() - HEADER_LEN).expect("frame payload fits u32");
    out[2..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out
}

/// The frame of a message serialized the NDJSON way, its discriminator
/// `key` moved into the code byte.
fn value_frame(message: &impl Serialize, key: &str, table: &[(u8, &str)]) -> Vec<u8> {
    let (name, body) = untag(message.to_value(), key);
    frame(code_of(table, &name), 64, |out| encode_value(&body, out))
}

/// The frame of a body object made of `fields` followed by the
/// `snapshot` field: the blob's bytes go where its tree's encoding
/// would.
fn snapshot_frame(code: u8, fields: &[(&str, Value)], snapshot: &SnapshotBlob) -> Vec<u8> {
    frame(code, 64 + snapshot.0.len(), |out| {
        out.push(TAG_OBJ);
        put_len(out, fields.len() + 1);
        for (key, value) in fields {
            put_str(out, key);
            encode_value(value, out);
        }
        put_str(out, SNAPSHOT_FIELD);
        out.extend_from_slice(&snapshot.0);
    })
}

/// The typed frame of a replay submit (layout in the module docs).
fn replay_frame(session: u64, edges: &[Edge]) -> Vec<u8> {
    frame(OP_REPLAY, 12 + 4 * edges.len(), |out| {
        out.extend_from_slice(&session.to_le_bytes());
        put_len(out, edges.len());
        for edge in edges {
            out.extend_from_slice(&edge.0.to_le_bytes());
        }
    })
}

/// Encodes a request as one binary frame.
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Submit {
            session,
            work: Work::Replay(edges),
        } => replay_frame(*session, edges),
        Request::Restore { snapshot } => {
            snapshot_frame(code_of(&REQUEST_OPS, "restore"), &[], snapshot)
        }
        _ => value_frame(request, "op", &REQUEST_OPS),
    }
}

/// Encodes a response as one binary frame.
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Snapshot { session, snapshot } => snapshot_frame(
            code_of(&RESPONSE_KINDS, "snapshot"),
            &[("session", session.to_value())],
            snapshot,
        ),
        _ => value_frame(response, "ok", &RESPONSE_KINDS),
    }
}

/// Reassembles the tagged [`Value`] an equivalent NDJSON line would
/// parse to, from a frame's code byte and decoded body.
fn retag(name: &str, body: Value, key: &str) -> Result<Value, WireError> {
    let Value::Obj(pairs) = body else {
        return Err(WireError::Frame(format!(
            "frame body must be an object, got {body:?}"
        )));
    };
    let mut tagged = Vec::with_capacity(pairs.len() + 1);
    tagged.push((key.to_string(), Value::Str(name.into())));
    tagged.extend(pairs);
    Ok(Value::Obj(tagged))
}

/// Decodes the body of a frame that carries a snapshot. The first
/// `snapshot` field becomes a blob of its bytes once a skip walk has
/// checked them; every other field decodes as usual, into the returned
/// object.
fn snapshot_body(payload: &[u8]) -> Result<(Value, SnapshotBlob), WireError> {
    let mut cursor = Cursor::new(payload);
    let tag = cursor.byte()?;
    if tag != TAG_OBJ {
        return Err(WireError::Frame(format!(
            "frame body must be an object, got value tag 0x{tag:02X}"
        )));
    }
    let mut fields = Vec::new();
    let mut snapshot = None;
    for _ in 0..cursor.u32()? {
        let key = cursor.str()?;
        if key == SNAPSHOT_FIELD && snapshot.is_none() {
            let start = cursor.pos;
            cursor.skip(FIELD_DEPTH)?;
            snapshot = Some(start..cursor.pos);
        } else {
            fields.push((key.to_owned(), cursor.value(FIELD_DEPTH)?));
        }
    }
    cursor.finish()?;
    let range =
        snapshot.ok_or_else(|| WireError::Frame(format!("missing field `{SNAPSHOT_FIELD}`")))?;
    Ok((Value::Obj(fields), SnapshotBlob(payload[range].into())))
}

/// Decodes a typed replay submit (layout in the module docs).
fn decode_replay(payload: &[u8]) -> Result<Request, WireError> {
    let mut cursor = Cursor::new(payload);
    let session = cursor.u64()?;
    let count = cursor.u32()?;
    let len = count.checked_mul(4).ok_or_else(|| {
        WireError::Frame(format!("replay submit of {count} edges overflows a frame"))
    })?;
    let ids = cursor.take(len as usize)?;
    cursor.finish()?;
    let edges = ids
        .chunks_exact(4)
        .map(|id| Edge(u32::from_le_bytes([id[0], id[1], id[2], id[3]])))
        .collect();
    Ok(Request::Submit {
        session,
        work: Work::Replay(edges),
    })
}

/// Decodes a request from a frame's code byte and payload.
///
/// # Errors
/// Returns a [`WireError::Frame`] for unknown opcodes or payloads that
/// fail the value codec, the typed submit layout or the request shape.
pub fn decode_request(code: u8, payload: &[u8]) -> Result<Request, WireError> {
    if code == OP_REPLAY {
        return decode_replay(payload);
    }
    let op = name_of(&REQUEST_OPS, code)
        .ok_or_else(|| WireError::Frame(format!("unknown request opcode 0x{code:02X}")))?;
    if op == "restore" {
        let (_, snapshot) = snapshot_body(payload)?;
        return Ok(Request::Restore { snapshot });
    }
    let tagged = retag(op, decode_value(payload)?, "op")?;
    serde::Deserialize::from_value(&tagged).map_err(|e| WireError::Frame(e.0))
}

/// Decodes a response from a frame's code byte and payload.
///
/// # Errors
/// Returns a [`WireError::Frame`] for unknown status codes or payloads
/// that fail the value codec or the response shape.
pub fn decode_response(code: u8, payload: &[u8]) -> Result<Response, WireError> {
    let kind = name_of(&RESPONSE_KINDS, code)
        .ok_or_else(|| WireError::Frame(format!("unknown response status 0x{code:02X}")))?;
    if kind == "snapshot" {
        let (fields, snapshot) = snapshot_body(payload)?;
        let session = fields
            .get_field("session")
            .and_then(u64::from_value)
            .map_err(|e| WireError::Frame(e.0))?;
        return Ok(Response::Snapshot { session, snapshot });
    }
    let tagged = retag(kind, decode_value(payload)?, "ok")?;
    serde::Deserialize::from_value(&tagged).map_err(|e| WireError::Frame(e.0))
}

/// What [`try_frame`] found at the head of a receive buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FrameHead {
    /// Not enough bytes buffered yet; read more.
    Incomplete,
    /// A whole frame: its code byte and the total frame size to
    /// consume from the buffer.
    Complete {
        /// The frame's code byte (request opcode or response status).
        code: u8,
        /// Total bytes of the frame (header + payload).
        size: usize,
    },
}

/// Inspects the head of `buf` for one binary frame without consuming
/// it. The payload of a `Complete` head is
/// `buf[HEADER_LEN..size]`.
///
/// # Errors
/// Returns a [`WireError::Fatal`] on a bad magic byte or an oversized
/// declared length — both desynchronize the stream.
fn try_frame(buf: &[u8]) -> Result<FrameHead, WireError> {
    let Some(&first) = buf.first() else {
        return Ok(FrameHead::Incomplete);
    };
    if first != MAGIC {
        return Err(WireError::Fatal(format!(
            "bad frame magic 0x{first:02X} (expected 0x{MAGIC:02X})"
        )));
    }
    if buf.len() < HEADER_LEN {
        return Ok(FrameHead::Incomplete);
    }
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Fatal(format!(
            "declared frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(FrameHead::Incomplete);
    }
    Ok(FrameHead::Complete {
        code: buf[1],
        size: HEADER_LEN + len,
    })
}

// --- per-connection framing ----------------------------------------------

/// Which wire protocol(s) a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Detect per connection from its first byte (the default).
    #[default]
    Auto,
    /// NDJSON only: binary magic is treated as a malformed JSON line.
    Ndjson,
    /// Binary only: JSON text is rejected as a bad frame magic.
    Binary,
}

impl std::str::FromStr for Proto {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Proto::Auto),
            "ndjson" => Ok(Proto::Ndjson),
            "binary" => Ok(Proto::Binary),
            other => Err(format!("unknown protocol `{other}` (auto|ndjson|binary)")),
        }
    }
}

/// One connection's framing state: turns the bytes a socket delivers
/// into messages, and messages into the bytes to write, in the
/// connection's encoding. The reactor, the router frontend and
/// [`crate::Client`] all frame through it, so these rules hold on
/// every hop:
///
/// * the encoding is pinned by a [`Proto`], or detected from the first
///   byte under [`Proto::Auto`] ([`MAGIC`] means binary, anything else
///   NDJSON);
/// * NDJSON skips blank lines, answers a non-UTF-8 or unparseable line
///   with [`WireError::Frame`], and answers [`WireError::Fatal`] once
///   more than [`MAX_FRAME`] bytes are buffered without a newline;
/// * binary answers a bad magic byte or an oversized declared length
///   with [`WireError::Fatal`], and an undecodable frame with
///   [`WireError::Frame`].
///
/// The newline search resumes where the last one stopped, so a line is
/// scanned once however many pushes deliver it.
#[derive(Debug)]
pub struct Framer {
    /// `Auto` until the first byte arrives, then the detected encoding.
    proto: Proto,
    buf: Vec<u8>,
    /// Where the unparsed bytes of `buf` begin.
    start: usize,
    /// How many unparsed bytes were already searched for a newline.
    scanned: usize,
}

impl Framer {
    /// An empty framer speaking `proto`.
    #[must_use]
    pub fn new(proto: Proto) -> Self {
        Self {
            proto,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
        }
    }

    /// Appends bytes read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact once per push rather than once per parsed message.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes pushed but not yet returned as messages.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next request in the buffered bytes. `None` means more bytes
    /// are needed. `Some(Err(WireError::Frame))` is one malformed
    /// message: answer it and keep the connection.
    /// `Some(Err(WireError::Fatal))` means the framer has dropped its
    /// buffer: answer and close.
    pub fn next_request(&mut self) -> Option<Result<Request, WireError>> {
        self.next("request", decode_request)
    }

    /// The next response in the buffered bytes, under the same rules
    /// as [`Framer::next_request`].
    pub fn next_response(&mut self) -> Option<Result<Response, WireError>> {
        self.next("response", decode_response)
    }

    /// The bytes that send `request` in this connection's encoding
    /// (NDJSON while the encoding is undetected).
    #[must_use]
    pub fn encode_request(&self, request: &Request) -> Vec<u8> {
        self.encode(request, encode_request)
    }

    /// The bytes that send `response` in this connection's encoding
    /// (NDJSON while the encoding is undetected).
    #[must_use]
    pub fn encode_response(&self, response: &Response) -> Vec<u8> {
        self.encode(response, encode_response)
    }

    fn encode<T: Serialize>(&self, message: &T, binary: fn(&T) -> Vec<u8>) -> Vec<u8> {
        if self.proto == Proto::Binary {
            return binary(message);
        }
        let mut line = serde_json::to_string(message)
            .expect("protocol messages serialize to JSON")
            .into_bytes();
        line.push(b'\n');
        line
    }

    fn next<T: Deserialize>(
        &mut self,
        what: &str,
        binary: fn(u8, &[u8]) -> Result<T, WireError>,
    ) -> Option<Result<T, WireError>> {
        if self.proto == Proto::Auto {
            let &first = self.buf.get(self.start)?;
            self.proto = if first == MAGIC {
                Proto::Binary
            } else {
                Proto::Ndjson
            };
        }
        let message = if self.proto == Proto::Binary {
            self.next_frame(binary)
        } else {
            self.next_line(what)
        };
        if let Some(Err(WireError::Fatal(_))) = message {
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
        }
        message
    }

    fn next_frame<T>(
        &mut self,
        decode: fn(u8, &[u8]) -> Result<T, WireError>,
    ) -> Option<Result<T, WireError>> {
        let unparsed = &self.buf[self.start..];
        match try_frame(unparsed) {
            Ok(FrameHead::Incomplete) => None,
            Ok(FrameHead::Complete { code, size }) => {
                let message = decode(code, &unparsed[HEADER_LEN..size]);
                self.start += size;
                Some(message)
            }
            Err(fatal) => Some(Err(fatal)),
        }
    }

    fn next_line<T: Deserialize>(&mut self, what: &str) -> Option<Result<T, WireError>> {
        loop {
            let from = self.start + self.scanned;
            let Some(offset) = self.buf[from..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.buffered();
                return (self.buffered() > MAX_FRAME).then(|| {
                    Err(WireError::Fatal(format!(
                        "{what} line exceeds the {MAX_FRAME}-byte cap"
                    )))
                });
            };
            let end = from + offset;
            let line = &self.buf[self.start..end];
            self.start = end + 1;
            self.scanned = 0;
            let Ok(text) = std::str::from_utf8(line) else {
                return Some(Err(WireError::Frame(format!("{what} line is not UTF-8"))));
            };
            if !text.trim().is_empty() {
                return Some(
                    serde_json::from_str(text).map_err(|e| WireError::Frame(e.to_string())),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SessionInfo;
    use crate::session::{BatchSummary, Session};
    use rdbp_engine::{AlgorithmSpec, InstanceSpec, Registries, Scenario, WorkloadSpec};
    use rdbp_model::CostLedger;

    fn sample_requests() -> Vec<Request> {
        let scenario = Scenario::new(
            InstanceSpec::packed(4, 8),
            AlgorithmSpec::named("dynamic"),
            WorkloadSpec::named("zipf"),
            100,
        );
        vec![
            Request::Create {
                scenario: Box::new(scenario),
            },
            Request::Submit {
                session: 7,
                work: Work::Generate(500),
            },
            Request::Submit {
                session: 7,
                work: Work::Replay(vec![Edge(1), Edge(2)]),
            },
            Request::Submit {
                session: 8,
                work: Work::Replay(Vec::new()),
            },
            Request::Submit {
                session: 9,
                work: Work::Replay(vec![Edge(5)]),
            },
            Request::Submit {
                session: 10,
                work: Work::Replay((0..4096).map(|i| Edge(i * 7 % 64)).collect()),
            },
            Request::Submit {
                session: u64::MAX,
                work: Work::Replay(vec![Edge(u32::MAX), Edge(0), Edge(u32::MAX)]),
            },
            Request::Query { session: 3 },
            Request::Snapshot { session: 3 },
            Request::Restore {
                snapshot: SnapshotBlob::encode(&Value::Obj(vec![
                    ("x".into(), Value::UInt(1)),
                    ("f".into(), Value::Float(0.25)),
                    ("neg".into(), Value::Int(-4)),
                    (
                        "arr".into(),
                        Value::Arr(vec![Value::Null, Value::Bool(true)]),
                    ),
                ]))
                .unwrap(),
            },
            Request::Close { session: 3 },
            Request::Stats,
            Request::Ping,
            Request::Hello,
            Request::Migrate {
                session: 4,
                backend: Some(1),
            },
            Request::Migrate {
                session: 4,
                backend: None,
            },
            Request::Lineage { session: 4 },
            Request::Cluster,
            Request::Shutdown,
        ]
    }

    /// Decodes `bytes` through a fresh framer speaking `proto`, fed in
    /// one push and then one byte per push. Each way must yield
    /// exactly one message, on the last byte, and leave nothing
    /// buffered; returns both messages as JSON lines.
    fn reframe<T: Serialize>(
        proto: Proto,
        bytes: &[u8],
        next: fn(&mut Framer) -> Option<Result<T, WireError>>,
    ) -> [String; 2] {
        let json = |message: Option<Result<T, WireError>>| {
            serde_json::to_string(&message.expect("a whole message").unwrap()).unwrap()
        };
        let mut whole = Framer::new(proto);
        whole.push(bytes);
        let at_once = json(next(&mut whole));
        assert!(next(&mut whole).is_none());
        assert_eq!(whole.buffered(), 0);

        let mut bytewise = Framer::new(proto);
        let (last, head) = bytes.split_last().unwrap();
        for byte in head {
            bytewise.push(std::slice::from_ref(byte));
            assert!(
                next(&mut bytewise).is_none(),
                "message before its last byte"
            );
        }
        bytewise.push(std::slice::from_ref(last));
        let by_byte = json(next(&mut bytewise));
        assert_eq!(bytewise.buffered(), 0);
        [at_once, by_byte]
    }

    #[test]
    fn requests_round_trip_binary_and_match_ndjson() {
        for request in sample_requests() {
            let frame = encode_request(&request);
            assert_eq!(frame[0], MAGIC);
            if let Request::Submit {
                work: Work::Replay(edges),
                ..
            } = &request
            {
                // Typed: 4 bytes per edge after session and count.
                assert_eq!(frame[1], OP_REPLAY);
                assert_eq!(frame.len(), HEADER_LEN + 12 + 4 * edges.len());
            }
            let FrameHead::Complete { code, size } = try_frame(&frame).unwrap() else {
                panic!("whole frame must parse")
            };
            assert_eq!(size, frame.len());
            let back = decode_request(code, &frame[HEADER_LEN..size]).unwrap();
            // Same wire form as the NDJSON path: the decoded request
            // re-serializes to the identical JSON line.
            let line = serde_json::to_string(&request).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), line);
            // Every framer, pinned or detecting, decodes either
            // encoding to that line however the bytes arrive.
            for proto in [Proto::Binary, Proto::Ndjson] {
                let bytes = Framer::new(proto).encode_request(&request);
                for decoder in [proto, Proto::Auto] {
                    for got in reframe(decoder, &bytes, Framer::next_request) {
                        assert_eq!(got, line, "{proto:?} decoded by {decoder:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn responses_round_trip_binary_and_match_ndjson() {
        let responses = vec![
            Response::Created {
                info: SessionInfo {
                    id: 1,
                    algorithm: "dynamic-partitioner".into(),
                    workload: "zipf".into(),
                    load_bound: 24,
                    steps: 0,
                },
            },
            Response::Submitted {
                session: 1,
                summary: BatchSummary {
                    served: 10,
                    steps: 30,
                    ledger: CostLedger {
                        communication: 5,
                        migration: 6,
                    },
                    batch_cost: 3,
                    max_load: 9,
                    violations: 0,
                },
            },
            Response::Snapshot {
                session: 2,
                snapshot: SnapshotBlob::encode(&Value::Obj(vec![(
                    "state".into(),
                    Value::Arr(vec![Value::UInt(9)]),
                )]))
                .unwrap(),
            },
            Response::Pong,
            Response::Hello {
                hello: crate::proto::ServerHello {
                    server: "rdbp-router".into(),
                    version: "0.1.0".into(),
                    proto: crate::proto::PROTO_VERSION,
                    workers: 3,
                },
            },
            Response::Migrated {
                session: 5,
                from: 1,
                to: 0,
            },
            Response::Lineage {
                lineage: crate::proto::SessionLineage {
                    session: 5,
                    backend: 0,
                    migrations: 2,
                    failovers: 0,
                    snapshot_steps: 128,
                    lost_requests: 0,
                },
            },
            Response::Cluster {
                backends: vec![crate::proto::BackendSummary {
                    id: 0,
                    addr: "127.0.0.1:4100".into(),
                    pid: 42,
                    alive: true,
                    sessions: 3,
                }],
            },
            Response::Bye,
            Response::Error {
                message: "nope".into(),
            },
        ];
        for response in responses {
            let frame = encode_response(&response);
            let FrameHead::Complete { code, size } = try_frame(&frame).unwrap() else {
                panic!("whole frame must parse")
            };
            let back = decode_response(code, &frame[HEADER_LEN..size]).unwrap();
            let line = serde_json::to_string(&response).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), line);
            for proto in [Proto::Binary, Proto::Ndjson] {
                let bytes = Framer::new(proto).encode_response(&response);
                for decoder in [proto, Proto::Auto] {
                    for got in reframe(decoder, &bytes, Framer::next_response) {
                        assert_eq!(got, line, "{proto:?} decoded by {decoder:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ndjson_framer_skips_blank_lines_and_survives_a_non_utf8_line() {
        let mut framer = Framer::new(Proto::Auto);
        framer.push(b"\n  \r\n\xFF\xFE\n{\"op\":\"ping\"}\n\n");
        let Some(Err(WireError::Frame(message))) = framer.next_request() else {
            panic!("a non-UTF-8 line is one malformed message")
        };
        assert!(message.contains("UTF-8"), "{message}");
        assert!(matches!(framer.next_request(), Some(Ok(Request::Ping))));
        assert!(framer.next_request().is_none());
        assert_eq!(framer.buffered(), 0);
    }

    #[test]
    fn newline_free_line_is_fatal_once_it_crosses_the_cap() {
        let piece = vec![b'a'; 16 * 1024];
        let mut framer = Framer::new(Proto::Ndjson);
        let mut pushed = 0;
        let mut fatal_at = Vec::new();
        while pushed <= MAX_FRAME {
            framer.push(&piece);
            pushed += piece.len();
            if let Some(message) = framer.next_request() {
                let Err(WireError::Fatal(text)) = message else {
                    panic!("only a fatal error can come out of one unterminated line")
                };
                assert!(text.contains("cap"), "{text}");
                fatal_at.push(pushed);
                assert!(framer.next_request().is_none(), "one fatal error only");
            }
        }
        assert_eq!(fatal_at, vec![MAX_FRAME + piece.len()]);
        assert_eq!(framer.buffered(), 0, "a fatal error drops the buffer");
    }

    #[test]
    fn pinned_framers_reject_the_other_encoding() {
        let mut binary = Framer::new(Proto::Binary);
        binary.push(b"{\"op\":\"ping\"}\n");
        let Some(Err(WireError::Fatal(message))) = binary.next_request() else {
            panic!("JSON text to a binary framer is a bad magic")
        };
        assert!(message.contains("magic"), "{message}");
        assert_eq!(binary.buffered(), 0);

        let mut ndjson = Framer::new(Proto::Ndjson);
        let mut line = encode_request(&Request::Ping);
        line.push(b'\n');
        ndjson.push(&line);
        assert!(matches!(
            ndjson.next_request(),
            Some(Err(WireError::Frame(_)))
        ));
        assert!(ndjson.next_request().is_none());
        assert_eq!(ndjson.buffered(), 0);
    }

    #[test]
    fn framers_encode_ndjson_until_binary_is_detected() {
        let mut framer = Framer::new(Proto::Auto);
        assert_eq!(
            framer.encode_response(&Response::Pong),
            b"{\"ok\":\"pong\"}\n"
        );
        framer.push(&encode_request(&Request::Ping));
        assert!(matches!(framer.next_request(), Some(Ok(Request::Ping))));
        assert_eq!(
            framer.encode_response(&Response::Pong),
            encode_response(&Response::Pong)
        );
    }

    #[test]
    fn partial_frames_are_incomplete_not_errors() {
        let frame = encode_request(&Request::Ping);
        for cut in 0..frame.len() {
            assert_eq!(
                try_frame(&frame[..cut]).unwrap(),
                FrameHead::Incomplete,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn bad_magic_and_oversized_lengths_are_fatal() {
        assert!(matches!(try_frame(b"{\"op\""), Err(WireError::Fatal(_))));
        let mut huge = vec![MAGIC, 0x08];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(try_frame(&huge), Err(WireError::Fatal(_))));
    }

    #[test]
    fn garbage_payloads_are_frame_errors() {
        // Unknown opcode.
        assert!(matches!(
            decode_request(0x7E, &[TAG_NULL]),
            Err(WireError::Frame(_))
        ));
        // Unknown value tag.
        assert!(matches!(
            decode_request(0x08, &[0xFF]),
            Err(WireError::Frame(_))
        ));
        // Truncated string length.
        assert!(matches!(
            decode_value(&[TAG_STR, 0x10, 0x00, 0x00, 0x00, b'h', b'i']),
            Err(WireError::Frame(_))
        ));
        // Trailing bytes.
        assert!(matches!(
            decode_value(&[TAG_NULL, TAG_NULL]),
            Err(WireError::Frame(_))
        ));
        // Hostile element count with a tiny payload must not OOM and
        // must fail as truncated.
        let mut bomb = vec![TAG_ARR];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_value(&bomb), Err(WireError::Frame(_))));
    }

    #[test]
    fn nesting_bombs_hit_the_depth_limit_not_the_stack() {
        // [[[[…]]]] one deeper than the limit, as raw bytes.
        let mut bytes = Vec::new();
        for _ in 0..=MAX_DEPTH {
            bytes.push(TAG_ARR);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        let err = decode_value(&bytes).expect_err("must hit the depth limit");
        assert!(err.message().contains("depth"), "{err}");
    }

    /// A frame around `payload`, built by hand.
    fn raw_frame(code: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![MAGIC, code];
        out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn encoded(value: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(value, &mut out);
        out
    }

    #[test]
    fn real_snapshots_cross_frames_as_the_unchanged_blob() {
        let registries = Registries::builtin();
        let mut algorithm = AlgorithmSpec::named("dynamic");
        algorithm.policy = Some("hedge".into());
        let spec = Scenario::new(
            InstanceSpec::packed(16, 64),
            algorithm,
            WorkloadSpec::named("zipf"),
            0,
        );
        let mut session = Session::new(spec, &registries).unwrap();
        session.submit(300);
        let tree = session.snapshot().unwrap();
        let blob = SnapshotBlob::encode(&tree).unwrap();
        assert_eq!(
            blob.as_bytes(),
            encoded(&tree),
            "a blob is the tree's encoding"
        );
        assert_eq!(blob.decode(), tree);

        // Each frame is the one the value encoder alone builds — how
        // every frame was encoded before snapshots got their own path.
        let frame = encode_response(&Response::Snapshot {
            session: 5,
            snapshot: blob.clone(),
        });
        let body = Value::Obj(vec![
            ("session".into(), Value::UInt(5)),
            ("snapshot".into(), tree.clone()),
        ]);
        assert_eq!(frame, raw_frame(0x84, &encoded(&body)));
        let Ok(Response::Snapshot {
            session: 5,
            snapshot,
        }) = decode_response(frame[1], &frame[HEADER_LEN..])
        else {
            panic!("snapshot response did not decode")
        };
        assert_eq!(snapshot.as_bytes(), blob.as_bytes());

        let frame = encode_request(&Request::Restore { snapshot: blob });
        let body = Value::Obj(vec![("snapshot".into(), tree)]);
        assert_eq!(frame, raw_frame(0x05, &encoded(&body)));
        let Ok(Request::Restore { snapshot: restored }) =
            decode_request(frame[1], &frame[HEADER_LEN..])
        else {
            panic!("restore request did not decode")
        };
        assert_eq!(restored.as_bytes(), snapshot.as_bytes());

        let mut restored = Session::restore(&restored.decode(), &registries).unwrap();
        restored.submit(200);
        session.submit(200);
        assert_eq!(restored.report(), session.report());
    }

    /// `[[[…null…]]]` with `levels` arrays around the null.
    fn nested(levels: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..levels {
            out.push(TAG_ARR);
            put_len(&mut out, 1);
        }
        out.push(TAG_NULL);
        out
    }

    #[test]
    fn snapshot_fields_obey_the_value_decoders_rules() {
        let mut not_utf8 = vec![TAG_STR];
        put_len(&mut not_utf8, 2);
        not_utf8.extend_from_slice(&[0xFF, 0xFE]);
        let mut truncated = vec![TAG_STR];
        put_len(&mut truncated, 16);
        truncated.extend_from_slice(b"hi");
        // The snapshot field sits at depth 1, so MAX_DEPTH arrays
        // around a null put the null one level past the limit.
        let bad = [
            ("nested past MAX_DEPTH", nested(MAX_DEPTH)),
            ("an unknown tag", vec![0xFF]),
            ("a non-UTF-8 string", not_utf8),
            ("a truncated length", truncated),
        ];
        for (what, raw) in bad {
            // A blob no constructor would make, spliced into both
            // frames that carry one.
            let hostile = SnapshotBlob(raw.into());
            let restore = snapshot_frame(0x05, &[], &hostile);
            let snapshot = snapshot_frame(0x84, &[("session", Value::UInt(5))], &hostile);
            for frame in [&restore, &snapshot] {
                // The tree decoder refuses the same bodies.
                assert!(decode_value(&frame[HEADER_LEN..]).is_err(), "{what}");
            }
            for proto in [Proto::Binary, Proto::Auto] {
                let mut framer = Framer::new(proto);
                framer.push(&restore);
                framer.push(&encode_request(&Request::Ping));
                assert!(
                    matches!(framer.next_request(), Some(Err(WireError::Frame(_)))),
                    "restore with {what}"
                );
                assert!(matches!(framer.next_request(), Some(Ok(Request::Ping))));

                let mut framer = Framer::new(proto);
                framer.push(&snapshot);
                framer.push(&encode_response(&Response::Pong));
                assert!(
                    matches!(framer.next_response(), Some(Err(WireError::Frame(_)))),
                    "snapshot with {what}"
                );
                assert!(matches!(framer.next_response(), Some(Ok(Response::Pong))));
            }
        }
        // One level shallower is accepted, by both decoders alike.
        let deepest = nested(MAX_DEPTH - 1);
        let frame = snapshot_frame(0x05, &[], &SnapshotBlob(deepest.as_slice().into()));
        assert!(decode_value(&frame[HEADER_LEN..]).is_ok());
        let Ok(Request::Restore { snapshot }) = decode_request(0x05, &frame[HEADER_LEN..]) else {
            panic!("a snapshot at the depth limit must decode")
        };
        assert_eq!(snapshot.as_bytes(), deepest);
        // A tree too deep for a frame field is refused up front.
        assert!(SnapshotBlob::encode(&decode_value(&nested(MAX_DEPTH)).unwrap()).is_err());
        // A restore without its snapshot field is one bad frame.
        let Err(WireError::Frame(message)) = decode_request(0x05, &[TAG_OBJ, 0, 0, 0, 0]) else {
            panic!("a restore needs its snapshot")
        };
        assert!(message.contains("snapshot"), "{message}");
    }

    #[test]
    fn malformed_typed_submits_are_frame_errors() {
        let typed = |count: u32, ids: &[u32], extra: &[u8]| {
            let mut out = 7u64.to_le_bytes().to_vec();
            out.extend_from_slice(&count.to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
            out.extend_from_slice(extra);
            raw_frame(OP_REPLAY, &out)
        };
        let bad = [
            ("a count beyond the payload", typed(5, &[1, 2, 3], &[])),
            (
                "a count whose byte length overflows",
                typed(u32::MAX, &[1], &[]),
            ),
            ("trailing bytes", typed(1, &[1], &[0])),
            ("no count", raw_frame(OP_REPLAY, &7u64.to_le_bytes())),
        ];
        for (what, frame) in &bad {
            for proto in [Proto::Binary, Proto::Auto] {
                let mut framer = Framer::new(proto);
                framer.push(frame);
                framer.push(&typed(2, &[4, u32::MAX], &[]));
                assert!(
                    matches!(framer.next_request(), Some(Err(WireError::Frame(_)))),
                    "{what}"
                );
                let Some(Ok(Request::Submit {
                    session: 7,
                    work: Work::Replay(edges),
                })) = framer.next_request()
                else {
                    panic!("the frame after one with {what} must decode")
                };
                assert_eq!(edges, [Edge(4), Edge(u32::MAX)]);
            }
        }
    }

    /// A packed column's bytes, tag first, built by hand: `width` is
    /// `None` for an f64 column.
    fn raw_column(count: u32, width: Option<u8>, body: &[u8]) -> Vec<u8> {
        let mut out = vec![width.map_or(TAG_FLOATS, |_| TAG_UINTS)];
        out.extend_from_slice(&count.to_le_bytes());
        out.extend(width);
        out.extend_from_slice(body);
        out
    }

    /// A restore frame whose `snapshot` field is `raw`, built by hand.
    fn restore_frame(raw: &[u8]) -> Vec<u8> {
        let mut body = vec![TAG_OBJ];
        put_len(&mut body, 1);
        put_str(&mut body, SNAPSHOT_FIELD);
        body.extend_from_slice(raw);
        raw_frame(0x05, &body)
    }

    fn uints(xs: &[u64]) -> Value {
        Value::Arr(xs.iter().map(|&x| Value::UInt(x)).collect())
    }

    fn floats(xs: &[f64]) -> Value {
        Value::Arr(xs.iter().map(|&x| Value::Float(x)).collect())
    }

    #[test]
    fn unsigned_columns_take_the_narrowest_width() {
        let cases: [(&[u64], u8); 5] = [
            (&[0, 255], 1),
            (&[256], 2),
            (&[7, 0xFFFF_FFFF], 4),
            (&[1 << 32], 8),
            (&[u64::MAX, 0], 8),
        ];
        for (xs, width) in cases {
            let bytes = encoded(&uints(xs));
            let body: Vec<u8> = xs
                .iter()
                .flat_map(|x| x.to_le_bytes()[..usize::from(width)].to_vec())
                .collect();
            let count = u32::try_from(xs.len()).unwrap();
            assert_eq!(bytes, raw_column(count, Some(width), &body), "{xs:?}");
            assert_eq!(decode_value(&bytes).unwrap(), uints(xs));
        }
        let bytes = encoded(&floats(&[0.5, -0.0]));
        let body: Vec<u8> = [0.5f64, -0.0]
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        assert_eq!(bytes, raw_column(2, None, &body));
        let back = decode_value(&bytes).unwrap();
        assert_eq!(back, floats(&[0.5, -0.0]));
        assert_eq!(encoded(&back), bytes);
        // Empty arrays and mixed ones stay TAG_ARR.
        assert_eq!(encoded(&Value::Arr(vec![])), [TAG_ARR, 0, 0, 0, 0]);
        let mixed = Value::Arr(vec![Value::Float(0.5), Value::UInt(3)]);
        assert_eq!(encoded(&mixed)[0], TAG_ARR);
        assert_eq!(decode_value(&encoded(&mixed)).unwrap(), mixed);
    }

    #[test]
    fn malformed_columns_are_frame_errors() {
        let bad = [
            (
                "a truncated f64 column",
                raw_column(3, None, &[0; 16]),
                "truncated",
            ),
            (
                "a truncated unsigned column",
                raw_column(3, Some(2), &[0; 5]),
                "truncated",
            ),
            (
                "a width byte of 3",
                raw_column(2, Some(3), &[0; 6]),
                "width 3",
            ),
            ("a width byte of 0", raw_column(0, Some(0), &[]), "width 0"),
            // The size check comes before any allocation: a hostile
            // count with 8 bytes behind it reserves nothing.
            (
                "u32::MAX floats",
                raw_column(u32::MAX, None, &[0; 8]),
                "truncated",
            ),
            (
                "u32::MAX words",
                raw_column(u32::MAX, Some(8), &[0; 8]),
                "truncated",
            ),
            (
                "no width byte",
                raw_column(1, Some(1), &[])[..5].to_vec(),
                "truncated",
            ),
        ];
        for (what, raw, says) in bad {
            let Err(WireError::Frame(message)) = decode_value(&raw) else {
                panic!("{what} must be one bad frame")
            };
            assert!(message.contains(says), "{what}: {message}");
            // The skip walk a snapshot field takes refuses it alike, and
            // the connection keeps going.
            for proto in [Proto::Binary, Proto::Auto] {
                let mut framer = Framer::new(proto);
                framer.push(&restore_frame(&raw));
                framer.push(&encode_request(&Request::Ping));
                let Some(Err(WireError::Frame(message))) = framer.next_request() else {
                    panic!("a restore with {what} must be one bad frame")
                };
                assert!(message.contains(says), "{what}: {message}");
                assert!(matches!(framer.next_request(), Some(Ok(Request::Ping))));
            }
        }
    }

    /// `levels` arrays of one element around `inner`.
    fn wrapped(levels: u32, inner: Value) -> Value {
        (0..levels).fold(inner, |v, _| Value::Arr(vec![v]))
    }

    #[test]
    fn a_non_empty_column_at_the_depth_limit_is_too_deep() {
        for column in [floats(&[1.5]), uints(&[7])] {
            // Decoded at the top level, the column sits at depth levels.
            let mut raw = nested(MAX_DEPTH);
            raw.truncate(raw.len() - 1);
            raw.extend(encoded(&column));
            let err = decode_value(&raw).expect_err("a column's elements past the limit");
            assert!(err.message().contains("depth"), "{err}");
            let shallower = &raw[5..];
            assert_eq!(
                decode_value(shallower).unwrap(),
                wrapped(MAX_DEPTH - 1, column.clone())
            );
            // An empty column holds no element past the limit.
            let mut empty = raw[..raw.len() - encoded(&column).len()].to_vec();
            empty.extend(raw_column(0, None, &[]));
            assert_eq!(
                decode_value(&empty).unwrap(),
                wrapped(MAX_DEPTH, Value::Arr(vec![]))
            );
            // A snapshot is a frame field, one level down already.
            let deep = wrapped(MAX_DEPTH - 1, column.clone());
            assert!(SnapshotBlob::encode(&deep).is_err());
            let err = decode_request(0x05, &restore_frame(&encoded(&deep))[HEADER_LEN..])
                .expect_err("the skip walk applies the same limit");
            assert!(err.message().contains("depth"), "{err}");
            let fits = wrapped(MAX_DEPTH - 2, column);
            assert_eq!(SnapshotBlob::encode(&fits).unwrap().decode(), fits);
        }
    }

    /// The session whose snapshot the column tests move: dynamic×hedge
    /// on packed(16, 64) after 300 zipf requests.
    fn hedge_session(registries: &Registries) -> Session {
        let mut algorithm = AlgorithmSpec::named("dynamic");
        algorithm.policy = Some("hedge".into());
        let spec = Scenario::new(
            InstanceSpec::packed(16, 64),
            algorithm,
            WorkloadSpec::named("zipf"),
            0,
        );
        let mut session = Session::new(spec, registries).unwrap();
        session.submit(300);
        session
    }

    #[test]
    fn a_snapshot_that_crossed_ndjson_re_encodes_to_the_same_blob() {
        let registries = Registries::builtin();
        let session = hedge_session(&registries);
        let tree = session.snapshot().unwrap();
        let blob = SnapshotBlob::encode(&tree).unwrap();
        let text = serde_json::to_string(&blob).unwrap();
        let parsed: Value = serde_json::from_str::<Tree>(&text).unwrap().0;
        assert_eq!(parsed, tree);
        let crossed: SnapshotBlob = serde_json::from_str(&text).unwrap();
        assert_eq!(crossed.as_bytes(), blob.as_bytes());
        assert_eq!(serde_json::to_string(&crossed).unwrap(), text);
    }

    /// The version-4 encoding of `value`: every array an `TAG_ARR` of
    /// one node per element, as before packed columns existed.
    fn encoded_unpacked(value: &Value, out: &mut Vec<u8>) {
        if let Value::Arr(items) = value {
            out.push(TAG_ARR);
            put_len(out, items.len());
            for item in items {
                encoded_unpacked(item, out);
            }
        } else if let Value::Obj(pairs) = value {
            out.push(TAG_OBJ);
            put_len(out, pairs.len());
            for (key, item) in pairs {
                put_str(out, key);
                encoded_unpacked(item, out);
            }
        } else {
            encode_value(value, out);
        }
    }

    #[test]
    fn an_unpacked_snapshot_blob_still_restores() {
        let registries = Registries::builtin();
        let mut session = hedge_session(&registries);
        let tree = session.snapshot().unwrap();
        let mut unpacked = Vec::new();
        encoded_unpacked(&tree, &mut unpacked);
        assert!(unpacked.len() > SnapshotBlob::encode(&tree).unwrap().as_bytes().len());
        let Ok(Request::Restore { snapshot }) =
            decode_request(0x05, &restore_frame(&unpacked)[HEADER_LEN..])
        else {
            panic!("an unpacked snapshot must decode")
        };
        assert_eq!(snapshot.as_bytes(), unpacked, "kept as sent");
        let decoded = snapshot.decode();
        assert_eq!(decoded, tree);
        let mut restored = Session::restore(&decoded, &registries).unwrap();
        restored.submit(200);
        session.submit(200);
        assert_eq!(restored.report(), session.report());
        assert_eq!(restored.work_counters(), session.work_counters());
    }

    /// A raw tree through the JSON text layer.
    struct Tree(Value);

    impl Deserialize for Tree {
        fn from_value(v: &Value) -> Result<Self, DeError> {
            Ok(Tree(v.clone()))
        }
    }

    /// A random tree of at most `depth` levels drawn from `seed`, rich in
    /// numeric arrays: empty and mixed arrays, float arrays, unsigned
    /// arrays of every column width, and scalars that survive JSON text
    /// (finite floats, negative `Int`s).
    fn random_tree(seed: &mut u64, depth: u32) -> Value {
        let mut next = || {
            *seed = rdbp_model::split_mix64(*seed);
            *seed
        };
        let kind = next() % if depth == 0 { 8 } else { 10 };
        let len = (next() % 6) as usize;
        let width = [0xFF, 0xFFFF, 0xFFFF_FFFF, u64::MAX][(next() % 4) as usize];
        let word = next();
        let float = |bits: u64| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                (bits >> 11) as f64 / 8.0
            }
        };
        match kind {
            0 => Value::Null,
            1 => Value::Bool(word.is_multiple_of(2)),
            2 => Value::UInt(word & width),
            3 => Value::Int(-1 - (word >> 2) as i64),
            4 => Value::Float(float(word)),
            5 => Value::Str(format!("s\"{len}\\")),
            6 => Value::Arr((0..len).map(|_| Value::UInt(next() & width)).collect()),
            7 => Value::Arr((0..len).map(|_| Value::Float(float(next()))).collect()),
            8 => Value::Arr((0..len).map(|_| random_tree(seed, depth - 1)).collect()),
            _ => Value::Obj(
                (0..len)
                    .map(|i| (format!("k{i}"), random_tree(seed, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn numeric_trees_round_trip_and_re_encode_identically(seed in 0u64..u64::MAX) {
            let mut state = seed;
            let tree = random_tree(&mut state, 4);
            let bytes = encoded(&tree);
            let back = decode_value(&bytes).unwrap();
            proptest::prop_assert_eq!(&back, &tree);
            proptest::prop_assert_eq!(encoded(&back), bytes.clone());
            // Through JSON text as well: same text, same bytes.
            let blob = SnapshotBlob::encode(&tree).unwrap();
            let text = serde_json::to_string(&blob).unwrap();
            let crossed: SnapshotBlob = serde_json::from_str(&text).unwrap();
            proptest::prop_assert_eq!(crossed.as_bytes(), &bytes[..]);
            proptest::prop_assert_eq!(serde_json::to_string(&crossed).unwrap(), text);
        }
    }
}
