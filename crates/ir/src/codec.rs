//! A serde-free binary codec for flow artifacts.
//!
//! The persistent stage cache (`cool_core::disk`) serializes every
//! artifact a stage deposits into the `FlowContext` so that a later
//! process can restore it byte-identically. The encoding is a plain
//! little-endian byte stream with length-prefixed collections and
//! tag-byte enums — deliberately boring, std-only (the build container
//! has no registry access, so serde is unavailable), and *canonical*:
//! equal values encode to equal bytes, and `encode(decode(encode(x)))
//! == encode(x)` (the codec property tests in `cool_core` enforce the
//! fixpoint for every artifact type).
//!
//! Decoding is total over arbitrary byte strings: malformed input —
//! truncation, bad enum tags, trailing garbage — yields a
//! [`CodecError`], never a panic and never an abort. Length prefixes
//! are bounds-checked against the remaining input before any
//! allocation, so a bit-flipped length cannot OOM the process. The
//! disk cache leans on this to treat corrupted entries as misses.
//!
//! [`Codec`] is implemented here for primitives, collections and the
//! `cool_ir` types; every artifact crate implements it for its own
//! types (they own the private fields).

use std::fmt;
use std::io;
use std::time::Duration;

use crate::graph::{EdgeId, NodeId};
use crate::hash::ContentHasher;
use crate::mapping::{Mapping, Resource};
use crate::target::{Bus, HwResource, Memory, Processor, Target, TimingClass};

/// Decoding failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum tag byte matched no variant.
    InvalidTag {
        /// The type being decoded.
        type_name: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeds what the remaining input could hold.
    LengthOverflow {
        /// The decoded length.
        len: u64,
    },
    /// [`from_bytes`] decoded a complete value with input left over.
    TrailingBytes {
        /// Bytes left after the value.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "input truncated: needed {needed} bytes, {remaining} left"
                )
            }
            CodecError::InvalidTag { type_name, tag } => {
                write!(f, "invalid tag {tag} for {type_name}")
            }
            CodecError::InvalidUtf8 => f.write_str("string is not valid UTF-8"),
            CodecError::LengthOverflow { len } => {
                write!(f, "length prefix {len} exceeds remaining input")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte sink for encoding.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes (no length prefix — pair with a fixed size or an
    /// explicit prefix on the caller's side).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `u128`, little-endian (content digests, checksums).
    pub fn put_u128(&mut self, v: u128) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append an `i64`, two's complement little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `usize`, widened to `u64` so 32- and 64-bit hosts agree.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append an `f64` via its IEEE-754 bit pattern (bit-exact roundtrip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// Encode a [`Codec`] value into this stream.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.encode(self);
    }
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Take `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Take one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at end of input.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Take a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short.
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take_bytes(2)?.try_into().expect("2"),
        ))
    }

    /// Take a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take_bytes(4)?.try_into().expect("4"),
        ))
    }

    /// Take a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("8"),
        ))
    }

    /// Take a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short.
    pub fn take_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(
            self.take_bytes(16)?.try_into().expect("16"),
        ))
    }

    /// Take a two's-complement little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short.
    pub fn take_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("8"),
        ))
    }

    /// Take a `usize` (encoded as `u64`).
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short;
    /// [`CodecError::LengthOverflow`] if the value exceeds `usize`.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CodecError::LengthOverflow { len: v })
    }

    /// Take a collection length and bounds-check it against the remaining
    /// input, assuming each element occupies at least `min_elem_bytes`.
    /// This is what keeps a bit-flipped length prefix from triggering a
    /// huge allocation: the length must be plausible *before* any
    /// `Vec::with_capacity`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] or [`CodecError::LengthOverflow`].
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.take_usize()?;
        let need = len.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(len),
            _ => Err(CodecError::LengthOverflow { len: len as u64 }),
        }
    }

    /// Take a `bool`. Exactly 0 or 1; anything else is a bad tag, which
    /// keeps the encoding canonical.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] or [`CodecError::InvalidTag`].
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag {
                type_name: "bool",
                tag,
            }),
        }
    }

    /// Take an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is short.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Take a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`], [`CodecError::LengthOverflow`] or
    /// [`CodecError::InvalidUtf8`].
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.take_len(1)?;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Decode a [`Codec`] value from this stream.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] the value's decoder reports.
    pub fn take<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }
}

/// Canonical binary encoding of a value.
///
/// Contract: `decode(encode(x)) == x` for every value, and the encoding
/// is canonical — `encode(decode(bytes))` reproduces `bytes` for every
/// `bytes` that decodes successfully. Implementations must consume
/// exactly the bytes they wrote and must not read global state.
///
/// Encodings are persisted: the flow engine's disk cache stores them in
/// `.cool-cache/` entries. Changing any impl's byte layout therefore
/// requires bumping the cache's on-disk format version
/// (`cool_core::disk::FORMAT_VERSION`), or stale entries from earlier
/// builds may decode into wrong values.
pub trait Codec: Sized {
    /// Append this value's encoding to `e`.
    fn encode(&self, e: &mut Encoder);

    /// Decode one value from the front of `d`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed input; never panics.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Encode `value` into a fresh byte vector.
#[must_use]
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.encode(&mut e);
    e.into_bytes()
}

/// Decode exactly one `T` from `bytes`, rejecting trailing input.
///
/// # Errors
///
/// Any [`CodecError`], including [`CodecError::TrailingBytes`] when the
/// value ends before the input does.
pub fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Decoder::new(bytes);
    let value = T::decode(&mut d)?;
    if d.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: d.remaining(),
        });
    }
    Ok(value)
}

macro_rules! codec_prim {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Codec for $ty {
            fn encode(&self, e: &mut Encoder) {
                e.$put(*self);
            }

            fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                d.$take()
            }
        }
    };
}

codec_prim!(u8, put_u8, take_u8);
codec_prim!(u16, put_u16, take_u16);
codec_prim!(u32, put_u32, take_u32);
codec_prim!(u64, put_u64, take_u64);
codec_prim!(u128, put_u128, take_u128);
codec_prim!(i64, put_i64, take_i64);
codec_prim!(usize, put_usize, take_usize);
codec_prim!(bool, put_bool, take_bool);
codec_prim!(f64, put_f64, take_f64);

impl Codec for String {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(self);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.take_str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.len());
        for item in self {
            item.encode(e);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        // Every element costs at least one byte, which bounds the
        // pre-allocation by the remaining input.
        let len = d.take_len(1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(d)?);
        }
        Ok(v)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

impl Codec for Duration {
    fn encode(&self, e: &mut Encoder) {
        e.put_u128(self.as_nanos());
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        // Total nanoseconds: the unique representation, so the encoding
        // stays canonical (no second (secs, nanos) spelling of the same
        // instant). Values past Duration's range are malformed input.
        let nanos = d.take_u128()?;
        let secs = nanos / 1_000_000_000;
        let Ok(secs) = u64::try_from(secs) else {
            return Err(CodecError::LengthOverflow { len: u64::MAX });
        };
        #[allow(clippy::cast_possible_truncation)] // remainder < 1e9
        Ok(Duration::new(secs, (nanos % 1_000_000_000) as u32))
    }
}

// ---------------------------------------------------------------------
// Wire framing: the envelope `cool serve` speaks over a local socket.

/// Frame magic, first bytes of every wire frame.
pub const FRAME_MAGIC: [u8; 8] = *b"COOLWIR\0";
/// Wire-frame format version. Bump on ANY change to the framed payload
/// encodings (the request/response `Codec` impls), exactly like the disk
/// cache's format version: a stale client must read as a bad frame, not
/// decode garbage.
///
/// v4: the four kind-specific cache get/put requests became one
/// `CacheGet` and one `CachePut`; the entry bytes carry their kind.
///
/// v5: a flow request's partitioner options shrank — the MILP options
/// lost their pricing-rule byte, the GA options their tournament size,
/// mutation rate and area penalty.
///
/// Still v5 after the flow, simulate and shutdown requests (tags 0, 1
/// and 3) and their replies were retired: no surviving payload changed a
/// byte, and a peer that still sends a retired tag gets the same
/// "unsupported request kind" error, on a connection that stays open,
/// as any unknown tag. A bump would only turn that answer into a
/// dropped connection.
pub const FRAME_VERSION: u32 = 5;
/// Upper bound on a frame's payload, checked *before* allocation so a
/// hostile or bit-flipped length prefix cannot OOM the server.
pub const MAX_FRAME_PAYLOAD: u64 = 64 * 1024 * 1024;
/// Fixed frame-header size: magic + version + payload length.
const FRAME_HEADER: usize = 8 + 4 + 8;
/// Trailing FNV-1a 128 payload checksum size.
const FRAME_CHECKSUM: usize = 16;

fn frame_checksum(payload: &[u8]) -> u128 {
    let mut h = ContentHasher::new();
    h.write(payload);
    h.finish()
}

fn bad_frame(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {why}"))
}

/// Write one framed payload: magic, version, length, payload, FNV-1a 128
/// checksum. The payload is typically [`to_bytes`] of a request or
/// response value.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: io::Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; FRAME_HEADER];
    head[..8].copy_from_slice(&FRAME_MAGIC);
    head[8..12].copy_from_slice(&FRAME_VERSION.to_le_bytes());
    head[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&frame_checksum(payload).to_le_bytes())?;
    w.flush()
}

/// Read one framed payload, validating magic, version, length bound and
/// checksum. Returns `Ok(None)` on a clean end-of-stream (the peer
/// closed before the first byte of a frame) so connection loops can tell
/// an orderly close from a truncated frame.
///
/// # Errors
///
/// I/O errors from the reader; [`io::ErrorKind::InvalidData`] for a
/// malformed frame (wrong magic or version, oversized length, checksum
/// mismatch); [`io::ErrorKind::UnexpectedEof`] for a frame cut short.
pub fn read_frame<R: io::Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; FRAME_HEADER];
    // Hand-rolled first read: `read_exact` cannot distinguish "peer
    // closed between frames" (fine) from "header cut short" (an error).
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(bad_frame("header cut short")),
            n => got += n,
        }
    }
    if head[..8] != FRAME_MAGIC {
        return Err(bad_frame("wrong magic"));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4"));
    if version != FRAME_VERSION {
        return Err(bad_frame("wrong version"));
    }
    let len = u64::from_le_bytes(head[12..20].try_into().expect("8"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(bad_frame("oversized payload"));
    }
    let len = usize::try_from(len).map_err(|_| bad_frame("oversized payload"))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut sum = [0u8; FRAME_CHECKSUM];
    r.read_exact(&mut sum)?;
    if u128::from_le_bytes(sum) != frame_checksum(&payload) {
        return Err(bad_frame("checksum mismatch"));
    }
    Ok(Some(payload))
}

impl Codec for NodeId {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.index());
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(NodeId::from_index(d.take_usize()?))
    }
}

impl Codec for EdgeId {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.index());
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EdgeId::from_index(d.take_usize()?))
    }
}

impl Codec for Resource {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Resource::Software(i) => {
                e.put_u8(0);
                e.put_usize(*i);
            }
            Resource::Hardware(i) => {
                e.put_u8(1);
                e.put_usize(*i);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(Resource::Software(d.take_usize()?)),
            1 => Ok(Resource::Hardware(d.take_usize()?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "Resource",
                tag,
            }),
        }
    }
}

impl Codec for Mapping {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.len());
        for (_, r) in self.iter() {
            r.encode(e);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = d.take_len(2)?;
        let mut assignment = Vec::with_capacity(len);
        for _ in 0..len {
            assignment.push(Resource::decode(d)?);
        }
        Ok(Mapping::from_vec(assignment))
    }
}

impl Codec for TimingClass {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            TimingClass::Dsp56001 => 0,
            TimingClass::GenericRisc => 1,
            TimingClass::Microcontroller => 2,
        });
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(TimingClass::Dsp56001),
            1 => Ok(TimingClass::GenericRisc),
            2 => Ok(TimingClass::Microcontroller),
            tag => Err(CodecError::InvalidTag {
                type_name: "TimingClass",
                tag,
            }),
        }
    }
}

impl Codec for Processor {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_f64(self.clock_mhz);
        self.timing.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Processor {
            name: d.take_str()?,
            clock_mhz: d.take_f64()?,
            timing: TimingClass::decode(d)?,
        })
    }
}

impl Codec for HwResource {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_f64(self.clock_mhz);
        e.put_u32(self.clb_capacity);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(HwResource {
            name: d.take_str()?,
            clock_mhz: d.take_f64()?,
            clb_capacity: d.take_u32()?,
        })
    }
}

impl Codec for Memory {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_u32(self.size_bytes);
        e.put_u32(self.base_address);
        e.put_u8(self.read_wait);
        e.put_u8(self.write_wait);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Memory {
            name: d.take_str()?,
            size_bytes: d.take_u32()?,
            base_address: d.take_u32()?,
            read_wait: d.take_u8()?,
            write_wait: d.take_u8()?,
        })
    }
}

impl Codec for Bus {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_u16(self.width_bits);
        e.put_u8(self.cycles_per_word);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Bus {
            name: d.take_str()?,
            width_bits: d.take_u16()?,
            cycles_per_word: d.take_u8()?,
        })
    }
}

impl Codec for Target {
    fn encode(&self, e: &mut Encoder) {
        self.processors.encode(e);
        self.hw.encode(e);
        self.memory.encode(e);
        self.bus.encode(e);
        e.put_f64(self.system_clock_mhz);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Target {
            processors: Vec::decode(d)?,
            hw: Vec::decode(d)?,
            memory: Memory::decode(d)?,
            bus: Bus::decode(d)?,
            system_clock_mhz: d.take_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
        assert_eq!(to_bytes(&back), bytes, "encoding must be canonical");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u16::MAX);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&u128::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&-0.0f64);
        roundtrip(&String::from("héllo\0world"));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(vec![(String::from("a"), 1u64)]));
        roundtrip(&Option::<u8>::None);
        roundtrip(&(1u8, 2u16, 3u32));
    }

    #[test]
    fn ir_types_roundtrip() {
        roundtrip(&NodeId::from_index(7));
        roundtrip(&EdgeId::from_index(9));
        roundtrip(&Resource::Hardware(1));
        roundtrip(&Mapping::from_vec(vec![
            Resource::Software(0),
            Resource::Hardware(1),
        ]));
        roundtrip(&Target::fuzzy_board());
        roundtrip(&Target::minimal());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = to_bytes(&Target::fuzzy_board());
        for cut in 0..bytes.len() {
            let r: Result<Target, CodecError> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&42u32);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            from_bytes::<Resource>(&[9, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(CodecError::InvalidTag {
                type_name: "Resource",
                ..
            })
        ));
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(CodecError::InvalidTag {
                type_name: "bool",
                ..
            })
        ));
    }

    #[test]
    fn huge_length_prefix_rejected_before_allocation() {
        // A vector claiming u64::MAX elements with a 9-byte body must be
        // rejected by the bounds check, not by the allocator.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.push(1);
        assert!(matches!(
            from_bytes::<Vec<u8>>(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn duration_roundtrips_and_stays_canonical() {
        roundtrip(&Duration::ZERO);
        roundtrip(&Duration::from_nanos(1));
        roundtrip(&Duration::new(3, 999_999_999));
        roundtrip(&Duration::MAX);
        // Nanos past Duration's range are malformed, not a panic.
        let mut e = Encoder::new();
        e.put_u128(u128::MAX);
        assert!(matches!(
            from_bytes::<Duration>(&e.into_bytes()),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn frames_roundtrip() {
        let payload = to_bytes(&Target::fuzzy_board());
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean close");
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();

        // Truncation at every cut: either a clean close (cut 0) or an
        // error, never a successful frame.
        for cut in 1..wire.len() {
            let err = read_frame(&mut &wire[..cut]).expect_err("truncated frame");
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "cut {cut}: {err}"
            );
        }

        // Wrong magic.
        let mut bad = wire.clone();
        bad[0] ^= 0x01;
        assert_eq!(
            read_frame(&mut bad.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Wrong version.
        let mut bad = wire.clone();
        bad[8] ^= 0x01;
        assert_eq!(
            read_frame(&mut bad.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // A flipped payload bit fails the checksum.
        let mut bad = wire.clone();
        bad[FRAME_HEADER + 2] ^= 0x40;
        assert_eq!(
            read_frame(&mut bad.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // A hostile length prefix is rejected before allocation.
        let mut bad = wire;
        bad[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut bad.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            CodecError::UnexpectedEof {
                needed: 4,
                remaining: 1,
            },
            CodecError::InvalidTag {
                type_name: "T",
                tag: 3,
            },
            CodecError::InvalidUtf8,
            CodecError::LengthOverflow { len: 10 },
            CodecError::TrailingBytes { remaining: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
