//! Compact binary wire format for active-message payloads.
//!
//! The C++ TriPoll prototype relies on the `cereal` serialization library to
//! move heterogeneous, variable-length payloads (strings, STL containers,
//! user structs) through MPI without padding. This module is the Rust
//! equivalent: a small, self-contained codec with
//!
//! * LEB128 varints for unsigned integers (so small vertex ids and counts
//!   cost one byte on the wire, which matters when the whole point of the
//!   evaluation is communication volume),
//! * zigzag encoding for signed integers,
//! * little-endian bit patterns for floats,
//! * length-prefixed strings, vectors and maps,
//! * tuples up to arity four.
//!
//! Every type that crosses a rank boundary implements [`Wire`]. Encoding
//! appends to a caller-supplied buffer (so per-destination send buffers are
//! filled without intermediate allocations); decoding reads from a
//! [`WireReader`] cursor and is fully checked — a truncated or corrupt
//! buffer yields [`WireError`], never undefined behaviour.
//!
//! # Encode-once sends: the borrowed half of the codec
//!
//! [`Wire`] requires an owned value, which forces a sender that holds its
//! payload scattered across graph storage (an adjacency slice, a metadata
//! field behind a reference) to first materialize an owned message —
//! `O(d²)` per-vertex `Vec` + clone churn on the TriPoll hot path.
//! [`WireEncode`] is the write-only, borrowed counterpart: anything
//! implementing it can append a wire image **byte-identical** to some
//! `Wire` type's encoding, straight from borrowed data.
//!
//! * references `&T` to any `T: Wire` encode as `T` does;
//! * owned primitives encode as themselves (so mixed tuples work);
//! * tuples of `WireEncode` values encode like tuples of the owned types;
//! * [`ColSuffixes`] encodes a *projection* of a slice once, without
//!   materializing any element — each column streams through a closure
//!   (see the columnar section below) — and [`ColSuffixes::suffix`]
//!   emits any suffix of it byte-identically to that suffix's
//!   [`ColBatch`].
//!
//! A handler registered for `M: Wire` can therefore be fed by
//! `Comm::send_encoded` / `Comm::send_to_many` with a `WireEncode` value
//! whose byte image matches `M`; the byte-identity contract is checked by
//! the property tests in this module. This is what lets a wedge-batch
//! suffix serialize directly from `Adjm+(p)` storage, and lets one
//! encoded adjacency projection fan out to many ranks as a memcpy.
//!
//! # Zero-copy receive: the borrowed half of decoding
//!
//! [`Wire::decode`] mirrors `Wire::encode`'s owned-value contract: it
//! materializes the message, which for a sequence-carrying record means
//! re-allocating exactly the sorted bytes that just arrived. A handler
//! registered with `Comm::register_borrowed` instead receives the
//! [`WireReader`] positioned at its record and decodes in place: eager
//! scalars with [`Wire::decode`], values it does not need with
//! [`Wire::skip`] (a bounds-only walk past one encoded value), and the
//! candidate batch through the columnar views below, which borrow from
//! the receive buffer for the duration of the handler call.
//!
//! Every length prefix read by this layer (and by the owned container
//! decoders) is validated against the bytes remaining in the cursor
//! before any allocation or walk: a hostile or truncated prefix yields
//! [`WireError::SeqOverrun`], never an OOM-sized reservation.
//!
//! # Columnar (SoA) sequences: the wedge-batch frame
//!
//! A `Vec` of candidates would ship a batch as `n × (vertex, degree,
//! meta)` tuples. The columnar frame stores the same batch as three
//! packed columns instead — better varint locality
//! (like values compress alike and prefetch alike), fewer bytes per
//! candidate (the degree column is delta-coded), and a receive side
//! that can intersect on the key columns while leaving the metadata
//! column untouched until a triangle actually matches. The wire image,
//! in order:
//!
//! ```text
//! varint n                    element count
//! varint vbytes ; vertex column   n raw varints
//! varint dbytes ; degree column   first value raw, then zigzag varint
//!                                 deltas (wrapping, so any sequence
//!                                 round-trips; sorted batches yield
//!                                 1-byte deltas)
//! varint mbytes ; meta column     n × T wire encodings
//! ```
//!
//! Each column carries its **byte length**, so capturing a whole frame
//! is three bounded `take`s — no element walk — and a consumer that
//! exits the merge early leaves no framing debt (the record was fully
//! consumed at capture). Hardening mirrors the owned container
//! decoders, applied per column: `n` is rejected if it exceeds the bytes
//! remaining ([`WireError::SeqOverrun`] — every vertex varint costs at
//! least one byte), each byte-length prefix is validated against the
//! bytes remaining before its column is sliced, each column must hold
//! at least `n × MIN_ENCODED_BYTES` of its element type, and a
//! zero-element frame must have empty columns. Beyond the bounds
//! checks, columns must be consumed *byte-budget exactly* — trailing
//! bytes inside a column are an error, not slack — enforced wherever a
//! column is actually walked to its end: always by the owned
//! [`ColBatch`] decode, by [`ColKeys`] when the key walk completes,
//! by [`ColMetas::get`] when the final metadata element is decoded
//! (bytes behind an early exit are never walked; see [`ColMetas`]), and
//! by [`ColMetas::offsets`], which walks the whole meta column.
//!
//! The shapes:
//!
//! * [`ColBatch`] — the owned message type (`Vec<(u64, u64, T)>` with
//!   the columnar wire image); the reference decode path.
//! * [`ColSuffixes`] — the borrowed encoder: three projection closures
//!   stream one list's columns straight from application storage, once,
//!   with per-element offsets, so the frame of any suffix is a copy of
//!   byte suffixes (a wedge apex ships many nested suffixes of one
//!   list), byte-identical to that suffix's [`ColBatch`]. Its buffers
//!   are reused across fills (zero steady-state allocation).
//! * [`ColCursor`] — single-pass decode: [`ColKeys`] walks the two key
//!   columns in lockstep while [`ColMetas`] advances the meta column
//!   lazily, only as far as the indices actually requested, or indexes
//!   it in one walk ([`ColMetas::offsets`]) for decodes in any order. A
//!   cursor is a few borrowed slices, so cloning it (or either half)
//!   walks the captured frame again: a pushed batch reads its metadata
//!   through the lazy walk; a pull delivery decodes its keys once and
//!   indexes its meta column once for all of its resume suffixes.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Errors produced while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes mid-value.
    UnexpectedEof {
        /// Bytes that were needed to finish the value.
        needed: usize,
        /// Bytes that remained in the buffer.
        remaining: usize,
    },
    /// A varint ran longer than the maximum encodable width.
    VarintOverflow,
    /// A length prefix or discriminant had an impossible value.
    InvalidValue(&'static str),
    /// A string payload was not valid UTF-8.
    InvalidUtf8,
    /// A sequence length prefix claimed more payload than the bytes
    /// remaining in the buffer could possibly hold.
    SeqOverrun {
        /// Element (or byte) count the prefix claimed.
        claimed: u64,
        /// Bytes that remained in the buffer.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of wire buffer: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::VarintOverflow => write!(f, "varint exceeded 64 bits"),
            WireError::InvalidValue(what) => write!(f, "invalid wire value: {what}"),
            WireError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::SeqOverrun { claimed, remaining } => write!(
                f,
                "sequence length prefix claims {claimed} elements, more than the {remaining} \
                 remaining bytes could hold"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Checked cursor over a received byte buffer.
#[derive(Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes and returns exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes a single byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Advances past one LEB128 varint without assembling its value.
    #[inline]
    pub(crate) fn skip_varint(&mut self) -> Result<(), WireError> {
        // 10 bytes is the widest encoding take_varint accepts.
        for _ in 0..10 {
            if self.take_u8()? & 0x80 == 0 {
                return Ok(());
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Decodes an LEB128 varint of at most 64 bits.
    ///
    /// One-byte varints (counts, small ids, delta-coded degrees) take
    /// the earliest exit; longer varints whose terminator lies within
    /// the next eight buffer bytes are cracked in one SWAR pass
    /// (`crack_word`) instead of the byte-at-a-time loop. Both paths
    /// accept exactly the byte strings the scalar loop accepts and
    /// yield the same values and errors.
    #[inline]
    pub fn take_varint(&mut self) -> Result<u64, WireError> {
        if let Some(&b0) = self.buf.get(self.pos) {
            if b0 & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b0));
            }
            if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
                let w = u64::from_le_bytes(word.try_into().unwrap());
                if let Some((v, len)) = crack_word(w) {
                    self.pos += len;
                    return Ok(v);
                }
            }
        }
        self.take_varint_scalar()
    }

    /// The byte-at-a-time LEB128 decode loop — the reference decoder
    /// ([`take_varint`](WireReader::take_varint)'s slow path: buffer
    /// tails shorter than a SWAR word, and 9–10-byte varints, whose
    /// overflow checks live here).
    fn take_varint_scalar(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }
}

/// Every continuation bit of a little-endian varint word.
const VARINT_CONT_MASK: u64 = 0x8080_8080_8080_8080;

/// Cracks one LEB128 varint out of a little-endian `u64` load: one SWAR
/// pass over the inverted continuation bits locates the terminator
/// (`trailing_zeros` — the movemask equivalent on a scalar word), then
/// [`swar_extract`] folds the payload lanes. Returns `None` when no
/// byte in the word terminates the varint (a 9–10-byte encoding, which
/// the scalar loop must decode for its overflow checks).
#[inline]
fn crack_word(w: u64) -> Option<(u64, usize)> {
    let term = !w & VARINT_CONT_MASK;
    if term == 0 {
        return None;
    }
    let nbytes = (term.trailing_zeros() as usize >> 3) + 1;
    Some((swar_extract(w, nbytes), nbytes))
}

/// Compacts the low `nbytes` 7-bit payload lanes of `w` into one value
/// by three mask-and-shift folds (8×7-bit → 4×14 → 2×28 → 56 bits).
/// `nbytes ≤ 8`, so the result never exceeds 56 bits and no overflow
/// check is needed on this path.
#[inline]
fn swar_extract(w: u64, nbytes: usize) -> u64 {
    let w = if nbytes == 8 {
        w
    } else {
        w & ((1u64 << (8 * nbytes)) - 1)
    };
    let w = w & 0x7f7f_7f7f_7f7f_7f7f;
    let w = (w & 0x007f_007f_007f_007f) | ((w & 0x7f00_7f00_7f00_7f00) >> 1);
    let w = (w & 0x0000_3fff_0000_3fff) | ((w & 0x3fff_0000_3fff_0000) >> 2);
    (w & 0x0000_0000_0fff_ffff) | ((w & 0x0fff_ffff_0000_0000) >> 4)
}

/// Appends an LEB128 varint to `buf`.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Number of bytes [`put_varint`] will emit for `v`.
#[inline]
pub(crate) fn varint_len(v: u64) -> usize {
    // 1 + floor(bits/7); bits==0 for v==0 still needs one byte.
    let bits = 64 - v.leading_zeros() as usize;
    std::cmp::max(1, bits.div_ceil(7))
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Types that can cross a rank boundary.
///
/// The contract is symmetric: `decode(encode(x)) == x` and decode consumes
/// exactly the bytes encode produced. The proptest suite in this module
/// checks both properties for every implementation.
///
/// One deliberate exception: sequences of **zero-sized** elements
/// (`MIN_ENCODED_BYTES == 0`, i.e. `()` and tuples of it) decode only up
/// to `ZST_SEQ_MAX` elements — beyond that the length prefix is
/// indistinguishable from a hostile frame that would spin the decode
/// loop, so `decode` returns [`WireError::SeqOverrun`] even for bytes
/// `encode` produced.
pub trait Wire: Sized {
    /// Minimum bytes one encoded value can occupy on the wire. Used to
    /// reject hostile sequence length prefixes *before* any allocation
    /// or walk: a prefix claiming `n` elements needs at least
    /// `n * MIN_ENCODED_BYTES` bytes to follow. `0` is reserved for
    /// zero-sized encodings (`()` and tuples thereof).
    const MIN_ENCODED_BYTES: usize = 1;

    /// Appends the encoded representation to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Reads one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
    /// Advances `r` past one encoded value without materializing it.
    ///
    /// The default decodes and drops; implementations with length
    /// prefixes or fixed widths override it with bounds-only walks (no
    /// allocation, no UTF-8 validation, no value assembly). Skipping
    /// validates *structure* only: a skipped value may still fail
    /// value-level checks (UTF-8, discriminants) when later decoded.
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        Self::decode(r).map(drop)
    }
}

/// Ceiling on the element count of a sequence whose elements occupy
/// zero wire bytes (`MIN_ENCODED_BYTES == 0`): the byte bound gives no
/// purchase there, and without a cap a hostile length prefix would
/// spin the decode loop up to 2^64 times. This caps decodable
/// zero-sized sequences (see the [`Wire`] contract note).
const ZST_SEQ_MAX: u64 = 1 << 24;

/// Single home of the hostile-length-prefix policy, shared by the
/// owned container decoders, the skip walks and the sequence cursors:
/// each of the `claimed` elements occupies at least `min_bytes` on the
/// wire (zero-sized elements are bounded by [`ZST_SEQ_MAX`] instead).
#[inline]
fn check_seq_len_min(
    claimed: u64,
    min_bytes: usize,
    r: &WireReader<'_>,
) -> Result<usize, WireError> {
    let fits = if min_bytes == 0 {
        claimed <= ZST_SEQ_MAX
    } else {
        claimed.saturating_mul(min_bytes as u64) <= r.remaining() as u64
    };
    if !fits {
        return Err(WireError::SeqOverrun {
            claimed,
            remaining: r.remaining(),
        });
    }
    Ok(claimed as usize)
}

/// [`check_seq_len_min`] with the bound taken from `T`'s encoding.
#[inline]
fn check_seq_len<T: Wire>(claimed: u64, r: &WireReader<'_>) -> Result<usize, WireError> {
    check_seq_len_min(claimed, T::MIN_ENCODED_BYTES, r)
}

/// Safe pre-allocation capacity for a validated sequence length: a
/// zero-sized wire encoding says nothing about `T`'s in-memory size,
/// so such sequences start at capacity 0 and grow normally.
#[inline]
fn seq_capacity<T: Wire>(len: usize) -> usize {
    if T::MIN_ENCODED_BYTES == 0 {
        0
    } else {
        len
    }
}

impl Wire for () {
    const MIN_ENCODED_BYTES: usize = 0;
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue("bool discriminant")),
        }
    }
}

impl Wire for u8 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u8()
    }
}

macro_rules! impl_wire_varint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                put_varint(buf, *self as u64);
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let v = r.take_varint()?;
                <$t>::try_from(v).map_err(|_| WireError::InvalidValue(stringify!($t)))
            }
            #[inline]
            fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
                r.skip_varint()
            }
        }
    )*};
}

impl_wire_varint!(u16, u32, u64, usize);

macro_rules! impl_wire_zigzag {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                put_varint(buf, zigzag_encode(*self as i64));
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let v = zigzag_decode(r.take_varint()?);
                <$t>::try_from(v).map_err(|_| WireError::InvalidValue(stringify!($t)))
            }
            #[inline]
            fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
                r.skip_varint()
            }
        }
    )*};
}

impl_wire_zigzag!(i8, i16, i32, i64, isize);

impl Wire for f32 {
    const MIN_ENCODED_BYTES: usize = 4;
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let b = r.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    #[inline]
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        r.take(4).map(drop)
    }
}

impl Wire for f64 {
    const MIN_ENCODED_BYTES: usize = 8;
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let b = r.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    #[inline]
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        r.take(8).map(drop)
    }
}

impl Wire for String {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = check_seq_len::<u8>(r.take_varint()?, r)?;
        let bytes = r.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::InvalidUtf8)
    }
    #[inline]
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        // Bounds-only: no copy, no UTF-8 validation.
        let len = check_seq_len::<u8>(r.take_varint()?, r)?;
        r.take(len).map(drop)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::InvalidValue("Option discriminant")),
        }
    }
    #[inline]
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        match r.take_u8()? {
            0 => Ok(()),
            1 => T::skip(r),
            _ => Err(WireError::InvalidValue("Option discriminant")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // A hostile length prefix errors here, before any reservation.
        let len = check_seq_len::<T>(r.take_varint()?, r)?;
        let mut out = Vec::with_capacity(seq_capacity::<T>(len));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
    #[inline]
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        let len = check_seq_len::<T>(r.take_varint()?, r)?;
        for _ in 0..len {
            T::skip(r)?;
        }
        Ok(())
    }
}

impl<K, V, S> Wire for HashMap<K, V, S>
where
    K: Wire + Eq + Hash,
    V: Wire,
    S: BuildHasher + Default,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = check_seq_len::<(K, V)>(r.take_varint()?, r)?;
        let mut out = HashMap::with_capacity_and_hasher(seq_capacity::<(K, V)>(len), S::default());
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        let len = check_seq_len::<(K, V)>(r.take_varint()?, r)?;
        for _ in 0..len {
            K::skip(r)?;
            V::skip(r)?;
        }
        Ok(())
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_ENCODED_BYTES: usize = $(<$name>::MIN_ENCODED_BYTES +)+ 0;
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
            #[inline]
            fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
                $($name::skip(r)?;)+
                Ok(())
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Write-only, borrowed wire encoding (see the module docs).
///
/// Implementors append bytes that are **byte-identical** to the
/// [`Wire::encode`] output of some owned message type; the receiving
/// handler decodes with that owned type's [`Wire::decode`]. The codec
/// itself guarantees the identity for the impls in this module; adapter
/// closures passed to [`ColSuffixes::fill`] must uphold it for their
/// element projection (encode exactly the fields the owned element type
/// encodes).
pub trait WireEncode {
    /// Appends the wire image to `buf`.
    fn encode_wire(&self, buf: &mut Vec<u8>);
}

/// A reference encodes exactly as its referent.
impl<T: Wire> WireEncode for &T {
    #[inline]
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        (*self).encode(buf);
    }
}

macro_rules! impl_wire_encode_owned {
    ($($t:ty),*) => {$(
        impl WireEncode for $t {
            #[inline]
            fn encode_wire(&self, buf: &mut Vec<u8>) {
                self.encode(buf);
            }
        }
    )*};
}

impl_wire_encode_owned!(
    (),
    bool,
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64
);

macro_rules! impl_wire_encode_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: WireEncode),+> WireEncode for ($($name,)+) {
            #[inline]
            fn encode_wire(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode_wire(buf);)+
            }
        }
    };
}

impl_wire_encode_tuple!(A: 0);
impl_wire_encode_tuple!(A: 0, B: 1);
impl_wire_encode_tuple!(A: 0, B: 1, C: 2);
impl_wire_encode_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// --------------------------------------------------------------------
// Columnar (SoA) sequences — see the module docs for the frame layout.
// --------------------------------------------------------------------

/// Capacity above which the thread-local meta-column scratch is dropped
/// instead of retained (one giant hub batch must not stay resident).
const COL_SCRATCH_MAX: usize = 1 << 20;

thread_local! {
    /// Scratch for staging a meta column so its byte length can prefix
    /// it. Taken out of the cell while in use, so a re-entrant encode
    /// (a `T` whose encoding itself builds a columnar frame) falls back
    /// to a fresh vector instead of corrupting the outer column.
    static COL_SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

fn with_col_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    COL_SCRATCH.with(|cell| {
        let mut s = cell.take();
        s.clear();
        let out = f(&mut s);
        if s.capacity() <= COL_SCRATCH_MAX {
            cell.set(s);
        }
        out
    })
}

/// Writes one byte-length-prefixed column of raw varints. The byte
/// budget is computed by an arithmetic pre-pass ([`varint_len`]), so no
/// scratch staging is needed.
fn write_raw_col(buf: &mut Vec<u8>, vals: impl Iterator<Item = u64> + Clone) {
    let bytes: usize = vals.clone().map(varint_len).sum();
    put_varint(buf, bytes as u64);
    for v in vals {
        put_varint(buf, v);
    }
}

/// Writes one byte-length-prefixed delta-coded column: first value raw,
/// then zigzag varints of wrapping differences. Monotone inputs (a
/// `<+`-sorted batch's degrees) become one-byte deltas; arbitrary
/// inputs still round-trip via the wrapping arithmetic.
fn write_delta_col(buf: &mut Vec<u8>, vals: impl Iterator<Item = u64> + Clone) {
    let mut bytes = 0usize;
    let mut prev = 0u64;
    let mut first = true;
    for v in vals.clone() {
        bytes += if first {
            first = false;
            varint_len(v)
        } else {
            varint_len(zigzag_encode(v.wrapping_sub(prev) as i64))
        };
        prev = v;
    }
    put_varint(buf, bytes as u64);
    let mut prev = 0u64;
    let mut first = true;
    for v in vals {
        if first {
            first = false;
            put_varint(buf, v);
        } else {
            put_varint(buf, zigzag_encode(v.wrapping_sub(prev) as i64));
        }
        prev = v;
    }
}

/// Writes the byte-length-prefixed meta column: `write_all` appends
/// every element's encoding to the scratch, which is then measured and
/// copied behind its prefix.
fn write_meta_col(buf: &mut Vec<u8>, write_all: impl FnOnce(&mut Vec<u8>)) {
    with_col_scratch(|s| {
        write_all(s);
        put_varint(buf, s.len() as u64);
        buf.extend_from_slice(s);
    });
}

/// Takes one byte-length-prefixed column off `r`, validating the prefix
/// against the bytes remaining and the `n × min_bytes` element floor
/// before slicing — the per-column [`WireError::SeqOverrun`] hardening.
fn take_col<'a>(r: &mut WireReader<'a>, n: usize, min_bytes: usize) -> Result<&'a [u8], WireError> {
    let claimed = r.take_varint()?;
    if claimed > r.remaining() as u64 {
        return Err(WireError::SeqOverrun {
            claimed,
            remaining: r.remaining(),
        });
    }
    let bytes = claimed as usize;
    if (n as u64).saturating_mul(min_bytes as u64) > bytes as u64 {
        return Err(WireError::SeqOverrun {
            claimed: n as u64,
            remaining: bytes,
        });
    }
    r.take(bytes)
}

/// The captured column extents of one frame: `(n, vertex column,
/// degree column, meta column)`.
type ColExtents<'a> = (usize, &'a [u8], &'a [u8], &'a [u8]);

/// Captures the three column extents of one frame (bounded takes only —
/// no element walks, no allocation). Shared by the owned decode, the
/// skip walk and both borrowed cursor shapes, so every path rejects a
/// given hostile frame at the same point with the same error.
fn capture_cols<'a, T: Wire>(r: &mut WireReader<'a>) -> Result<ColExtents<'a>, WireError> {
    let n64 = r.take_varint()?;
    // Every vertex-column element costs at least one byte, so a count
    // beyond the whole buffer is hostile before any prefix is read.
    if n64 > r.remaining() as u64 {
        return Err(WireError::SeqOverrun {
            claimed: n64,
            remaining: r.remaining(),
        });
    }
    let n = n64 as usize;
    let vcol = take_col(r, n, 1)?;
    let dcol = take_col(r, n, 1)?;
    let mcol = take_col(r, n, T::MIN_ENCODED_BYTES)?;
    // A zero-element frame with nonempty columns would evade every
    // walk-time budget check (there is nothing to walk); reject it here
    // so all decode paths refuse it identically.
    if n == 0 && (!vcol.is_empty() || !dcol.is_empty() || !mcol.is_empty()) {
        return Err(WireError::InvalidValue("columnar byte budget mismatch"));
    }
    Ok((n, vcol, dcol, mcol))
}

/// An owned `(u64, u64, T)` batch with the **columnar** wire image —
/// the SoA counterpart of `Vec<(u64, u64, T)>` (which encodes tuple
/// by tuple). This is the message type the wedge-batch handlers are
/// keyed on and the reference decode path for differential testing; the
/// hot send path never materializes one (see [`ColSuffixes`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColBatch<T>(pub Vec<(u64, u64, T)>);

impl<T: Wire> Wire for ColBatch<T> {
    /// Empty frame: a zero count plus three zero byte-length prefixes.
    const MIN_ENCODED_BYTES: usize = 4;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.0.len() as u64);
        write_raw_col(buf, self.0.iter().map(|c| c.0));
        write_delta_col(buf, self.0.iter().map(|c| c.1));
        write_meta_col(buf, |s| {
            for c in &self.0 {
                c.2.encode(s);
            }
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (n, vcol, dcol, mcol) = capture_cols::<T>(r)?;
        let mut vr = WireReader::new(vcol);
        let mut dr = WireReader::new(dcol);
        let mut mr = WireReader::new(mcol);
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            let v = vr.take_varint()?;
            let d = if i == 0 {
                dr.take_varint()?
            } else {
                prev.wrapping_add(zigzag_decode(dr.take_varint()?) as u64)
            };
            prev = d;
            out.push((v, d, T::decode(&mut mr)?));
        }
        if !vr.is_empty() || !dr.is_empty() || !mr.is_empty() {
            return Err(WireError::InvalidValue("columnar byte budget mismatch"));
        }
        Ok(ColBatch(out))
    }

    fn skip(r: &mut WireReader<'_>) -> Result<(), WireError> {
        // Structure-only: the byte prefixes bound the whole frame, so a
        // columnar batch skips in O(columns), not O(elements).
        capture_cols::<T>(r).map(drop)
    }
}

/// Where one element of a [`ColSuffixes`] encoding starts in each
/// column, and its raw degree (the degree column's head whenever a
/// suffix starts at this element).
#[derive(Debug, Clone, Copy)]
struct SuffixMark {
    v: usize,
    d: usize,
    m: usize,
    degree: u64,
}

/// One list's three columns, encoded once, from which the frame of any
/// suffix is emitted by copying byte suffixes — the encoder for a
/// sender that ships many nested suffixes of one list (a wedge apex
/// ships `d+ − 1` suffixes of its `Adjm+(p)`).
///
/// The vertex and meta columns of a suffix are byte suffixes of the
/// whole list's. The degree column is too, apart from its head: a
/// suffix starting at element `j` carries `j`'s raw degree, then the
/// stored deltas of elements `j + 1..`. [`ColSuffixes::fill`] keeps each
/// element's column offsets and raw degree, so [`ColSuffixes::suffix`]
/// costs three length prefixes, one raw degree and three copies.
/// Every suffix is byte-identical to the [`ColBatch`] of the same
/// elements, so the receiving handler can stay keyed on the owned type
/// while the sender streams straight from storage:
///
/// ```
/// use tripoll_ygm::wire::{to_bytes, ColBatch, ColSuffixes, Wire, WireEncode};
///
/// // Application storage: (vertex, degree, metadata) scattered in a struct.
/// struct Entry { v: u64, degree: u64, meta: u32 }
/// let adj = [
///     Entry { v: 7, degree: 3, meta: 40 },
///     Entry { v: 19, degree: 3, meta: 41 },
///     Entry { v: 4, degree: 5, meta: 42 },
/// ];
/// let mut cols = ColSuffixes::new();
/// cols.fill(&adj, |e| e.v, |e| e.degree, |e, buf| e.meta.encode(buf));
/// for j in 0..=adj.len() {
///     let mut once = Vec::new();
///     cols.suffix(j).encode_wire(&mut once);
///     let owned = ColBatch::<u32>(adj[j..].iter().map(|e| (e.v, e.degree, e.meta)).collect());
///     assert_eq!(once, to_bytes(&owned));
/// }
/// ```
///
/// The buffers are cleared, not freed, by each fill, so one
/// `ColSuffixes` reused across lists allocates only while it grows.
#[derive(Debug, Default)]
pub struct ColSuffixes {
    vcol: Vec<u8>,
    /// Zigzag degree deltas of elements `1..`; element 0 has none.
    dcol: Vec<u8>,
    mcol: Vec<u8>,
    /// One mark per element, then one at the three column ends.
    marks: Vec<SuffixMark>,
}

impl ColSuffixes {
    /// An empty encoder; every fill reuses its buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes the three columns of `items` once, replacing the last
    /// fill. `v` and `d` project the two key columns; `m` appends one
    /// element's metadata encoding, exactly the bytes the owned element
    /// type would encode (the [`WireEncode`] adapter contract).
    pub fn fill<S>(
        &mut self,
        items: &[S],
        v: impl Fn(&S) -> u64,
        d: impl Fn(&S) -> u64,
        m: impl Fn(&S, &mut Vec<u8>),
    ) {
        self.vcol.clear();
        self.dcol.clear();
        self.mcol.clear();
        self.marks.clear();
        let mut prev = 0u64;
        for (i, item) in items.iter().enumerate() {
            let degree = d(item);
            self.marks.push(SuffixMark {
                v: self.vcol.len(),
                d: self.dcol.len(),
                m: self.mcol.len(),
                degree,
            });
            put_varint(&mut self.vcol, v(item));
            if i > 0 {
                put_varint(
                    &mut self.dcol,
                    zigzag_encode(degree.wrapping_sub(prev) as i64),
                );
            }
            prev = degree;
            m(item, &mut self.mcol);
        }
        self.marks.push(SuffixMark {
            v: self.vcol.len(),
            d: self.dcol.len(),
            m: self.mcol.len(),
            degree: 0,
        });
    }

    /// Elements of the last fill (0 before the first).
    pub fn len(&self) -> usize {
        self.marks.len().saturating_sub(1)
    }

    /// True when the last fill held no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame of elements `j..` of the last fill; `j == len()` is
    /// the empty frame.
    ///
    /// # Panics
    ///
    /// If `j > len()`.
    pub fn suffix(&self, j: usize) -> ColSuffix<'_> {
        assert!(
            j <= self.len(),
            "suffix {j} of a {}-element list",
            self.len()
        );
        ColSuffix { cols: self, j }
    }
}

/// The frame of one suffix of a [`ColSuffixes`] encoding, built by
/// [`ColSuffixes::suffix`].
#[derive(Debug, Clone, Copy)]
pub struct ColSuffix<'a> {
    cols: &'a ColSuffixes,
    j: usize,
}

impl WireEncode for ColSuffix<'_> {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        let ColSuffixes {
            vcol,
            dcol,
            mcol,
            marks,
        } = self.cols;
        put_varint(buf, (self.cols.len() - self.j) as u64);
        // The end mark is the last; a nonempty suffix has one before it.
        let &[head, next, ..] = &marks[self.j..] else {
            // The empty frame: three zero byte-length prefixes.
            buf.extend_from_slice(&[0, 0, 0]);
            return;
        };
        let vbytes = &vcol[head.v..];
        put_varint(buf, vbytes.len() as u64);
        buf.extend_from_slice(vbytes);
        let deltas = &dcol[next.d..];
        put_varint(buf, (varint_len(head.degree) + deltas.len()) as u64);
        put_varint(buf, head.degree);
        buf.extend_from_slice(deltas);
        let mbytes = &mcol[head.m..];
        put_varint(buf, mbytes.len() as u64);
        buf.extend_from_slice(mbytes);
    }
}

/// One element of the key columns: its batch index plus the two eagerly
/// decoded key values. The metadata at `idx` is fetched separately —
/// and only on demand — through [`ColMetas::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColKey {
    /// Position of this element within the batch.
    pub idx: usize,
    /// First key column value (the candidate vertex id).
    pub v: u64,
    /// Second key column value (delta-decoded; the candidate degree).
    pub degree: u64,
}

/// Lockstep walk of the two key columns — the only bytes the merge-path
/// intersection touches. A decode error exhausts the walk (the column
/// readers are stranded mid-element).
#[derive(Clone)]
pub struct ColKeys<'a> {
    v: WireReader<'a>,
    d: WireReader<'a>,
    prev: u64,
    idx: usize,
    n: usize,
}

impl<'a> ColKeys<'a> {
    /// Elements not yet walked.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.n - self.idx
    }

    /// The captured vertex and degree columns, whole, however far the
    /// walk has gone: a receiver that kept the bytes of an earlier
    /// frame can tell by comparing them that this frame decodes to the
    /// same keys.
    #[inline]
    pub fn column_bytes(&self) -> (&'a [u8], &'a [u8]) {
        (self.v.buf, self.d.buf)
    }

    /// Byte offsets of the walk in the vertex and degree columns: where
    /// the next element's two varints start.
    #[inline]
    pub fn positions(&self) -> (usize, usize) {
        (self.v.pos, self.d.pos)
    }

    /// Decodes the next key pair, `None` once exhausted. The final
    /// element also enforces the byte budget: key columns longer than
    /// the element count are corrupt, not slack.
    #[inline]
    pub fn next_key(&mut self) -> Option<Result<ColKey, WireError>> {
        if self.idx == self.n {
            return None;
        }
        let out = (|| {
            let v = self.v.take_varint()?;
            let degree = if self.idx == 0 {
                self.d.take_varint()?
            } else {
                self.prev
                    .wrapping_add(zigzag_decode(self.d.take_varint()?) as u64)
            };
            if self.idx + 1 == self.n && (!self.v.is_empty() || !self.d.is_empty()) {
                return Err(WireError::InvalidValue("columnar byte budget mismatch"));
            }
            Ok(ColKey {
                idx: self.idx,
                v,
                degree,
            })
        })();
        match &out {
            Ok(k) => {
                self.prev = k.degree;
                self.idx += 1;
            }
            Err(_) => self.idx = self.n,
        }
        Some(out)
    }
}

impl Iterator for ColKeys<'_> {
    type Item = Result<ColKey, WireError>;
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.next_key()
    }
}

/// Reader over the meta column, in one of two ways.
///
/// * **Lazy, forward** — [`ColMetas::get`] skips to the requested index
///   (bounds-only walks) and decodes exactly one element. Indices must
///   be requested in increasing order — which a merge-path intersection
///   produces by construction — so misses cost a skip, not a decode,
///   and unmatched tails cost nothing at all. The push handler reads a
///   wedge batch's metadata this way: one batch, one walk.
/// * **Indexed** — [`ColMetas::offsets`] walks the whole column once,
///   enforcing its byte budget, and stores every element's offset;
///   [`ColMetas::decode_at`] then decodes any element, in any order,
///   without a skip. The pull handler reads a delivery's metadata this
///   way: many resume suffixes probe one pulled list, each restarting
///   at its own matches, and one walk serves them all.
///
/// The lazy walk's laziness is a deliberate trade against validation
/// depth: the column's *byte extent* was bounds-checked at capture (it
/// can never be over-read), but elements behind the last index actually
/// requested are not even structurally walked, so value-level
/// corruption hiding there goes unreported. The owned [`ColBatch`]
/// decode, which materializes everything, is the strict reference: it
/// rejects any column not consumed byte-budget exactly, and so does
/// [`ColMetas::offsets`].
pub struct ColMetas<'a, T> {
    r: WireReader<'a>,
    pos: usize,
    n: usize,
    /// Set once an element skip/decode fails: the reader is stranded
    /// mid-element, so no later index can be located reliably.
    poisoned: bool,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// A clone is an independent walk of the same borrowed column. Written
/// out: a derive would require `T: Clone`, though the walk holds only
/// borrowed bytes, never a `T`.
impl<T> Clone for ColMetas<'_, T> {
    fn clone(&self) -> Self {
        ColMetas {
            r: self.r.clone(),
            pos: self.pos,
            n: self.n,
            poisoned: self.poisoned,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Wire> ColMetas<'_, T> {
    /// Decodes the metadata of batch element `idx`. Errors on repeated,
    /// backward or out-of-range indices. A request that consumes the
    /// final element also enforces the column's byte budget (trailing
    /// bytes are corruption, not slack); budgets of elements *behind*
    /// an early exit are never walked — that is the laziness contract
    /// (see the type docs).
    ///
    /// An element skip/decode error **poisons** the reader — it is
    /// stranded mid-element, so a later request reports the corruption
    /// instead of decoding from a misaligned offset (the same
    /// convention as [`ColKeys`] exhausting its walk).
    pub fn get(&mut self, idx: usize) -> Result<T, WireError> {
        if self.poisoned {
            return Err(WireError::InvalidValue(
                "meta column poisoned by an element decode error",
            ));
        }
        if idx >= self.n {
            return Err(WireError::InvalidValue("meta column index out of range"));
        }
        if idx < self.pos {
            return Err(WireError::InvalidValue(
                "meta column indices must be requested in increasing order",
            ));
        }
        let out = (|| {
            while self.pos < idx {
                T::skip(&mut self.r)?;
                self.pos += 1;
            }
            self.pos += 1;
            let out = T::decode(&mut self.r)?;
            if self.pos == self.n && !self.r.is_empty() {
                return Err(WireError::InvalidValue("columnar byte budget mismatch"));
            }
            Ok(out)
        })();
        if out.is_err() {
            self.poisoned = true;
        }
        out
    }

    /// Walks the whole column once, from its first element whatever
    /// [`ColMetas::get`] has read, and stores each element's byte offset
    /// in `out`, which is cleared first: `out[i]` is where element `i`
    /// starts, for [`ColMetas::decode_at`]. Fails where a decode of every
    /// element would fail structurally: a truncated or overlong element,
    /// or bytes past the last one (the byte budget). A column longer
    /// than `u32` offsets reach fails too.
    pub fn offsets(&self, out: &mut Vec<u32>) -> Result<(), WireError> {
        let mut r = WireReader::new(self.r.buf);
        if r.remaining() > u32::MAX as usize {
            return Err(WireError::InvalidValue("meta column too long to index"));
        }
        out.clear();
        out.reserve(self.n);
        for _ in 0..self.n {
            out.push(r.position() as u32);
            T::skip(&mut r)?;
        }
        if !r.is_empty() {
            return Err(WireError::InvalidValue("columnar byte budget mismatch"));
        }
        Ok(())
    }

    /// Decodes the element that starts at `offset`, one of the offsets
    /// [`ColMetas::offsets`] stored. Value-level errors (a `String` that
    /// is not UTF-8, say) surface here, as they do in [`ColMetas::get`].
    #[inline]
    pub fn decode_at(&self, offset: u32) -> Result<T, WireError> {
        let bytes = self.r.buf.get(offset as usize..).unwrap_or_default();
        T::decode(&mut WireReader::new(bytes))
    }
}

/// Single-pass decode of one columnar frame. [`ColCursor::begin`]
/// captures the whole frame off the shared envelope reader (three
/// bounded takes), so there is no framing debt: a consumer may stop
/// anywhere and the next record still decodes.
///
/// The two halves are independent fields so the key walk and the lazy
/// meta reads can be borrowed by different closures of one merge-path
/// call. A clone is an independent walk of the same captured frame.
pub struct ColCursor<'a, T> {
    /// The key columns, walked during intersection.
    pub keys: ColKeys<'a>,
    /// The meta column, decoded on match only.
    pub metas: ColMetas<'a, T>,
}

/// Written out, as for [`ColMetas`], so cloning needs no `T: Clone`.
impl<T> Clone for ColCursor<'_, T> {
    fn clone(&self) -> Self {
        ColCursor {
            keys: self.keys.clone(),
            metas: self.metas.clone(),
        }
    }
}

impl<'a, T: Wire> ColCursor<'a, T> {
    /// Captures one frame off `r` and positions both column walks at
    /// the first element.
    pub fn begin(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let (n, vcol, dcol, mcol) = capture_cols::<T>(r)?;
        Ok(ColCursor {
            keys: ColKeys {
                v: WireReader::new(vcol),
                d: WireReader::new(dcol),
                prev: 0,
                idx: 0,
                n,
            },
            metas: ColMetas {
                r: WireReader::new(mcol),
                pos: 0,
                n,
                poisoned: false,
                _marker: std::marker::PhantomData,
            },
        })
    }

    /// Total elements in the frame.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.n
    }

    /// True when the frame holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.n == 0
    }
}

/// Convenience: encode a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Convenience: decode a value that must consume the whole buffer.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::InvalidValue("trailing bytes after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), 1, "value {v}");
            assert_eq!(varint_len(v), 1);
        }
    }

    #[test]
    fn varint_boundaries() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), len, "value {v}");
            assert_eq!(varint_len(v), len, "varint_len({v})");
            let mut r = WireReader::new(&buf);
            assert_eq!(r.take_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven continuation bytes can never be a valid 64-bit varint.
        let buf = [0xffu8; 11];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_varint(), Err(WireError::VarintOverflow));
    }

    /// The SWAR crack path and the scalar loop must accept the same
    /// byte strings, consume the same bytes and yield the same values —
    /// across every width class, at every buffer-tail distance (which
    /// decides whether the crack path engages at all).
    #[test]
    fn swar_crack_matches_scalar_decode() {
        let mut values: Vec<u64> = vec![0, 1, 127, 128, 255, 16_383, 16_384, u64::MAX];
        for bits in 0..64 {
            values.push(1u64 << bits);
            values.push((1u64 << bits) | 0x55);
            values.push(hashish(bits) >> (bits % 64));
        }
        for &v in &values {
            let mut encoded = Vec::new();
            put_varint(&mut encoded, v);
            // Pad so the 8-byte word load is exercised, then retry at
            // every shorter tail down to the exact encoding length.
            for pad in (0..=8usize).rev() {
                let mut buf = encoded.clone();
                buf.extend(std::iter::repeat_n(0xABu8, pad));
                let mut fast = WireReader::new(&buf);
                assert_eq!(fast.take_varint(), Ok(v), "value {v} pad {pad}");
                let mut scalar = WireReader::new(&buf);
                assert_eq!(scalar.take_varint_scalar(), Ok(v));
                assert_eq!(fast.position(), scalar.position(), "value {v} pad {pad}");
            }
        }
        // Non-canonical (overlong) encodings decode identically too.
        let overlong = [0x80u8, 0x80, 0x00, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB];
        let mut fast = WireReader::new(&overlong);
        assert_eq!(fast.take_varint(), Ok(0));
        assert_eq!(fast.position(), 3);
    }

    /// A whole run of varints, decoded one `take_varint` at a time as a
    /// key column is walked, must come back value for value.
    #[test]
    fn take_varints_bulk_matches_element_wise() {
        // A mixed stream: every width class, with 10-byte encodings
        // forcing the scalar loop mid-run.
        let stream: Vec<u64> = (0..300u64)
            .map(|i| match i % 5 {
                0 => i,
                1 => 128 + i,
                2 => hashish(i),
                3 => u64::MAX - i,
                _ => 1u64 << (i % 57),
            })
            .collect();
        let mut buf = Vec::new();
        for &v in &stream {
            put_varint(&mut buf, v);
        }
        let mut r = WireReader::new(&buf);
        let walked: Vec<u64> = stream.iter().map(|_| r.take_varint().unwrap()).collect();
        assert_eq!(walked, stream);
        assert!(r.is_empty());
        // Truncation inside the run errors at the cut.
        let mut r = WireReader::new(&buf[..buf.len() - 1]);
        let last = (0..stream.len()).map(|_| r.take_varint()).last();
        assert!(matches!(last, Some(Err(WireError::UnexpectedEof { .. }))));
        // An 11-byte continuation run inside the stream overflows, not
        // spins.
        let hostile = [0xffu8; 16];
        let mut r = WireReader::new(&hostile);
        assert_eq!(r.take_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        // The length prefix survives truncation but the payload does
        // not: caught by the up-front length check.
        let bytes = to_bytes(&"hello".to_string());
        let mut r = WireReader::new(&bytes[..3]);
        assert!(matches!(
            String::decode(&mut r),
            Err(WireError::SeqOverrun { .. })
        ));
        // Truncation inside the prefix itself is an EOF.
        let long = to_bytes(&"x".repeat(200));
        let mut r = WireReader::new(&long[..1]);
        assert!(matches!(
            String::decode(&mut r),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(i8::MIN);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(-1i64);
        roundtrip(isize::MIN);
        roundtrip(std::f32::consts::E);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        for v in [-64i64, -1, 0, 1, 63] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), 1, "value {v}");
        }
    }

    #[test]
    fn string_roundtrips() {
        roundtrip(String::new());
        roundtrip("amazon.example".to_string());
        roundtrip("ünïcödé 🎉 strings".to_string());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(from_bytes::<String>(&buf), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 128, 16_384, u64::MAX]);
        roundtrip(vec!["a".to_string(), String::new(), "ccc".to_string()]);
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        let mut m = HashMap::new();
        m.insert("host".to_string(), 3u64);
        m.insert("edge".to_string(), 0);
        roundtrip(m);
    }

    #[test]
    fn tuple_roundtrips() {
        roundtrip((1u64,));
        roundtrip((1u64, "x".to_string()));
        roundtrip((1u64, 2u32, 3u16));
        roundtrip((1u64, 2u32, 3u16, true));
        roundtrip((1u64, 2u32, 3u16, true, 2.5f64));
        roundtrip((1u64, 2u32, 3u16, true, 2.5f64, -7i32));
    }

    #[test]
    fn nested_containers() {
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
        roundtrip(vec![(1u64, "a".to_string()), (2, "b".to_string())]);
        roundtrip(Some(vec![(0u64, None), (1, Some(9u8))]));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // Length prefix claims 2^60 elements but only a few bytes follow.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 60);
        buf.push(1);
        assert!(from_bytes::<Vec<u64>>(&buf).is_err());
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }

    #[test]
    fn bool_bad_discriminant() {
        assert!(from_bytes::<bool>(&[2]).is_err());
    }

    /// Deterministic id spreader for synthetic batches.
    fn hashish(i: u64) -> u64 {
        crate::hash::hash64(i)
    }

    #[test]
    fn borrowed_tuple_matches_owned_tuple_encoding() {
        let meta = "edge-meta".to_string();
        let owned = (7u64, 9u64, meta.clone(), true);
        let mut via_owned = Vec::new();
        owned.encode(&mut via_owned);
        let mut via_borrowed = Vec::new();
        (7u64, 9u64, &meta, true).encode_wire(&mut via_borrowed);
        assert_eq!(via_owned, via_borrowed);
    }

    #[test]
    fn hostile_string_length_prefix_rejected() {
        // Length prefix claims 2^60 bytes; only two follow.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 60);
        buf.extend_from_slice(b"ab");
        assert!(matches!(
            from_bytes::<String>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
    }

    #[test]
    fn hostile_vec_length_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.push(1);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
        // Wide fixed-width elements tighten the bound: 4 f64s need 32
        // bytes, so claiming 4 with 20 remaining is rejected up front.
        let mut buf = Vec::new();
        put_varint(&mut buf, 4);
        buf.extend_from_slice(&[0u8; 20]);
        assert!(matches!(
            from_bytes::<Vec<f64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
    }

    #[test]
    fn hostile_map_length_prefix_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 40);
        buf.push(0);
        assert!(matches!(
            from_bytes::<HashMap<String, u64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
    }

    #[test]
    fn zero_sized_element_sequences_still_roundtrip() {
        // `()` encodes zero bytes; the length check must not misfire.
        roundtrip(vec![(); 300]);
    }

    #[test]
    fn hostile_zero_sized_sequence_prefix_rejected() {
        // Zero-sized elements defeat the byte bound, so the element
        // count itself is capped: a prefix claiming 2^60 `()`s must
        // error, not spin the decode loop for 2^60 iterations.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 60);
        assert!(matches!(
            from_bytes::<Vec<()>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            Vec::<()>::skip(&mut r),
            Err(WireError::SeqOverrun { .. })
        ));
    }

    #[test]
    fn skip_consumes_exactly_what_decode_does() {
        fn check<T: Wire>(v: &T) {
            let mut bytes = to_bytes(v);
            bytes.extend_from_slice(&[0xAA; 3]); // trailing sentinel
            let mut rd = WireReader::new(&bytes);
            T::decode(&mut rd).expect("decode");
            let mut rs = WireReader::new(&bytes);
            T::skip(&mut rs).expect("skip");
            assert_eq!(rd.position(), rs.position());
        }
        check(&42u64);
        check(&-17i32);
        check(&3.25f64);
        check(&true);
        check(&"ünïcödé metadata".to_string());
        check(&vec![1u64, 128, 16_384]);
        check(&Some(vec!["a".to_string(), "bb".to_string()]));
        check(&(7u64, "x".to_string(), vec![1u8, 2], 2.5f32));
        let mut m = HashMap::new();
        m.insert("k".to_string(), 9u64);
        check(&m);
    }

    #[test]
    fn columnar_beats_interleaved_on_sorted_batches() {
        // The communication claim itself: same candidates, fewer bytes,
        // because the monotone degree column delta-codes to one byte per
        // element while a `Vec` of tuples re-pays the full varint.
        let cands: Vec<(u64, u64, u64)> =
            (0..64).map(|i| (hashish(i), 5000 + i * 7, i % 7)).collect();
        let tuples = to_bytes(&cands);
        let columnar = to_bytes(&ColBatch(cands));
        assert!(
            columnar.len() < tuples.len(),
            "columnar {} >= tuple-by-tuple {}",
            columnar.len(),
            tuples.len()
        );
    }

    #[test]
    fn col_batch_roundtrips_edge_cases() {
        roundtrip(ColBatch::<u64>(Vec::new()));
        roundtrip(ColBatch(vec![(7u64, 9u64, "meta".to_string())]));
        // Descending and wrapping degree sequences survive delta coding.
        roundtrip(ColBatch(vec![
            (1u64, u64::MAX, ()),
            (2, 0, ()),
            (3, 1u64 << 63, ()),
        ]));
        roundtrip(ColBatch(
            (0..300u64)
                .map(|i| (i, 300 - i, i as u8))
                .collect::<Vec<_>>(),
        ));
    }

    #[test]
    fn col_cursor_streams_what_owned_decodes() {
        let owned = ColBatch(
            (0..50u64)
                .map(|i| (hashish(i), 10 + i, format!("m{i}")))
                .collect::<Vec<_>>(),
        );
        let bytes = to_bytes(&owned);
        let mut r = WireReader::new(&bytes);
        let mut cur: ColCursor<'_, String> = ColCursor::begin(&mut r).unwrap();
        assert!(r.is_empty(), "frame fully consumed at begin");
        assert_eq!(cur.len(), 50);
        let mut got = Vec::new();
        while let Some(k) = cur.keys.next_key() {
            let k = k.unwrap();
            got.push((k.v, k.degree, cur.metas.get(k.idx).unwrap()));
        }
        assert_eq!(got, owned.0);
    }

    #[test]
    fn col_metas_skips_unmatched_and_rejects_backward_access() {
        let owned = ColBatch(
            (0..10u64)
                .map(|i| (i, i, format!("meta-{i}")))
                .collect::<Vec<_>>(),
        );
        let bytes = to_bytes(&owned);
        let mut r = WireReader::new(&bytes);
        let mut cur: ColCursor<'_, String> = ColCursor::begin(&mut r).unwrap();
        // Sparse increasing access decodes only the requested elements.
        assert_eq!(cur.metas.get(3).unwrap(), "meta-3");
        assert_eq!(cur.metas.get(7).unwrap(), "meta-7");
        assert_eq!(
            cur.metas.get(7),
            Err(WireError::InvalidValue(
                "meta column indices must be requested in increasing order",
            )),
            "repeat access rejected"
        );
        assert!(cur.metas.get(5).is_err(), "backward access rejected");
        assert_eq!(
            cur.metas.get(10),
            Err(WireError::InvalidValue("meta column index out of range")),
            "out of range rejected"
        );
    }

    #[test]
    fn col_meta_decoded_only_on_demand() {
        // A frame whose meta column is invalid UTF-8 still walks its key
        // columns cleanly; the corruption surfaces only if a meta is
        // actually requested. (Built by the adapter contract being
        // violated on purpose.)
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1); // n = 1
        write_raw_col(&mut bytes, [42u64].into_iter());
        write_delta_col(&mut bytes, [7u64].into_iter());
        let mut evil = Vec::new();
        put_varint(&mut evil, 2);
        evil.extend_from_slice(&[0xff, 0xfe]);
        put_varint(&mut bytes, evil.len() as u64);
        bytes.extend_from_slice(&evil);
        let mut r = WireReader::new(&bytes);
        let mut cur: ColCursor<'_, String> = ColCursor::begin(&mut r).unwrap();
        let k = cur.keys.next_key().unwrap().unwrap();
        assert_eq!((k.v, k.degree), (42, 7));
        assert_eq!(cur.metas.get(0), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn col_cursor_clones_are_independent_walks() {
        let owned = ColBatch((0..20u64).map(|i| (i * 3, i + 1, i)).collect::<Vec<_>>());
        let mut buf = to_bytes(&(9u64, owned.clone()));
        buf.push(0x55);
        let mut r = WireReader::new(&buf[..buf.len() - 1]);
        let q = u64::decode(&mut r).unwrap();
        let captured: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        assert_eq!(q, 9);
        assert!(r.is_empty());
        assert_eq!(captured.len(), 20);
        for _pass in 0..3 {
            let mut cur = captured.clone();
            let mut walked = Vec::new();
            while let Some(k) = cur.keys.next_key() {
                let k = k.unwrap();
                walked.push((k.v, k.degree, cur.metas.get(k.idx).unwrap()));
            }
            assert_eq!(walked, owned.0);
        }
        // Partial walks of a clone leave the captured cursor intact.
        {
            let mut cur = captured.clone();
            cur.keys.next_key();
            cur.metas.get(3).unwrap();
        }
        let mut metas = captured.metas.clone();
        assert_eq!(metas.get(0), Ok(0));
        assert_eq!(captured.keys.count(), 20);
    }

    #[test]
    fn col_skip_consumes_exactly_what_decode_does() {
        let owned = ColBatch(
            (0..17u64)
                .map(|i| (i, i * i, format!("s{i}")))
                .collect::<Vec<_>>(),
        );
        let mut bytes = to_bytes(&owned);
        bytes.extend_from_slice(&[0xAA; 3]);
        let mut rd = WireReader::new(&bytes);
        ColBatch::<String>::decode(&mut rd).unwrap();
        let mut rs = WireReader::new(&bytes);
        ColBatch::<String>::skip(&mut rs).unwrap();
        assert_eq!(rd.position(), rs.position());
    }

    #[test]
    fn hostile_columnar_prefixes_rejected() {
        // Hostile element count: claims 2^60 elements, 3 bytes follow.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 60);
        buf.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            from_bytes::<ColBatch<u64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
        // Hostile column byte length: vertex column claims 2^50 bytes.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // n
        put_varint(&mut buf, 1u64 << 50);
        buf.push(1);
        assert!(matches!(
            from_bytes::<ColBatch<u64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            ColCursor::<u64>::begin(&mut r),
            Err(WireError::SeqOverrun { .. })
        ));
        // Column too short for its element floor: n=4 but 2-byte column.
        let mut buf = Vec::new();
        put_varint(&mut buf, 4);
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[1, 1]);
        assert!(matches!(
            from_bytes::<ColBatch<u64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
        // Wide fixed-width metas tighten the meta-column floor.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // n = 2
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[1, 1]); // vertex col
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[1, 1]); // degree col
        put_varint(&mut buf, 9); // meta col: 2 f64s need 16
        buf.extend_from_slice(&[0u8; 9]);
        assert!(matches!(
            from_bytes::<ColBatch<f64>>(&buf),
            Err(WireError::SeqOverrun { .. })
        ));
    }

    #[test]
    fn columnar_byte_budget_mismatch_rejected() {
        // A key column longer than the element count is corrupt on both
        // decode paths: the owned decode and the streaming key walk.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // n = 1
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[1, 1]); // vertex col: TWO varints
        write_delta_col(&mut buf, [5u64].into_iter());
        write_meta_col(&mut buf, |s| 3u64.encode(s));
        assert_eq!(
            from_bytes::<ColBatch<u64>>(&buf),
            Err(WireError::InvalidValue("columnar byte budget mismatch"))
        );
        let mut r = WireReader::new(&buf);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        assert!(cur.keys.next_key().unwrap().is_err());
        assert!(cur.keys.next_key().is_none(), "errored walk is exhausted");
    }

    #[test]
    fn key_block_enforces_byte_budget_on_final_block() {
        // Key columns longer than the element count are corruption the
        // key walk catches on the step that consumes the final element:
        // a one-element frame on its only step...
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // n = 1
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[1, 1]); // vertex col: TWO varints
        write_delta_col(&mut buf, [5u64].into_iter());
        write_meta_col(&mut buf, |s| 3u64.encode(s));
        let mut r = WireReader::new(&buf);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        assert_eq!(
            cur.keys.next_key(),
            Some(Err(WireError::InvalidValue(
                "columnar byte budget mismatch"
            )))
        );
        assert!(cur.keys.next_key().is_none());
        // ...and a longer frame on its final element, not before.
        let n = 40u64;
        let mut buf = Vec::new();
        put_varint(&mut buf, n);
        write_raw_col(&mut buf, 0..=n); // one trailing extra varint
        write_delta_col(&mut buf, (0..n).map(|i| 50 + i));
        write_meta_col(&mut buf, |s| {
            for i in 0..n {
                i.encode(s);
            }
        });
        let mut r = WireReader::new(&buf);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        for i in 0..n - 1 {
            assert_eq!(cur.keys.next_key().unwrap().unwrap().v, i);
        }
        assert_eq!(
            cur.keys.next_key(),
            Some(Err(WireError::InvalidValue(
                "columnar byte budget mismatch"
            )))
        );
        assert!(cur.keys.next_key().is_none());
    }

    #[test]
    fn truncated_key_column_errors_and_exhausts_the_walk() {
        // n = 5 but the vertex column's 5 bytes hold only 3 varints
        // (two 2-byte encodings): the capture's byte floor passes, so
        // the corruption must surface mid-walk, and the walk must be
        // exhausted after it.
        let mut buf = Vec::new();
        put_varint(&mut buf, 5); // n
        put_varint(&mut buf, 5); // vertex column: 5 bytes...
        buf.extend_from_slice(&[0x80, 0x01, 0x80, 0x01, 0x01]); // ...3 varints
        write_delta_col(&mut buf, (0..5u64).map(|i| 10 + i));
        write_meta_col(&mut buf, |s| {
            for i in 0..5u64 {
                i.encode(s);
            }
        });
        let mut r = WireReader::new(&buf);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        for _ in 0..3 {
            assert!(cur.keys.next_key().unwrap().is_ok());
        }
        assert!(matches!(
            cur.keys.next_key(),
            Some(Err(WireError::UnexpectedEof { .. }))
        ));
        assert!(cur.keys.next_key().is_none(), "walk exhausted");
        assert_eq!(cur.keys.remaining(), 0);
        // The owned reference decode rejects the same frame.
        assert!(from_bytes::<ColBatch<u64>>(&buf).is_err());
    }

    #[test]
    fn meta_column_poisons_after_an_element_decode_error() {
        // n = 2; the meta column's bytes are a valid budget but the
        // first element is an over-long varint. The first get must
        // error, and a later get must report the poisoning instead of
        // decoding from the stranded mid-element offset.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // n
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[1, 2]); // vertex col
        write_delta_col(&mut buf, [5u64, 6].into_iter());
        put_varint(&mut buf, 12); // meta col: 11 continuation bytes + 1
        buf.extend_from_slice(&[0xff; 11]);
        buf.push(1);
        let mut r = WireReader::new(&buf);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        assert_eq!(cur.metas.get(0), Err(WireError::VarintOverflow));
        assert_eq!(
            cur.metas.get(1),
            Err(WireError::InvalidValue(
                "meta column poisoned by an element decode error"
            ))
        );
    }

    #[test]
    fn hostile_frame_rejected_before_any_block_is_materialized() {
        // A hostile element count or column byte-length prefix must
        // fail at capture ([`SeqOverrun`]), before the key walk can even
        // start — nothing is decoded from a frame that failed
        // validation.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 60); // n beyond the buffer
        buf.extend_from_slice(&[0, 0, 0]);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            ColCursor::<u64>::begin(&mut r),
            Err(WireError::SeqOverrun { .. })
        ));
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // n = 2
        put_varint(&mut buf, 1u64 << 50); // hostile vertex-column bytes
        buf.push(1);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            ColCursor::<u64>::begin(&mut r),
            Err(WireError::SeqOverrun { .. })
        ));
    }

    #[test]
    fn zero_element_frame_with_nonempty_columns_rejected_everywhere() {
        // n = 0 means there is nothing to walk, so walk-time budget
        // checks never run — the capture itself must reject smuggled
        // column bytes, identically on every decode path.
        let mut buf = Vec::new();
        put_varint(&mut buf, 0); // n = 0
        put_varint(&mut buf, 1);
        buf.push(7); // vertex column: 1 stray byte
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 0);
        assert_eq!(
            from_bytes::<ColBatch<u64>>(&buf),
            Err(WireError::InvalidValue("columnar byte budget mismatch"))
        );
        let mut r = WireReader::new(&buf);
        assert!(ColCursor::<u64>::begin(&mut r).is_err());
        let mut r = WireReader::new(&buf);
        assert!(ColBatch::<u64>::skip(&mut r).is_err());
        // Stray bytes in the meta column are caught the same way.
        let mut buf = Vec::new();
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1);
        buf.push(7);
        assert!(from_bytes::<ColBatch<u64>>(&buf).is_err());
        let mut r = WireReader::new(&buf);
        assert!(ColCursor::<u64>::begin(&mut r).is_err());
    }

    #[test]
    fn meta_column_trailing_garbage_caught_on_final_decode() {
        // One element, but the meta column carries an extra byte: the
        // owned decode rejects, and the lazy reader rejects too once it
        // consumes the final element.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // n = 1
        write_raw_col(&mut buf, [42u64].into_iter());
        write_delta_col(&mut buf, [7u64].into_iter());
        put_varint(&mut buf, 2); // meta column: element + 1 stray byte
        3u64.encode(&mut buf);
        buf.push(0x55);
        assert_eq!(
            from_bytes::<ColBatch<u64>>(&buf),
            Err(WireError::InvalidValue("columnar byte budget mismatch"))
        );
        let mut r = WireReader::new(&buf);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).unwrap();
        assert!(cur.keys.next_key().unwrap().is_ok());
        assert_eq!(
            cur.metas.get(0),
            Err(WireError::InvalidValue("columnar byte budget mismatch"))
        );
    }

    #[test]
    fn columnar_zst_meta_column_roundtrips() {
        roundtrip(ColBatch(
            (0..100u64).map(|i| (i, i, ())).collect::<Vec<_>>(),
        ));
    }

    /// Fills `cols` with `items` and checks every suffix frame against
    /// the owned [`ColBatch`] of the same elements, the empty suffix
    /// included.
    fn check_suffixes<T: Wire + Clone>(cols: &mut ColSuffixes, items: &[(u64, u64, T)]) {
        cols.fill(items, |e| e.0, |e| e.1, |e, buf| e.2.encode(buf));
        assert_eq!(cols.len(), items.len());
        for j in 0..=items.len() {
            let mut once = Vec::new();
            cols.suffix(j).encode_wire(&mut once);
            let owned = to_bytes(&ColBatch(items[j..].to_vec()));
            assert_eq!(once, owned, "suffix {j} of {}", items.len());
        }
    }

    #[test]
    fn col_suffixes_before_any_fill_and_out_of_range() {
        let cols = ColSuffixes::new();
        assert!(cols.is_empty());
        let mut empty = Vec::new();
        cols.suffix(0).encode_wire(&mut empty);
        assert_eq!(empty, to_bytes(&ColBatch::<u64>::default()));
        let caught = std::panic::catch_unwind(|| cols.suffix(1).encode_wire(&mut Vec::new()));
        assert!(caught.is_err(), "a suffix past the end must panic");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// The frame of `items` with its meta column's bytes passed
        /// through `mangle`.
        fn frame_with_metas<T: Wire>(
            items: &[(u64, u64, T)],
            mangle: impl FnOnce(&mut Vec<u8>),
        ) -> Vec<u8> {
            let mut mcol = Vec::new();
            for c in items {
                c.2.encode(&mut mcol);
            }
            mangle(&mut mcol);
            let mut buf = Vec::new();
            put_varint(&mut buf, items.len() as u64);
            write_raw_col(&mut buf, items.iter().map(|c| c.0));
            write_delta_col(&mut buf, items.iter().map(|c| c.1));
            write_meta_col(&mut buf, |s| s.extend_from_slice(&mcol));
            buf
        }

        /// `offsets` plus `decode_at` return at every index what `get`
        /// returns, however far a walk has read; the offsets walk
        /// refuses the column with a byte past its end, and with its
        /// last byte cut (the last element truncated).
        fn check_indexed_metas<T: Wire + PartialEq + fmt::Debug>(items: &[(u64, u64, T)]) {
            let frame = frame_with_metas(items, |_| {});
            let mut cur = ColCursor::<T>::begin(&mut WireReader::new(&frame)).unwrap();
            // Stale contents are cleared.
            let mut offsets = vec![u32::MAX];
            cur.metas.offsets(&mut offsets).unwrap();
            prop_assert_eq!(offsets.len(), items.len());
            for (i, &at) in offsets.iter().enumerate() {
                prop_assert_eq!(cur.metas.decode_at(at), cur.metas.clone().get(i));
            }
            if let Some(last) = items.len().checked_sub(1) {
                cur.metas.get(last).unwrap();
                let mut again = Vec::new();
                cur.metas.offsets(&mut again).unwrap();
                prop_assert_eq!(again, offsets);
            }
            let refused = |mangle: fn(&mut Vec<u8>)| {
                let frame = frame_with_metas(items, mangle);
                ColCursor::<T>::begin(&mut WireReader::new(&frame))
                    .and_then(|c| c.metas.offsets(&mut Vec::new()))
                    .is_err()
            };
            prop_assert!(refused(|m| m.push(0)), "a byte past the last element");
            if T::MIN_ENCODED_BYTES > 0 && !items.is_empty() {
                prop_assert!(refused(|m| _ = m.pop()), "a truncated last element");
            }
        }

        proptest! {
            #[test]
            fn u64_roundtrip(v in any::<u64>()) {
                roundtrip(v);
            }

            #[test]
            fn i64_roundtrip(v in any::<i64>()) {
                roundtrip(v);
            }

            #[test]
            fn f64_roundtrip(v in any::<f64>()) {
                let bytes = to_bytes(&v);
                let back: f64 = from_bytes(&bytes).unwrap();
                prop_assert_eq!(v.to_bits(), back.to_bits());
            }

            #[test]
            fn string_roundtrip(v in ".*") {
                roundtrip(v.to_string());
            }

            #[test]
            fn vec_tuple_roundtrip(v in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..64)) {
                roundtrip(v);
            }

            #[test]
            fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                // Decoding arbitrary bytes must return Ok or Err, never panic.
                let _ = from_bytes::<Vec<(u64, String)>>(&bytes);
                let _ = from_bytes::<(u32, bool, f64)>(&bytes);
                let _ = from_bytes::<Option<Vec<u8>>>(&bytes);
            }

            #[test]
            fn varint_len_matches_encoding(v in any::<u64>()) {
                let mut buf = Vec::new();
                put_varint(&mut buf, v);
                prop_assert_eq!(buf.len(), varint_len(v));
            }

            #[test]
            fn skip_position_matches_decode_position(
                v in proptest::collection::vec((any::<u64>(), ".*"), 0..32)
            ) {
                let bytes = to_bytes(&v);
                let mut rd = WireReader::new(&bytes);
                Vec::<(u64, String)>::decode(&mut rd).unwrap();
                let mut rs = WireReader::new(&bytes);
                Vec::<(u64, String)>::skip(&mut rs).unwrap();
                prop_assert_eq!(rd.position(), rs.position());
            }

            #[test]
            fn skip_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let mut r = WireReader::new(&bytes);
                let _ = Vec::<(u64, String)>::skip(&mut r);
                let mut r = WireReader::new(&bytes);
                let _ = <(u32, bool, f64)>::skip(&mut r);
            }

            #[test]
            fn col_batch_roundtrips(
                v in proptest::collection::vec((any::<u64>(), any::<u64>(), ".*"), 0..64)
            ) {
                // Arbitrary (unsorted, wrapping) key columns and string
                // metadata round-trip through the columnar frame.
                roundtrip(ColBatch(v.into_iter().map(|(a, b, s)| (a, b, s.to_string())).collect::<Vec<_>>()));
            }

            #[test]
            fn col_cursor_agrees_with_owned_and_is_budget_exact(
                v in proptest::collection::vec((any::<u64>(), any::<u64>(), ".*"), 0..48)
            ) {
                let owned = ColBatch(
                    v.iter().map(|(a, b, s)| (*a, *b, s.to_string())).collect::<Vec<_>>(),
                );
                let mut bytes = to_bytes(&owned);
                bytes.extend_from_slice(&[0xAA; 3]); // trailing sentinel
                // Owned decode, cursor walk and skip all consume exactly
                // the encoded extent — byte-budget exact framing.
                let mut rd = WireReader::new(&bytes);
                let back = ColBatch::<String>::decode(&mut rd).unwrap();
                prop_assert_eq!(&back, &owned);
                prop_assert_eq!(rd.remaining(), 3);
                let mut rs = WireReader::new(&bytes);
                ColBatch::<String>::skip(&mut rs).unwrap();
                prop_assert_eq!(rs.position(), rd.position());
                let mut rc = WireReader::new(&bytes);
                let mut cur: ColCursor<'_, String> = ColCursor::begin(&mut rc).unwrap();
                prop_assert_eq!(rc.position(), rd.position());
                let mut walked = Vec::new();
                while let Some(k) = cur.keys.next_key() {
                    let k = k.unwrap();
                    walked.push((k.v, k.degree, cur.metas.get(k.idx).unwrap()));
                }
                prop_assert_eq!(walked, owned.0);
            }

            #[test]
            fn indexed_metas_decode_what_get_returns(
                v in proptest::collection::vec((any::<u64>(), any::<u64>(), ".*"), 0..40)
            ) {
                let words: Vec<_> = v.iter().map(|e| (e.0, e.1, e.1)).collect();
                check_indexed_metas(&words);
                let strings: Vec<_> = v.iter().map(|e| (e.0, e.1, e.2.to_string())).collect();
                check_indexed_metas(&strings);
                let units: Vec<_> = v.iter().map(|e| (e.0, e.1, ())).collect();
                check_indexed_metas(&units);
            }

            #[test]
            fn col_decode_never_panics_on_garbage(
                bytes in proptest::collection::vec(any::<u8>(), 0..256)
            ) {
                let _ = from_bytes::<ColBatch<u64>>(&bytes);
                let _ = from_bytes::<ColBatch<String>>(&bytes);
                let mut r = WireReader::new(&bytes);
                let _ = ColBatch::<u64>::skip(&mut r);
                let mut r = WireReader::new(&bytes);
                if let Ok(mut cur) = ColCursor::<String>::begin(&mut r) {
                    while let Some(k) = cur.keys.next_key() {
                        let Ok(k) = k else { break };
                        let _ = cur.metas.get(k.idx);
                    }
                }
            }

            #[test]
            fn col_suffixes_identical_to_col_batch(
                a in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), ".*"), 0..40),
                b in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), ".*"), 0..40)
            ) {
                // `<+`-sorted lists (degree, then vertex); one encoder is
                // refilled long list first, so a stale byte of an earlier
                // fill would show in a later suffix.
                let sorted = |mut l: Vec<(u64, u64, u64, String)>| {
                    l.sort_by_key(|e| (e.1, e.0));
                    l
                };
                let (a, b) = (sorted(a), sorted(b));
                let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                let mut cols = ColSuffixes::new();
                for list in [&long, &short] {
                    let strings: Vec<_> = list.iter().map(|e| (e.0, e.1, e.3.to_string())).collect();
                    check_suffixes(&mut cols, &strings);
                }
                for list in [&long, &short] {
                    let words: Vec<_> = list.iter().map(|e| (e.0, e.1, e.2)).collect();
                    check_suffixes(&mut cols, &words);
                }
                for list in [&long, &short] {
                    let units: Vec<_> = list.iter().map(|e| (e.0, e.1, ())).collect();
                    check_suffixes(&mut cols, &units);
                }
            }

            #[test]
            fn borrowed_push_message_identical_to_owned(
                p in any::<u64>(),
                q in any::<u64>(),
                meta in ".*",
                cands in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..32)
            ) {
                // Shape of a full wedge-batch message, owned vs borrowed.
                let owned = (p, q, meta.clone(), ColBatch(cands.clone()));
                let mut via_owned = Vec::new();
                owned.encode(&mut via_owned);
                let mut cols = ColSuffixes::new();
                cols.fill(&cands, |c| c.0, |c| c.1, |c, buf| c.2.encode(buf));
                let mut via_borrowed = Vec::new();
                (p, q, &meta, cols.suffix(0)).encode_wire(&mut via_borrowed);
                prop_assert_eq!(via_owned, via_borrowed);
            }
        }
    }
}
