//! Deterministic wire codec: versioned, little-endian, length-prefixed.
//!
//! Every top-level protocol message (`SignedMsg`, `BbMsg`, `HsMsg`,
//! `TbMsg`) encodes as a self-describing frame:
//!
//! ```text
//! offset 0  magic      2 bytes  0xEE 0x5E
//! offset 2  version    1 byte   0x01 (v1)
//! offset 3  family     1 byte   which top-level message type follows
//! offset 4  body       family-specific, self-delimiting
//! ```
//!
//! Inside bodies the conventions are fixed:
//!
//! * integers are little-endian and fixed-width (`u8`/`u32`/`u64`);
//! * sequences are `u32` count + elements ([`put_seq`]/[`read_seq`]), and
//!   byte strings are sequences of `u8`;
//! * options are a `0`/`1` flag byte + the value when present;
//! * enums are a one-byte tag + the variant's fields;
//! * nested messages (e.g. the equivocation pair inside a `Blame`) embed
//!   their full frame, header included.
//!
//! Decoding is total: any byte string either decodes or returns a
//! [`CodecError`] — decoders never panic, and never allocate more than a
//! small multiple of the input length (sequence counts are bounds-checked
//! against the remaining bytes *before* any allocation).
//!
//! The `wire_size()` methods of the protocol crates are defined as exactly
//! [`WireCodec::encoded_len`], so the energy model prices the real bytes
//! this codec would put on the air. Transports add their own `u32` length
//! prefix per frame (see [`crate::proc`]); that prefix is a transport
//! artifact and is *not* part of `wire_size()`.
//!
//! Versioning rules: the magic and the v1 layout of existing fields are
//! frozen (golden vectors in `tests/codec_corpus.rs` enforce this). To add
//! a field, bump [`VERSION`] and extend the decoder to accept both
//! versions; to add a message or enum variant, append a new tag — never
//! reuse or reorder existing tags.

pub use eesmr_crypto::digest::ByteSink;
use eesmr_crypto::{Digest, SigScheme, Signature};

use core::fmt;

/// First two bytes of every encoded top-level message.
pub const MAGIC: [u8; 2] = [0xEE, 0x5E];

/// Current schema version.
pub const VERSION: u8 = 1;

/// Bytes of overhead per top-level message: magic + version + family tag.
pub const HEADER_LEN: usize = 4;

/// Family tags: which top-level message type a frame carries.
pub mod family {
    /// `eesmr_core::SignedMsg` (the EESMR view-change protocol).
    pub const SIGNED_MSG: u8 = 1;
    /// `eesmr_core::BbMsg` (Byzantine reliable broadcast).
    pub const BB_MSG: u8 = 2;
    /// `eesmr_baselines::HsMsg` (Sync HotStuff / OptSync).
    pub const HS_MSG: u8 = 3;
    /// `eesmr_baselines::TbMsg` (trusted-base station SMR).
    pub const TB_MSG: u8 = 4;
}

/// Why a byte string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The frame's schema version is not one this build understands.
    BadVersion(u8),
    /// An enum/family/scheme tag byte has no known meaning.
    UnknownTag {
        /// Which tag namespace the byte came from.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A count or length prefix cannot fit in the remaining bytes.
    BadLength {
        /// Which sequence the prefix belonged to.
        what: &'static str,
        /// The claimed element count or byte length.
        len: u64,
    },
    /// The bytes decode, but not to the canonical encoding (e.g. nonzero
    /// signature padding). Rejected so `encode(decode(b)) == b` holds.
    NonCanonical(&'static str),
    /// Bytes were left over after the structure was fully decoded.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated mid-structure"),
            CodecError::BadMagic(m) => write!(f, "bad magic {:02x}{:02x}", m[0], m[1]),
            CodecError::BadVersion(v) => write!(f, "unsupported schema version {v}"),
            CodecError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadLength { what, len } => {
                write!(f, "{what} length {len} exceeds remaining bytes")
            }
            CodecError::NonCanonical(what) => write!(f, "non-canonical encoding: {what}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after structure"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an immutable byte buffer.
///
/// All reads advance the cursor; a read past the end returns
/// [`CodecError::Truncated`] and leaves the cursor unspecified.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Requires every byte to have been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

/// A sink that only counts: [`WireCodec::encoded_len`] is a dry run of
/// the encoder into it.
struct ByteCount(usize);

impl ByteSink for ByteCount {
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A type with a frozen byte-level wire encoding.
///
/// Only the leaves and shapes below implement this trait by hand; every
/// message type expands from one field list
/// ([`wire_struct!`](crate::wire_struct), [`wire_enum!`](crate::wire_enum)),
/// and the length is the encoder run against a byte counter — so size,
/// encoding and decoding cannot disagree. The protocol crates define
/// `wire_size()` as exactly [`WireCodec::encoded_len`].
pub trait WireCodec: Sized {
    /// A floor under [`WireCodec::encoded_len`]. A sequence decoder
    /// multiplies it by the claimed count to reject a hostile prefix
    /// before allocating. Composite types derive it from their fields: a
    /// struct sums them, an enum counts only its tag.
    const MIN_LEN: usize;

    /// Appends this value's encoding to `out`.
    fn encode_into<S: ByteSink>(&self, out: &mut S);

    /// Reads one value from the cursor, leaving it just past the value.
    ///
    /// Parent decoders call this for nested fields; it does *not* require
    /// the buffer to end where the value does.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Exact length of [`WireCodec::encode`]'s output, without allocating.
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_into(&mut count);
        count.0
    }

    /// Encodes to a fresh buffer of exactly [`WireCodec::encoded_len`] bytes.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes a value that must span the whole buffer.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// An enum on the wire: a tag, then the tagged variant's fields.
///
/// The two halves are separate because a frame puts its view and signer
/// between them (see [`wire_struct!`](crate::wire_struct)'s `frame` form);
/// `wire_enum!`'s `inline` form joins them back into a [`WireCodec`].
pub trait WireEnum: Sized {
    /// The tag's type: a raw `u8`, or an enum that itself decodes from one.
    type Tag: WireCodec + Copy + PartialEq + Into<u8>;

    /// This value's tag.
    fn tag(&self) -> Self::Tag;

    /// Appends this variant's fields to `out`.
    fn encode_fields<S: ByteSink>(&self, out: &mut S);

    /// Reads the fields of the variant `tag` names.
    fn decode_fields(tag: Self::Tag, r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Writes the 4-byte frame header for a top-level message family.
pub fn put_header<S: ByteSink>(out: &mut S, family: u8) {
    out.extend_from_slice(&[MAGIC[0], MAGIC[1], VERSION, family]);
}

/// Reads and validates a frame header, requiring `family`.
///
/// A wrong-but-known family tag is reported as an unknown tag *for this
/// type*: the bytes are a valid frame of some other message, but not a
/// value of the type being decoded.
pub fn read_header(r: &mut Reader<'_>, family: u8) -> Result<(), CodecError> {
    let magic = r.bytes(2)?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic([magic[0], magic[1]]));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let fam = r.u8()?;
    if fam != family {
        return Err(CodecError::UnknownTag { what: "message family", tag: fam });
    }
    Ok(())
}

/// Writes a sequence: `u32` element count, then the elements.
pub fn put_seq<T: WireCodec, S: ByteSink>(out: &mut S, items: &[T]) {
    debug_assert!(items.len() <= u32::MAX as usize);
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        item.encode_into(out);
    }
}

/// Reads a sequence, rejecting a count that cannot possibly fit in the
/// remaining bytes (`count × T::MIN_LEN`) *before* allocating, so a
/// hostile prefix can never drive an unbounded allocation. `what` names
/// the sequence in the error.
pub fn read_seq<T: WireCodec>(
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<Vec<T>, CodecError> {
    let count = r.u32()? as usize;
    if count.saturating_mul(T::MIN_LEN.max(1)) > r.remaining() {
        return Err(CodecError::BadLength { what, len: count as u64 });
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(T::decode_from(r)?);
    }
    Ok(items)
}

macro_rules! wire_int {
    ($($int:ident),*) => {$(
        impl WireCodec for $int {
            const MIN_LEN: usize = core::mem::size_of::<$int>();

            fn encode_into<S: ByteSink>(&self, out: &mut S) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$int()
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl WireCodec for Digest {
    const MIN_LEN: usize = 32;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(r.bytes(32)?);
        Ok(Digest::from_bytes(bytes))
    }
}

/// Signatures encode as `scheme tag (1) | signer (4) | tag bytes padded to
/// the real scheme's signature size`. The padding keeps on-air byte counts
/// faithful to the deployed scheme (e.g. 128 B for RSA-1024) even though
/// the simulated authenticator is 32 bytes; decode requires the padding to
/// be zero so the encoding stays canonical.
impl WireCodec for Signature {
    const MIN_LEN: usize = 1 + 4 + 32;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        const PADDING: [u8; 256] = [0; 256];
        out.extend_from_slice(&[self.scheme().wire_tag()]);
        out.extend_from_slice(&self.signer().to_le_bytes());
        out.extend_from_slice(self.tag().as_bytes());
        out.extend_from_slice(&PADDING[..self.scheme().signature_size() - 32]);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let scheme = SigScheme::from_wire_tag(tag)
            .ok_or(CodecError::UnknownTag { what: "signature scheme", tag })?;
        let signer = r.u32()?;
        let body = r.bytes(scheme.signature_size())?;
        let mut auth = [0u8; 32];
        auth.copy_from_slice(&body[..32]);
        if body[32..].iter().any(|b| *b != 0) {
            return Err(CodecError::NonCanonical("signature padding must be zero"));
        }
        Ok(Signature::from_wire(signer, scheme, Digest::from_bytes(auth)))
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    const MIN_LEN: usize = 1;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        match self {
            None => out.extend_from_slice(&[0]),
            Some(v) => {
                out.extend_from_slice(&[1]);
                v.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode_from(r).map(Some),
            tag => Err(CodecError::UnknownTag { what: "option flag", tag }),
        }
    }
}

/// A field list can name its sequence for the length error
/// (`field: Vec<T> = "what"`).
impl<T: WireCodec> WireCodec for Vec<T> {
    const MIN_LEN: usize = 4;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        put_seq(out, self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_seq(r, "sequence")
    }
}

/// The two values back to back.
impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

/// A box is its content.
impl<T: WireCodec> WireCodec for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        T::encode_into(self, out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::decode_from(r).map(Box::new)
    }
}

/// Reads one table field: any [`WireCodec`] type, or — when the row names
/// it (`= "what"`) — a sequence whose length error carries that name.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_read {
    ($r:ident, $t:ty) => {
        <$t as $crate::codec::WireCodec>::decode_from($r)?
    };
    ($r:ident, $t:ty, $what:literal) => {
        $crate::codec::read_seq($r, $what)?
    };
}

/// Derives [`WireCodec`] for a struct from one field list, in wire order.
///
/// ```text
/// wire_struct! { SignedBlock { block: Block, signer: NodeId, sig: Signature } }
/// wire_struct! { frame(family::TB_MSG) TbMsg { payload: TbPayload; signer: NodeId; sig: Signature } }
/// ```
///
/// `T => path { .. }` decodes through a constructor taking the fields in
/// table order instead of a struct literal (in either form). The `frame`
/// form is a top-level message: the 4-byte header, then the fields —
/// except that the first one is a [`WireEnum`] whose tag stays put while
/// its variant fields move behind the middle group:
/// `header | payload tag | middle fields | payload fields | last field`.
#[macro_export]
macro_rules! wire_struct {
    ($T:ident $(=> $new:path)? { $($f:ident : $t:ty $(= $what:literal)?),+ $(,)? }) => {
        const _: () = {
            use $crate::codec::{ByteSink, CodecError, Reader, WireCodec};

            impl WireCodec for $T {
                const MIN_LEN: usize = 0 $(+ <$t as WireCodec>::MIN_LEN)+;

                fn encode_into<S: ByteSink>(&self, out: &mut S) {
                    $(WireCodec::encode_into(&self.$f, out);)+
                }

                fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    $(let $f = $crate::wire_read!(r, $t $(, $what)?);)+
                    Ok($crate::wire_struct!(@new $T $(=> $new)?; $($f),+))
                }
            }
        };
    };
    (@new $T:ident; $($f:ident),+) => { $T { $($f),+ } };
    (@new $T:ident => $new:path; $($f:ident),+) => { $new($($f),+) };
    (frame($family:expr) $T:ty $(=> $new:path)? $(where $P:ident : $bound:path)? {
        $payload:ident : $pt:ty; $($f:ident : $t:ty),+; $last:ident : $lt:ty $(,)?
    }) => {
        const _: () = {
            use $crate::codec::{self, ByteSink, CodecError, Reader, WireCodec, WireEnum};

            impl $(<$P: $bound>)? WireCodec for $T {
                const MIN_LEN: usize = codec::HEADER_LEN
                    + <<$pt as WireEnum>::Tag as WireCodec>::MIN_LEN
                    $(+ <$t as WireCodec>::MIN_LEN)+
                    + <$lt as WireCodec>::MIN_LEN;

                fn encode_into<S: ByteSink>(&self, out: &mut S) {
                    codec::put_header(out, $family);
                    self.$payload.tag().encode_into(out);
                    $(WireCodec::encode_into(&self.$f, out);)+
                    self.$payload.encode_fields(out);
                    WireCodec::encode_into(&self.$last, out);
                }

                fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    codec::read_header(r, $family)?;
                    let tag = WireCodec::decode_from(r)?;
                    $(let $f = <$t as WireCodec>::decode_from(r)?;)+
                    let $payload = <$pt as WireEnum>::decode_fields(tag, r)?;
                    let $last = <$lt as WireCodec>::decode_from(r)?;
                    Ok($crate::wire_struct!(@new Self $(=> $new)?; $payload, $($f,)+ $last))
                }
            }
        };
    };
}

/// Derives [`WireEnum`] for a tagged enum from one row per variant: its
/// tag, then its fields in wire order (tuple variants name their fields
/// for the table's own use). `what` names the tag namespace in the
/// unknown-tag error. The `inline` form also derives [`WireCodec`] as
/// `tag | fields`, for enums that sit inside other messages.
///
/// ```text
/// wire_enum! { inline Status: u8 = "status" {
///     1 => CommitQcs(entries: Vec<CertifiedBlock> = "commit-qc status entries"),
///     2 => Locks(entries: Vec<SignedBlock> = "locked-block status entries"),
/// } }
/// ```
#[macro_export]
macro_rules! wire_enum {
    (inline $E:ident : $($table:tt)+) => {
        $crate::wire_enum!($E : $($table)+);
        const _: () = {
            use $crate::codec::{ByteSink, CodecError, Reader, WireCodec, WireEnum};

            impl WireCodec for $E {
                const MIN_LEN: usize = <<$E as WireEnum>::Tag as WireCodec>::MIN_LEN;

                fn encode_into<S: ByteSink>(&self, out: &mut S) {
                    self.tag().encode_into(out);
                    self.encode_fields(out);
                }

                fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    let tag = WireCodec::decode_from(r)?;
                    Self::decode_fields(tag, r)
                }
            }
        };
    };
    ($E:ident : $Tag:ty = $what:literal {$(
        $tag:expr => $V:ident
            $({ $($sf:ident : $st:ty $(= $sw:literal)?),* $(,)? })?
            $(( $($tf:ident : $tt:ty $(= $tw:literal)?),* ))?
    ),+ $(,)?}) => {
        const _: () = {
            use $crate::codec::{ByteSink, CodecError, Reader, WireCodec, WireEnum};

            #[allow(unused_variables)] // an enum of unit variants has no fields to touch
            impl WireEnum for $E {
                type Tag = $Tag;

                fn tag(&self) -> $Tag {
                    match self {
                        $($E::$V { .. } => $tag,)+
                    }
                }

                fn encode_fields<S: ByteSink>(&self, out: &mut S) {
                    match self {$(
                        $E::$V $({ $($sf),* })? $(( $($tf),* ))? => {
                            $($(WireCodec::encode_into($sf, out);)*)?
                            $($(WireCodec::encode_into($tf, out);)*)?
                        }
                    )+}
                }

                fn decode_fields(tag: $Tag, r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    $(if tag == $tag {
                        return Ok($E::$V
                            $({ $($sf: $crate::wire_read!(r, $st $(, $sw)?)),* })?
                            $(( $($crate::wire_read!(r, $tt $(, $tw)?)),* ))?);
                    })+
                    Err(CodecError::UnknownTag { what: $what, tag: tag.into() })
                }
            }
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use eesmr_crypto::KeyPair;

    #[test]
    fn digest_round_trips() {
        let d = Digest::of_parts(&[b"hello"]);
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.encoded_len());
        assert_eq!(Digest::decode(&bytes).unwrap(), d);
    }

    #[test]
    fn signature_round_trips_with_padding() {
        let sig = KeyPair::derive(7, SigScheme::Rsa1024, 1).sign(b"m");
        let bytes = sig.encode();
        assert_eq!(bytes.len(), 5 + 128);
        let back = Signature::decode(&bytes).unwrap();
        assert_eq!(back, sig);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn signature_rejects_nonzero_padding() {
        let sig = KeyPair::derive(7, SigScheme::Rsa1024, 1).sign(b"m");
        let mut bytes = sig.encode();
        *bytes.last_mut().unwrap() = 1;
        assert_eq!(
            Signature::decode(&bytes),
            Err(CodecError::NonCanonical("signature padding must be zero"))
        );
    }

    #[test]
    fn signature_rejects_unknown_scheme_tag() {
        let sig = KeyPair::derive(7, SigScheme::Hmac, 1).sign(b"m");
        let mut bytes = sig.encode();
        bytes[0] = 0xEF;
        assert!(matches!(
            Signature::decode(&bytes),
            Err(CodecError::UnknownTag { what: "signature scheme", .. })
        ));
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let sig = KeyPair::derive(3, SigScheme::EcdsaSecp256K1, 9).sign(b"m");
        let bytes = sig.encode();
        for cut in 0..bytes.len() {
            assert!(Signature::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = Digest::of_parts(&[b"x"]);
        let mut bytes = d.encode();
        bytes.push(0);
        assert_eq!(Digest::decode(&bytes), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn hostile_count_prefix_rejected_before_allocation() {
        // A count of u32::MAX with 4 remaining bytes must fail the bound
        // check rather than attempt a giant allocation.
        let buf = u32::MAX.to_le_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(read_seq::<Digest>(&mut r, "sigs"), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn scheme_wire_tags_round_trip() {
        for scheme in SigScheme::ALL {
            assert_eq!(SigScheme::from_wire_tag(scheme.wire_tag()), Some(scheme));
        }
        assert_eq!(SigScheme::from_wire_tag(SigScheme::ALL.len() as u8), None);
    }
}
