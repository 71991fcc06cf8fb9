//! # bard-image — codec primitives of the binary containers
//!
//! The BSS1 snapshot payload codec, and the varint, zigzag and FNV-1a
//! helpers that BSS1 images and BTF traces (`bard-trace`) share. The crate
//! depends on nothing, so every crate holding snapshotted state can code it.
//!
//! Each snapshotted component codes its own live fields with one two-way
//! function, `fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError>`,
//! which names each field once, in payload order. Through an [`Enc`] it
//! appends every field; through a [`Dec`] it overwrites every field with
//! what it reads. A restore decodes straight into a freshly built system,
//! so the system's own sizes (cores, sets, banks, ...) check the image's
//! ([`Io::size`]).
//!
//! ```
//! use bard_image::{decode, encode, seq, ImageError, Io};
//!
//! #[derive(Debug, Default, PartialEq)]
//! struct Counter {
//!     hits: u64,
//!     history: Vec<u64>,
//! }
//!
//! impl Counter {
//!     fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
//!         io.u64(&mut self.hits)?;
//!         seq(io, &mut self.history, Io::u64)
//!     }
//! }
//!
//! let mut live = Counter { hits: 3, history: vec![1, 300] };
//! let bytes = encode(|io| live.image(io));
//! let mut restored = Counter::default();
//! decode(&bytes, |io| restored.image(io)).unwrap();
//! assert_eq!(restored, live);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

/// Why a payload could not be decoded into a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The payload ends before the value at `offset` does.
    Truncated {
        /// Byte offset at which data ran out.
        offset: usize,
    },
    /// The payload is structurally invalid.
    Format {
        /// Byte offset of the offending data.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The payload is well-formed but holds another geometry than the
    /// system decoding it.
    Incompatible {
        /// What differs.
        reason: String,
    },
}

/// One direction of the payload codec. A codec function visits its type's
/// fields once, in payload order, through an `Io`: [`Enc`] appends each
/// field, [`Dec`] overwrites each field with what it reads. Integers are
/// varints, zigzagged when signed. Decoding fails loudly with the offending
/// offset (every method below errs only when decoding); a live system is
/// well-formed, so encoding never fails.
pub trait Io {
    /// A varint.
    fn u64(&mut self, v: &mut u64) -> Result<(), ImageError>;

    /// One raw byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), ImageError>;

    /// A length prefix. Decoding bounds it by the bytes left, so a corrupt
    /// length cannot force a huge allocation.
    fn len(&mut self, n: &mut usize) -> Result<(), ImageError>;

    /// An [`ImageError::Format`] at the current offset.
    fn fail(&self, message: impl Into<String>) -> ImageError;

    /// True for [`Dec`]: the fields are being overwritten.
    fn decoding(&self) -> bool;

    /// Checks what was just decoded: [`Dec`] turns the verdict's complaint
    /// into an [`ImageError::Format`], [`Enc`] trusts the live state and
    /// skips it.
    fn check(&self, verdict: impl FnOnce() -> Result<(), String>) -> Result<(), ImageError> {
        if self.decoding() {
            verdict().map_err(|message| self.fail(message))
        } else {
            Ok(())
        }
    }

    /// A length that must equal `live`, the decoding system's own size of
    /// the `what` that follow.
    fn size(&mut self, live: usize, what: &str) -> Result<(), ImageError> {
        let mut n = live;
        self.usize(&mut n)?;
        if n != live {
            return Err(ImageError::Incompatible {
                reason: format!("image has {n} {what}, this system has {live}"),
            });
        }
        Ok(())
    }

    /// A `u32` varint.
    fn u32(&mut self, v: &mut u32) -> Result<(), ImageError> {
        let mut wide = u64::from(*v);
        self.u64(&mut wide)?;
        *v = u32::try_from(wide).map_err(|_| self.fail("value does not fit u32"))?;
        Ok(())
    }

    /// A `u16` varint.
    fn u16(&mut self, v: &mut u16) -> Result<(), ImageError> {
        let mut wide = u64::from(*v);
        self.u64(&mut wide)?;
        *v = u16::try_from(wide).map_err(|_| self.fail("value does not fit u16"))?;
        Ok(())
    }

    /// A `usize` varint.
    fn usize(&mut self, v: &mut usize) -> Result<(), ImageError> {
        let mut wide = *v as u64;
        self.u64(&mut wide)?;
        *v = usize::try_from(wide).map_err(|_| self.fail("length does not fit usize"))?;
        Ok(())
    }

    /// A zigzagged `i64` varint.
    fn i64(&mut self, v: &mut i64) -> Result<(), ImageError> {
        let mut wide = zigzag(*v);
        self.u64(&mut wide)?;
        *v = unzigzag(wide);
        Ok(())
    }

    /// A byte that must be 0 or 1.
    fn bool(&mut self, v: &mut bool) -> Result<(), ImageError> {
        let mut byte = u8::from(*v);
        self.u8(&mut byte)?;
        if byte > 1 {
            return Err(self.fail(format!("boolean byte must be 0 or 1, found {byte}")));
        }
        *v = byte == 1;
        Ok(())
    }

    /// A one-byte tag that must not exceed `max`; `what` names it in the
    /// error.
    fn tag(&mut self, v: &mut u8, max: u8, what: &str) -> Result<(), ImageError> {
        self.u8(v)?;
        if *v > max {
            return Err(self.fail(format!("invalid {what} {v}")));
        }
        Ok(())
    }

    /// One of `options` (at most 255, listing every value `v` can hold),
    /// coded as its index in a [`Io::tag`], so two options code as a
    /// [`Io::bool`] does. The field is named once, in this call.
    fn choice<T: Copy + PartialEq>(
        &mut self,
        v: &mut T,
        options: &[T],
        what: &str,
    ) -> Result<(), ImageError> {
        // A value outside `options` fails the tag's bound, encoding too.
        let mut tag = options.iter().position(|o| o == v).map_or(u8::MAX, |i| i as u8);
        self.tag(&mut tag, (options.len() - 1) as u8, what)?;
        *v = options[usize::from(tag)];
        Ok(())
    }
}

/// The encoding direction: appends each field to the payload it holds.
#[derive(Debug, Default)]
pub struct Enc(pub Vec<u8>);

impl Io for Enc {
    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<(), ImageError> {
        push_varint(&mut self.0, *v);
        Ok(())
    }

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<(), ImageError> {
        self.0.push(*v);
        Ok(())
    }

    #[inline]
    fn len(&mut self, n: &mut usize) -> Result<(), ImageError> {
        self.usize(n)
    }

    #[inline]
    fn fail(&self, message: impl Into<String>) -> ImageError {
        ImageError::Format { offset: self.0.len(), message: message.into() }
    }

    #[inline]
    fn decoding(&self) -> bool {
        false
    }
}

/// The decoding direction: reads each field from the payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Io for Dec<'_> {
    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<(), ImageError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let mut b = 0;
            self.u8(&mut b)?;
            if shift == 63 && b > 1 {
                return Err(self.fail("varint overflows u64"));
            }
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                *v = value;
                return Ok(());
            }
            // At shift 63 a continued byte exceeds 1, so the loop ends there.
            shift += 7;
        }
    }

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<(), ImageError> {
        *v = *self.buf.get(self.pos).ok_or(ImageError::Truncated { offset: self.pos })?;
        self.pos += 1;
        Ok(())
    }

    #[inline]
    fn len(&mut self, n: &mut usize) -> Result<(), ImageError> {
        self.usize(n)?;
        if *n > self.buf.len() - self.pos {
            return Err(self.fail(format!("declared {n} elements exceed remaining bytes")));
        }
        Ok(())
    }

    #[inline]
    fn fail(&self, message: impl Into<String>) -> ImageError {
        ImageError::Format { offset: self.pos, message: message.into() }
    }

    #[inline]
    fn decoding(&self) -> bool {
        true
    }
}

/// An optional value: a presence boolean, then the value when present.
pub fn opt<I: Io, T: Default>(
    io: &mut I,
    v: &mut Option<T>,
    f: impl FnOnce(&mut I, &mut T) -> Result<(), ImageError>,
) -> Result<(), ImageError> {
    let mut present = v.is_some();
    io.bool(&mut present)?;
    if !present {
        *v = None;
        return Ok(());
    }
    f(io, v.get_or_insert_with(T::default))
}

/// A sequence: its length, then each element. Decoding keeps as many
/// elements as the image holds and appends the missing ones one at a time,
/// so memory grows only with the bytes actually decoded.
pub fn seq<I: Io, T: Default>(
    io: &mut I,
    v: &mut Vec<T>,
    mut f: impl FnMut(&mut I, &mut T) -> Result<(), ImageError>,
) -> Result<(), ImageError> {
    let mut n = v.len();
    io.len(&mut n)?;
    v.truncate(n);
    for i in 0..n {
        if i == v.len() {
            v.push(T::default());
        }
        f(io, &mut v[i])?;
    }
    Ok(())
}

/// A queue, front first, coded as a [`seq`].
pub fn deque<I: Io, T: Default>(
    io: &mut I,
    v: &mut VecDeque<T>,
    f: impl FnMut(&mut I, &mut T) -> Result<(), ImageError>,
) -> Result<(), ImageError> {
    let mut items = Vec::from(std::mem::take(v));
    let coded = seq(io, &mut items, f);
    *v = items.into();
    coded
}

/// A slice of the decoding system's own size: its length, which must equal
/// the slice's ([`Io::size`]), then each element in place.
pub fn each<I: Io, T>(
    io: &mut I,
    v: &mut [T],
    what: &str,
    mut f: impl FnMut(&mut I, &mut T) -> Result<(), ImageError>,
) -> Result<(), ImageError> {
    io.size(v.len(), what)?;
    for item in v {
        f(io, item)?;
    }
    Ok(())
}

/// The payload `image` encodes.
///
/// # Panics
///
/// Panics if `image` fails, which a live value never does.
pub fn encode(image: impl FnOnce(&mut Enc) -> Result<(), ImageError>) -> Vec<u8> {
    let mut enc = Enc::default();
    image(&mut enc).expect("a live value encodes");
    enc.0
}

/// Decodes all of `payload` with `image`.
///
/// # Errors
///
/// `image`'s error, or an [`ImageError::Format`] when bytes are left over.
pub fn decode(
    payload: &[u8],
    image: impl FnOnce(&mut Dec) -> Result<(), ImageError>,
) -> Result<(), ImageError> {
    let mut dec = Dec { buf: payload, pos: 0 };
    image(&mut dec)?;
    let trailing = payload.len() - dec.pos;
    if trailing > 0 {
        return Err(dec.fail(format!("{trailing} trailing payload bytes")));
    }
    Ok(())
}

/// Incremental FNV-1a 64-bit hash: the checksum of every BTF trace file and
/// BSS1 snapshot image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` into the running hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    #[inline]
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, ... become 0, 1, 2, 3, ...).
#[inline]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
#[inline]
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_queues_and_options_round_trip() {
        let (mut v, mut q, mut o) = (vec![0u64, 1 << 40], VecDeque::from([7u64, 8]), Some(-3i64));
        let bytes = encode(|io| {
            seq(io, &mut v, Io::u64)?;
            deque(io, &mut q, Io::u64)?;
            opt(io, &mut o, Io::i64)
        });
        // Decoding overwrites: surplus elements go, missing ones are added.
        let (mut v2, mut q2, mut o2) = (vec![9u64; 5], VecDeque::new(), None);
        decode(&bytes, |io| {
            seq(io, &mut v2, Io::u64)?;
            deque(io, &mut q2, Io::u64)?;
            opt(io, &mut o2, Io::i64)
        })
        .unwrap();
        assert_eq!((v2, q2, o2), (v, q, o));
    }

    #[test]
    fn a_choice_codes_its_index_as_a_tag() {
        let letters = ['a', 'b', 'c'];
        let (mut on, mut letter) = (true, 'c');
        let bytes = encode(|io| {
            io.choice(&mut on, &[false, true], "switch")?;
            io.choice(&mut letter, &letters, "letter")
        });
        // The bytes of a bool, then of a tag.
        assert_eq!(bytes, [1, 2]);
        let (mut on2, mut letter2) = (false, 'a');
        decode(&bytes, |io| {
            io.choice(&mut on2, &[false, true], "switch")?;
            io.choice(&mut letter2, &letters, "letter")
        })
        .unwrap();
        assert_eq!((on2, letter2), (on, letter));
        assert_format(&[3], "invalid letter 3", |d| d.choice(&mut 'a', &letters, "letter"));
    }

    #[test]
    fn a_size_other_than_the_live_one_is_incompatible() {
        let bytes = encode(|io| each(io, &mut [1u64, 2, 3], "banks", Io::u64));
        let err = decode(&bytes, |io| each(io, &mut [0u64; 2], "banks", Io::u64)).unwrap_err();
        let reason = "image has 3 banks, this system has 2".to_string();
        assert_eq!(err, ImageError::Incompatible { reason });
    }

    /// Decodes `bytes` with `f`, expecting a `Format` error naming `needle`.
    fn assert_format(
        bytes: &[u8],
        needle: &str,
        f: impl FnOnce(&mut Dec) -> Result<(), ImageError>,
    ) {
        match decode(bytes, f) {
            Err(ImageError::Format { message, .. }) => {
                assert!(message.contains(needle), "{message}")
            }
            other => panic!("expected a Format error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn the_decoder_refuses_malformed_values() {
        let overlong = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_format(&overlong, "overflows u64", |d| d.u64(&mut 0));
        assert_format(&[0x80; 11], "overflows u64", |d| d.u64(&mut 0));
        assert_format(&[2], "0 or 1", |d| d.bool(&mut false));
        assert_format(&[4], "invalid stage 4", |d| d.tag(&mut 0, 3, "stage"));
        assert_format(&[0x80, 0x80, 0x04], "fit u16", |d| d.u16(&mut 0));
        assert_format(&[3, 0], "exceed remaining bytes", |d| d.len(&mut 0));
        assert_format(&[0, 0], "1 trailing payload bytes", |d| d.u8(&mut 0));
        assert_eq!(decode(&[0x80], |d| d.u64(&mut 0)), Err(ImageError::Truncated { offset: 1 }));
    }
}
