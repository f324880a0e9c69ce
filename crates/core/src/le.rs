//! Checked little-endian decoding.
//!
//! Every wire message and file format in the workspace is little-endian.
//! Decoders used to pair a bounds-checked `take` with
//! `try_into().unwrap()` — correct, but an `unwrap` in library code all
//! the same, and `roclint` deny-lists those. These helpers fold the
//! length check into the conversion and surface short input as
//! [`RocError::Corrupt`], so decode paths are `unwrap`-free end to end.
//!
//! Each helper reads from the *front* of the slice and ignores any
//! excess, which lets callers pass either an exact `take(pos, n)?` slice
//! or a wider `chunks_exact` window with a range applied.

use crate::error::{Result, RocError};

fn front<const N: usize>(b: &[u8], what: &str) -> Result<[u8; N]> {
    b.get(..N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            RocError::Corrupt(format!(
                "truncated {what}: need {N} bytes, have {}",
                b.len()
            ))
        })
}

pub fn u16(b: &[u8], what: &str) -> Result<u16> {
    Ok(u16::from_le_bytes(front(b, what)?))
}

pub fn u32(b: &[u8], what: &str) -> Result<u32> {
    Ok(u32::from_le_bytes(front(b, what)?))
}

pub fn u64(b: &[u8], what: &str) -> Result<u64> {
    Ok(u64::from_le_bytes(front(b, what)?))
}

pub fn i32(b: &[u8], what: &str) -> Result<i32> {
    Ok(i32::from_le_bytes(front(b, what)?))
}

pub fn i64(b: &[u8], what: &str) -> Result<i64> {
    Ok(i64::from_le_bytes(front(b, what)?))
}

pub fn f32(b: &[u8], what: &str) -> Result<f32> {
    Ok(f32::from_le_bytes(front(b, what)?))
}

pub fn f64(b: &[u8], what: &str) -> Result<f64> {
    Ok(f64::from_le_bytes(front(b, what)?))
}

/// Decode a run of `N`-byte little-endian elements from a slice whose
/// length the caller has already validated as a multiple of `N` (a tail
/// short of one element is ignored).
///
/// Unlike the checked per-element helpers above — whose `Result` plumbing
/// keeps the compiler from vectorizing bulk decode loops — this is a
/// straight fixed-stride copy loop: `decode` is one of the
/// `{i32,i64,f32,f64}::from_le_bytes` intrinsics, so the whole thing
/// compiles down to a (byte-swapping on big-endian) memcpy. Restart moves
/// hundreds of megabytes through array decode, which is why it matters.
pub fn array<const N: usize, T>(bytes: &[u8], decode: impl Fn([u8; N]) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(bytes.len() / N);
    out.extend(bytes.chunks_exact(N).map(|c| {
        let mut e = [0u8; N];
        e.copy_from_slice(c);
        decode(e)
    }));
    out
}

/// [`array`] into an existing buffer: overwrite `out` element by element
/// from `bytes`, stopping at whichever runs out first.
pub fn array_into<const N: usize, T>(out: &mut [T], bytes: &[u8], decode: impl Fn([u8; N]) -> T) {
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(N)) {
        let mut e = [0u8; N];
        e.copy_from_slice(c);
        *o = decode(e);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn decodes_from_front_and_ignores_excess() {
        let b = [0x2a, 0, 0, 0, 0, 0, 0, 0, 0xff];
        assert_eq!(super::u64(&b, "x").unwrap(), 42);
        assert_eq!(super::u16(&b, "x").unwrap(), 42);
    }

    #[test]
    fn array_decodes_all_elements_and_ignores_short_tail() {
        let mut b = Vec::new();
        for v in [1.5f64, -2.25, 1e300] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.push(0xff); // short tail: not a full element, ignored
        assert_eq!(super::array(&b, f64::from_le_bytes), vec![1.5, -2.25, 1e300]);
        assert_eq!(super::array(&[], i32::from_le_bytes), Vec::<i32>::new());
    }

    #[test]
    fn short_input_is_corrupt() {
        let e = super::f64(&[1, 2, 3], "density").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("density") && msg.contains("need 8"), "{msg}");
    }
}
