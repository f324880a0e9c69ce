//! Message payloads: one or more refcounted byte parts.
//!
//! A scatter-gather send ([`crate::Comm::send_segments`]) ships its segment
//! list as parts instead of a flattened image: shared payload segments go
//! by refcount and only runs of small owned header bytes are copied. A
//! receiver that walks the parts (the two-phase restart) never assembles
//! the message; one that needs contiguous bytes calls [`Payload::bytes`],
//! which is zero-copy for a one-part payload and assembles a multi-part
//! one once, on first access. Every charge the fabric makes depends only
//! on [`Payload::len`], the total over all parts.

use std::ops::Deref;
use std::sync::OnceLock;

use bytes::Bytes;
use rocio_core::{flatten_parts, segments_to_parts, Segment};

/// The bytes of one message.
#[derive(Debug, Clone)]
pub struct Payload(Repr);

#[derive(Debug, Clone)]
enum Repr {
    One(Bytes),
    Many {
        parts: Vec<Bytes>,
        len: usize,
        /// The contiguous image, assembled on first request.
        flat: OnceLock<Bytes>,
    },
}

impl Payload {
    /// Build a payload from a scatter-gather list
    /// ([`rocio_core::segments_to_parts`]): each `Shared` segment becomes a
    /// part by refcount, each run of adjacent `Owned` segments a window of
    /// one per-call arena, and empty segments are dropped.
    pub fn from_segments(segments: &[Segment]) -> Self {
        let mut it = segments_to_parts(segments);
        let first = it.next().unwrap_or_default();
        let Some(second) = it.next() else {
            return Payload(Repr::One(first));
        };
        let mut parts = vec![first, second];
        parts.extend(it);
        let len = parts.iter().map(Bytes::len).sum();
        Payload(Repr::Many {
            parts,
            len,
            flat: OnceLock::new(),
        })
    }

    /// Total length in bytes over all parts.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(b) => b.len(),
            Repr::Many { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parts in wire order, each a refcounted view of the sender's
    /// buffer (never empty for a multi-part payload).
    pub fn parts(&self) -> &[Bytes] {
        match &self.0 {
            Repr::One(b) => std::slice::from_ref(b),
            Repr::Many { parts, .. } => parts,
        }
    }

    /// The payload as one contiguous buffer: the sender's own buffer for a
    /// one-part payload; a multi-part payload is assembled the first time
    /// and shared after that.
    pub fn bytes(&self) -> Bytes {
        self.flat().clone()
    }

    fn flat(&self) -> &Bytes {
        match &self.0 {
            Repr::One(b) => b,
            Repr::Many { parts, flat, .. } => flat.get_or_init(|| flatten_parts(parts)),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload(Repr::One(b))
    }
}

/// Contiguous view (see [`Payload::bytes`] for when this assembles).
impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_runs_coalesce_and_shared_parts_keep_their_buffer() {
        let shared = Bytes::from(vec![9u8; 8]);
        let segs = [
            Segment::Owned(b"he".to_vec()),
            Segment::Owned(b"ad".to_vec()),
            Segment::Shared(shared.clone()),
            Segment::Owned(Vec::new()),
            Segment::Shared(Bytes::new()),
            Segment::Owned(b"tail".to_vec()),
        ];
        let p = Payload::from_segments(&segs);
        let parts = p.parts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], b"head"[..]);
        assert_eq!(
            parts[1].as_ptr(),
            shared.as_ptr(),
            "shared part is not copied"
        );
        assert_eq!(parts[2], b"tail"[..]);
        assert_eq!(p.len(), 16);
        assert_eq!(&p[..], rocio_core::segments_to_vec(&segs).as_slice());
        // The contiguous image is assembled once and then shared.
        assert_eq!(p.bytes().as_ptr(), p.bytes().as_ptr());
    }

    #[test]
    fn one_part_payload_is_zero_copy() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let p = Payload::from_segments(&[Segment::Shared(b.clone())]);
        assert_eq!(p.parts().len(), 1);
        assert_eq!(p.bytes().as_ptr(), b.as_ptr());
        let empty = Payload::from_segments(&[]);
        assert!(empty.is_empty() && empty.parts().len() == 1);
    }
}
