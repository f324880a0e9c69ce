//! Scatter-gather segment lists: the `IoSlice`-style currency of the
//! zero-copy write path.
//!
//! An encoder that would otherwise flatten a record into one `Vec<u8>`
//! instead emits a list of [`Segment`]s: small owned header runs
//! interleaved with refcounted payload views. The list is not flattened
//! at layer boundaries: the transport (`rocnet::Comm::send_segments`)
//! ships it as message parts, copying only the owned runs, and the storage
//! backend (`rocstore::SharedFs::append_segments`) copies it once into the
//! file.

use bytes::Bytes;

/// One contiguous run of encoded bytes.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Small owned bytes (headers, attribute tables, markers).
    Owned(Vec<u8>),
    /// A refcounted view of payload bytes shared with their producer.
    Shared(Bytes),
}

impl Segment {
    /// The bytes of this segment.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Shared(b) => b,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl From<Vec<u8>> for Segment {
    fn from(v: Vec<u8>) -> Self {
        Segment::Owned(v)
    }
}

impl From<Bytes> for Segment {
    fn from(b: Bytes) -> Self {
        Segment::Shared(b)
    }
}

/// Total byte length of a segment list.
pub fn segments_len(segments: &[Segment]) -> usize {
    segments.iter().map(|s| s.len()).sum()
}

/// Flatten a segment list into one contiguous buffer (the single assembly
/// point for callers that need contiguity).
pub fn segments_to_vec(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(segments_len(segments));
    for s in segments {
        out.extend_from_slice(s.as_slice());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_preserves_order_and_length() {
        let segs = vec![
            Segment::from(vec![1u8, 2]),
            Segment::from(Bytes::copy_from_slice(&[3, 4, 5])),
            Segment::from(Vec::new()),
            Segment::from(vec![6]),
        ];
        assert_eq!(segments_len(&segs), 6);
        assert_eq!(segments_to_vec(&segs), vec![1, 2, 3, 4, 5, 6]);
        assert!(segs[2].is_empty());
        assert_eq!(segs[1].as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn shared_segment_does_not_copy() {
        let payload = Bytes::from(vec![9u8; 1024]);
        let seg = Segment::from(payload.slice(8..16));
        assert_eq!(seg.len(), 8);
        drop(payload);
        assert_eq!(seg.as_slice(), &[9u8; 8]);
    }
}
