//! Scatter-gather segment lists: the `IoSlice`-style currency of the
//! zero-copy write path.
//!
//! An encoder that would otherwise flatten a record into one `Vec<u8>`
//! instead emits a list of [`Segment`]s: small owned header runs
//! interleaved with refcounted payload views. The list is not flattened
//! at layer boundaries: [`segments_to_parts`] turns it into refcounted
//! parts — shared segments by refcount, the owned runs copied once into
//! one arena — and both the transport (`rocnet::Comm::send_segments`,
//! which ships the parts as one message) and the storage backend
//! (`rocstore::SharedFs::append_segments`, which keeps them as parts of
//! the file) consume that form.

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

/// A segment list as refcounted parts, in order: each `Shared` segment
/// becomes a part by refcount, each run of adjacent `Owned` segments
/// becomes one part, and empty runs are dropped. All owned bytes of the
/// list are copied up front into a single arena (one allocation per call,
/// none when there are no owned bytes) and every owned part is a window
/// into it, so a part keeps that arena — and a shared part its producer's
/// buffer — alive for as long as it lives.
pub fn segments_to_parts(segments: &[Segment]) -> impl Iterator<Item = Bytes> + '_ {
    let owned = || {
        segments.iter().filter_map(|s| match s {
            Segment::Owned(v) if !v.is_empty() => Some(v.as_slice()),
            _ => None,
        })
    };
    let arena = owned().next().is_some().then(|| {
        let mut arena = Vec::with_capacity(owned().map(<[u8]>::len).sum());
        owned().for_each(|v| arena.extend_from_slice(v));
        Bytes::from(arena)
    });
    let mut at = 0;
    segments
        .chunk_by(|a, b| matches!((a, b), (Segment::Owned(_), Segment::Owned(_))))
        .filter(|run| segments_len(run) > 0)
        .filter_map(move |run| match run {
            [Segment::Shared(b)] => Some(b.clone()),
            owned_run => {
                let n = segments_len(owned_run);
                at += n;
                arena.as_ref().map(|a| a.slice(at - n..at))
            }
        })
}

/// Concatenate refcounted parts into one exactly-sized buffer (the single
/// assembly point for part lists; one allocation, one copy per byte).
pub fn flatten_parts(parts: &[Bytes]) -> Bytes {
    let mut out = Vec::with_capacity(parts.iter().map(Bytes::len).sum());
    for p in parts {
        out.extend_from_slice(p);
    }
    Bytes::from(out)
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
    fn parts_coalesce_owned_runs_into_one_arena() {
        let shared = Bytes::from(vec![9u8; 8]);
        let segs = [
            Segment::Owned(b"he".to_vec()),
            Segment::Owned(b"ad".to_vec()),
            Segment::Shared(shared.clone()),
            Segment::Owned(Vec::new()),
            Segment::Shared(Bytes::new()),
            Segment::Owned(b"tail".to_vec()),
        ];
        let parts: Vec<Bytes> = segments_to_parts(&segs).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], b"head"[..]);
        assert_eq!(
            parts[1].as_ptr(),
            shared.as_ptr(),
            "shared part is not copied"
        );
        assert_eq!(parts[2], b"tail"[..]);
        // Both owned runs are windows of the same arena.
        assert_eq!(parts[2].as_ptr(), parts[0].as_ptr().wrapping_add(4));
        assert_eq!(flatten_parts(&parts), segments_to_vec(&segs));
        let empty = [Segment::Owned(Vec::new()), Segment::Shared(Bytes::new())];
        assert_eq!(segments_to_parts(&empty).count(), 0);
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
