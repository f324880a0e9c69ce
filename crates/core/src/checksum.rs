//! Deterministic content checksums for round-trip verification.
//!
//! Restart correctness (snapshot → read-back equality) is a core invariant
//! of both I/O libraries. The integration tests and the restart path use
//! this checksum to compare block contents cheaply without shipping full
//! copies around.
//!
//! The digest is XXH64 (seed 0) over a logical byte stream: block id,
//! window, attributes, then each dataset's name, dtype tag, shape,
//! attributes and canonical little-endian payload. The hasher streams —
//! four independent 64-bit lanes over 32-byte stripes — so the digest
//! never depends on how the stream is split into [`Hasher::update`]
//! calls, and payloads are hashed in place
//! ([`ArrayData::for_each_le_chunk`](crate::ArrayData::for_each_le_chunk))
//! rather than copied out first.

use std::collections::BTreeMap;

use crate::attr::AttrValue;
use crate::block::DataBlock;
use crate::dataset::Dataset;

/// 64-bit content checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checksum(pub u64);

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per stripe: one 8-byte word for each of the four lanes.
const STRIPE: usize = 32;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Incremental XXH64 hasher (seed 0).
#[derive(Debug, Clone)]
pub struct Hasher {
    lanes: [u64; 4],
    /// Bytes absorbed so far.
    total: u64,
    /// A partial stripe waiting for more input: `pending[..pending_len]`.
    pending: [u8; STRIPE],
    pending_len: usize,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            total: 0,
            pending: [0; STRIPE],
            pending_len: 0,
        }
    }
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    fn stripe(&mut self, s: &[u8; STRIPE]) {
        for (lane, w) in self.lanes.iter_mut().zip(s.as_chunks::<8>().0) {
            *lane = round(*lane, u64::from_le_bytes(*w));
        }
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(STRIPE - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let full = self.pending;
            self.stripe(&full);
            self.pending_len = 0;
        }
        let (stripes, rest) = bytes.as_chunks::<STRIPE>();
        for s in stripes {
            self.stripe(s);
        }
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Absorb a length-prefixed string (prefix avoids ambiguity between
    /// adjacent fields).
    pub fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes());
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> Checksum {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &v| merge(h, v))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let (words, mut rest) = self.pending[..self.pending_len].as_chunks::<8>();
        for w in words {
            h = (h ^ round(0, u64::from_le_bytes(*w)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        if let Some((w, tail)) = rest.split_first_chunk::<4>() {
            h = (h ^ u64::from(u32::from_le_bytes(*w)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = tail;
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        Checksum(h)
    }
}

impl Checksum {
    /// Checksum of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Checksum {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finish()
    }

    /// Checksum of a dataset: name, shape, dtype, attributes and payload.
    pub fn of_dataset(ds: &Dataset) -> Checksum {
        let mut h = Hasher::new();
        hash_dataset(&mut h, ds, &mut Vec::new());
        h.finish()
    }

    /// Checksum of a whole data block, order-sensitive in datasets.
    pub fn of_block(block: &DataBlock) -> Checksum {
        let mut h = Hasher::new();
        let mut attr_buf = Vec::new();
        h.update(&block.id.0.to_le_bytes());
        h.update_str(&block.window);
        hash_attrs(&mut h, &block.attrs, &mut attr_buf);
        h.update(&(block.datasets.len() as u64).to_le_bytes());
        for ds in &block.datasets {
            hash_dataset(&mut h, ds, &mut attr_buf);
        }
        h.finish()
    }
}

/// Hash an attribute map, encoding each value through the reused `buf`.
fn hash_attrs(h: &mut Hasher, attrs: &BTreeMap<String, AttrValue>, buf: &mut Vec<u8>) {
    h.update(&(attrs.len() as u64).to_le_bytes());
    for (k, v) in attrs {
        h.update_str(k);
        buf.clear();
        v.encode(buf);
        h.update(buf);
    }
}

fn hash_dataset(h: &mut Hasher, ds: &Dataset, attr_buf: &mut Vec<u8>) {
    h.update_str(&ds.name);
    h.update(&[ds.dtype().tag()]);
    h.update(&(ds.shape.len() as u64).to_le_bytes());
    for &e in &ds.shape {
        h.update(&(e as u64).to_le_bytes());
    }
    hash_attrs(h, &ds.attrs, attr_buf);
    ds.data.for_each_le_chunk(|c| h.update(c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::dtype::ArrayData;

    fn block() -> DataBlock {
        DataBlock::new(BlockId(3), "fluid")
            .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]).with_attr("units", "Pa"))
            .with_attr("step", 50i64)
    }

    #[test]
    fn equal_blocks_hash_equal() {
        assert_eq!(Checksum::of_block(&block()), Checksum::of_block(&block()));
    }

    #[test]
    fn payload_change_changes_hash() {
        let a = block();
        let mut b = block();
        b.dataset_mut("p").unwrap().data.as_f64_mut().unwrap()[0] = 1.0000001;
        assert_ne!(Checksum::of_block(&a), Checksum::of_block(&b));
    }

    #[test]
    fn metadata_change_changes_hash() {
        let a = block();
        let mut b = block();
        b.attrs.insert("step".into(), 51i64.into());
        assert_ne!(Checksum::of_block(&a), Checksum::of_block(&b));
        let mut c = block();
        c.datasets[0].name = "q".into();
        assert_ne!(Checksum::of_block(&a), Checksum::of_block(&c));
    }

    #[test]
    fn shape_vs_flat_distinguished() {
        let a = Dataset::new("x", vec![4], ArrayData::F64(vec![0.0; 4])).unwrap();
        let b = Dataset::new("x", vec![2, 2], ArrayData::F64(vec![0.0; 4])).unwrap();
        assert_ne!(Checksum::of_dataset(&a), Checksum::of_dataset(&b));
    }

    #[test]
    fn str_length_prefix_prevents_concatenation_ambiguity() {
        let mut h1 = Hasher::new();
        h1.update_str("ab");
        h1.update_str("c");
        let mut h2 = Hasher::new();
        h2.update_str("a");
        h2.update_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn known_xxh64_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(Checksum::of_bytes(b""), Checksum(0xEF46_DB37_51D8_E999));
        assert_eq!(Checksum::of_bytes(b"a"), Checksum(0xD24E_C4F1_A98C_6E5B));
        assert_eq!(Checksum::of_bytes(b"abc"), Checksum(0x44BC_2CF5_AD77_0999));
        assert_eq!(
            Checksum::of_bytes(b"Nobody inspects the spammish repetition"),
            Checksum(0xFBCE_A83C_8A37_8BF1)
        );
        assert_eq!(
            Checksum::of_bytes(b"The quick brown fox jumps over the lazy dog"),
            Checksum(0x0B24_2D36_1FDA_71BC)
        );
    }
}
