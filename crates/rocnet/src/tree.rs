//! Binomial-tree collectives: the log(p) algorithms production MPI uses.
//!
//! The default collectives in [`crate::collective`] are linear (root
//! receives from everyone), which is faithful to small-cluster behaviour
//! and keeps root-side costs explicit, but costs O(p) at the root. These
//! tree variants cost O(log p) rounds; the `collectives` ablation bench
//! compares both on the Frost model at 512 ranks.
//!
//! Like the linear collectives, every operation returns `Result` and
//! forwards received payloads as refcounted [`Bytes`] — an interior tree
//! node relays its subtree's data without copying it.

use bytes::Bytes;
use rocio_core::{Result, RocError};

use crate::comm::Comm;

const OP_TREE_UP: u8 = 16;
const OP_TREE_DOWN: u8 = 17;

/// Decode an 8-byte little-endian `f64` from the head of a payload.
fn le_f64(payload: &[u8], what: &str) -> Result<f64> {
    let bytes: [u8; 8] = payload
        .get(..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| {
            RocError::Comm(format!(
                "{what}: expected 8-byte f64 payload, got {} bytes",
                payload.len()
            ))
        })?;
    Ok(f64::from_le_bytes(bytes))
}

impl Comm {
    /// Binomial-tree barrier: reduce-to-0 then broadcast, each in
    /// `ceil(log2 p)` rounds.
    pub fn barrier_tree(&self) -> Result<()> {
        let up = self.coll_tag(OP_TREE_UP);
        let down = self.coll_tag(OP_TREE_DOWN);
        self.tree_reduce_bytes(up, &[], |_a, _b| Ok(Vec::new()))?;
        self.tree_bcast_bytes(down, Bytes::new())?;
        Ok(())
    }

    /// Binomial-tree broadcast from rank 0. Rank 0 passes `Some(data)`.
    pub fn bcast_tree(&self, data: Option<&[u8]>) -> Result<Bytes> {
        let tag = self.coll_tag(OP_TREE_DOWN);
        let seed = if self.rank() == 0 {
            let data = data.ok_or_else(|| {
                RocError::Comm("bcast_tree: root must supply data".to_string())
            })?;
            Bytes::copy_from_slice(data)
        } else {
            Bytes::new()
        };
        self.tree_bcast_bytes(tag, seed)
    }

    /// Binomial-tree all-reduce of an `f64` (associative + commutative
    /// `op`): reduce to rank 0, then tree-broadcast the result.
    pub fn allreduce_f64_tree(
        &self,
        x: f64,
        op: impl Fn(f64, f64) -> f64 + Copy,
    ) -> Result<f64> {
        let up = self.coll_tag(OP_TREE_UP);
        let down = self.coll_tag(OP_TREE_DOWN);
        let reduced = self.tree_reduce_bytes(up, &x.to_le_bytes(), |a, b| {
            let xa = le_f64(a, "allreduce_tree")?;
            let xb = le_f64(b, "allreduce_tree")?;
            Ok(op(xa, xb).to_le_bytes().to_vec())
        })?;
        let out = self.tree_bcast_bytes(down, Bytes::from(reduced))?;
        le_f64(&out, "allreduce_tree")
    }

    /// Reduce to rank 0 along a binomial tree. Returns the combined bytes
    /// on rank 0, this rank's contribution elsewhere (callers broadcast).
    fn tree_reduce_bytes(
        &self,
        tag: u32,
        mine: &[u8],
        combine: impl Fn(&[u8], &[u8]) -> Result<Vec<u8>>,
    ) -> Result<Vec<u8>> {
        let rank = self.rank();
        let size = self.size();
        let mut acc = mine.to_vec();
        let mut step = 1;
        while step < size {
            if rank.is_multiple_of(2 * step) {
                let peer = rank + step;
                if peer < size {
                    let m = self.recv(Some(peer), Some(tag))?;
                    acc = combine(&acc, &m.payload)?;
                }
            } else if rank % (2 * step) == step {
                let peer = rank - step;
                self.send(peer, tag, &acc)?;
                break;
            }
            step *= 2;
        }
        Ok(acc)
    }

    /// Broadcast from rank 0 along a binomial tree (inverse order of the
    /// reduce). Every rank returns the payload; interior nodes forward
    /// the received handle without copying.
    fn tree_bcast_bytes(&self, tag: u32, mine: Bytes) -> Result<Bytes> {
        let rank = self.rank();
        let size = self.size();
        // Highest power of two <= size.
        let mut top = 1;
        while top * 2 < size {
            top *= 2;
        }
        let mut data = mine;
        // Receive once from the parent (if not root), then forward to
        // children in descending step order.
        let mut step = top;
        let mut received = rank == 0;
        while step >= 1 {
            if !received && rank % (2 * step) == step {
                let m = self.recv(Some(rank - step), Some(tag))?;
                data = m.payload.bytes();
                received = true;
            }
            if received && rank.is_multiple_of(2 * step) {
                let peer = rank + step;
                if peer < size {
                    self.send_bytes(peer, tag, data.clone())?;
                }
            }
            step /= 2;
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::ClusterSpec;
    use crate::harness::run_ranks;

    #[test]
    fn tree_bcast_reaches_everyone() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let out = run_ranks(n, ClusterSpec::ideal(n), |comm| {
                comm.bcast_tree(if comm.rank() == 0 { Some(b"hello") } else { None })
                    .unwrap()
            });
            for o in &out {
                assert_eq!(o, b"hello", "n={n}");
            }
        }
    }

    #[test]
    fn tree_allreduce_matches_linear() {
        for n in [2usize, 4, 7, 16] {
            let out = run_ranks(n, ClusterSpec::ideal(n), |comm| {
                let x = (comm.rank() + 1) as f64;
                let tree = comm.allreduce_f64_tree(x, |a, b| a + b).unwrap();
                let linear = comm.allreduce_sum_f64(x).unwrap();
                (tree, linear)
            });
            let expect = (n * (n + 1) / 2) as f64;
            for (t, l) in &out {
                assert_eq!(*t, expect, "n={n}");
                assert_eq!(*l, expect);
            }
        }
    }

    #[test]
    fn tree_barrier_synchronizes() {
        let out = run_ranks(6, ClusterSpec::ideal(6), |comm| {
            if comm.rank() == 3 {
                comm.advance(5.0);
            }
            comm.barrier_tree().unwrap();
            comm.now()
        });
        for t in &out {
            assert!(*t >= 5.0);
        }
    }

    #[test]
    fn tree_beats_linear_at_scale() {
        // On a real network model with many ranks, the tree reduce's root
        // time must be well below the linear gather's.
        let n = 64;
        let linear = run_ranks(n, ClusterSpec::turing(n), |comm| {
            comm.allreduce_sum_f64(comm.rank() as f64).unwrap();
            comm.now()
        });
        let tree = run_ranks(n, ClusterSpec::turing(n), |comm| {
            comm.allreduce_f64_tree(comm.rank() as f64, |a, b| a + b).unwrap();
            comm.now()
        });
        let lin_max = linear.iter().cloned().fold(0.0f64, f64::max);
        let tree_max = tree.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            tree_max < lin_max * 0.7,
            "tree {tree_max} not clearly faster than linear {lin_max}"
        );
    }

    #[test]
    fn tree_and_linear_interleave_safely() {
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let a = comm.allreduce_sum_f64(1.0).unwrap();
            let b = comm.allreduce_f64_tree(1.0, |x, y| x + y).unwrap();
            let c = comm.allreduce_max_f64(comm.rank() as f64).unwrap();
            (a, b, c)
        });
        for (a, b, c) in &out {
            assert_eq!(*a, 4.0);
            assert_eq!(*b, 4.0);
            assert_eq!(*c, 3.0);
        }
    }
}
