//! Non-blocking operations: `isend` / `irecv` with request handles.
//!
//! The fabric's sends are already asynchronous (eager), so [`SendRequest`]
//! exists mainly for interface parity; [`RecvRequest`] genuinely decouples
//! posting a receive from completing it, which lets protocol code overlap
//! several expected messages — the pattern MPI codes use around
//! `MPI_Waitall`.

use rocio_core::{Result, RocError};

use crate::comm::{Comm, Message};

/// Handle for a posted non-blocking send.
///
/// Eager fabric: the payload is already in flight when `isend` returns;
/// `wait` just reports the send-completion time.
#[derive(Debug)]
#[must_use = "requests must be completed with wait()"]
pub struct SendRequest {
    sent_at: f64,
}

impl SendRequest {
    /// Complete the send; returns the virtual time the send completed
    /// locally.
    pub fn wait(self) -> f64 {
        self.sent_at
    }
}

/// Handle for a posted non-blocking receive.
#[derive(Debug)]
#[must_use = "requests must be completed with wait()/test()"]
pub struct RecvRequest {
    src: Option<usize>,
    tag: Option<u32>,
    done: Option<Message>,
}

impl Comm {
    /// Post a non-blocking send. The message is injected immediately
    /// (eager protocol); the handle records the completion time.
    pub fn isend(&self, dst: usize, tag: u32, payload: &[u8]) -> Result<SendRequest> {
        self.send(dst, tag, payload)?;
        Ok(SendRequest { sent_at: self.now() })
    }

    /// Post a non-blocking receive for `(src, tag)` (wildcards allowed,
    /// same rules as [`Comm::recv`]).
    pub fn irecv(&self, src: Option<usize>, tag: Option<u32>) -> Result<RecvRequest> {
        if let Some(s) = src {
            if s >= self.size() {
                return Err(RocError::Comm(format!(
                    "irecv: rank {s} out of range (size {})",
                    self.size()
                )));
            }
        }
        Ok(RecvRequest {
            src,
            tag,
            done: None,
        })
    }

    /// Try to complete a posted receive without blocking.
    pub fn test(&self, req: &mut RecvRequest) -> Option<Message> {
        if let Some(m) = req.done.take() {
            return Some(m);
        }
        self.try_recv(req.src, req.tag)
    }

    /// Block until a posted receive completes.
    pub fn wait(&self, req: RecvRequest) -> Result<Message> {
        if let Some(m) = req.done {
            return Ok(m);
        }
        self.recv(req.src, req.tag)
    }

    /// Complete a set of posted receives, in any order; results are
    /// returned in posting order (`MPI_Waitall`).
    pub fn wait_all(&self, reqs: Vec<RecvRequest>) -> Result<Vec<Message>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Combined send+receive (`MPI_Sendrecv`): ships `payload` to `dst`
    /// and receives one message from `src` with the same tag. The eager
    /// fabric makes this deadlock-free in rings and exchanges.
    pub fn sendrecv(
        &self,
        dst: usize,
        src: usize,
        tag: u32,
        payload: &[u8],
    ) -> Result<Message> {
        self.send(dst, tag, payload)?;
        self.recv(Some(src), Some(tag))
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::ClusterSpec;
    use crate::harness::run_ranks;

    #[test]
    fn isend_wait_reports_time() {
        let out = run_ranks(2, ClusterSpec::turing(2), |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 5, &[0u8; 4096]).unwrap();
                let t = req.wait();
                assert!(t > 0.0);
                t
            } else {
                comm.recv(Some(0), Some(5)).unwrap();
                0.0
            }
        });
        assert!(out[0] > 0.0);
    }

    #[test]
    fn irecv_test_then_wait() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                // Give rank 1 a chance to post before we send.
                comm.send(1, 9, b"payload").unwrap();
                bytes::Bytes::new()
            } else {
                let mut req = comm.irecv(Some(0), Some(9)).unwrap();
                // test() may miss (message still physically in flight):
                // that is a valid non-blocking answer, not a cue to spin.
                // wait() parks on the fabric — and lends the caller's
                // scheduler slot — until the message lands.
                match comm.test(&mut req) {
                    Some(m) => m.payload.bytes(),
                    None => comm.wait(req).unwrap().payload.bytes(),
                }
            }
        });
        assert_eq!(out[1], b"payload");
    }

    #[test]
    fn wait_all_returns_in_posting_order() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            if comm.rank() == 0 {
                let reqs = vec![
                    comm.irecv(Some(1), Some(1)).unwrap(),
                    comm.irecv(Some(2), Some(1)).unwrap(),
                ];
                let msgs = comm.wait_all(reqs).unwrap();
                msgs.iter().map(|m| m.payload[0]).collect::<Vec<_>>()
            } else {
                comm.send(0, 1, &[comm.rank() as u8]).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    #[test]
    fn sendrecv_ring_exchange() {
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let n = comm.size();
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            let m = comm
                .sendrecv(next, prev, 7, &[comm.rank() as u8])
                .unwrap();
            m.payload[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn irecv_validates_source() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.irecv(Some(9), None).is_err()
        });
        assert!(out[0]);
    }
}
