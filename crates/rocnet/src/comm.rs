//! Communicators: the per-rank API surface of the fabric.
//!
//! A [`Comm`] is what MPI calls a communicator handle: it knows its rank,
//! its group (local→global rank mapping), its context id (so messages from
//! different communicators never cross-match), and it owns the rank's
//! virtual clock and stats. `Comm::split` mirrors `MPI_Comm_split`, which
//! Rocpanda's initialization uses to divide the world into client and
//! server communicators (§4.1).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use rocio_core::{Result, RocError, Segment, SimTime};

use crate::cluster::ClusterSpec;
use crate::fabric::{Envelope, Fabric};
use crate::payload::Payload;
use crate::stats::{CommStats, StatsSnapshot};
use crate::trace::{EventKind, TraceEvent};
use crate::vtime::VClock;

/// Largest tag value available to user code; larger tags are reserved for
/// collectives. Wildcard receives never match reserved tags.
pub const TAG_USER_MAX: u32 = 0x0FFF_FFFF;

const COLL_TAG_BASE: u32 = 0xF000_0000;

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's rank *within this communicator*.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload parts, shared with the sender's buffers by refcount — the
    /// receive path never copies the data. Derefs to `&[u8]`, assembling
    /// a multi-part payload once on first access (see [`Payload`]).
    pub payload: Payload,
    /// Virtual send-completion time at the sender.
    pub sent: SimTime,
    /// Virtual arrival time at this rank.
    pub arrival: SimTime,
}

/// Result of a (blocking or non-blocking) probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeInfo {
    /// Sender's rank within this communicator.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// A communicator handle owned by one rank thread.
pub struct Comm {
    fabric: Arc<Fabric>,
    ctx: u64,
    /// Local rank -> global rank.
    group: Arc<Vec<usize>>,
    /// Global rank -> local rank.
    reverse: Arc<HashMap<usize, usize>>,
    my_local: usize,
    clock: Arc<VClock>,
    coll_seq: Cell<u32>,
    split_seq: Cell<u32>,
    stats: CommStats,
    trace: RefCell<Option<Vec<TraceEvent>>>,
}

impl Comm {
    /// The world communicator for global rank `rank` on `fabric`.
    pub fn world(fabric: Arc<Fabric>, rank: usize) -> Self {
        let n = fabric.n_ranks();
        assert!(rank < n, "rank {rank} out of range for {n}-rank fabric");
        let group: Vec<usize> = (0..n).collect();
        let reverse: HashMap<usize, usize> = group.iter().map(|&g| (g, g)).collect();
        // The fabric owns the rank clocks: wildcard matching is gated on a
        // scan of every rank's virtual time (see `fabric` module docs).
        let clock = fabric.clock_of(rank);
        Comm {
            fabric,
            ctx: 0,
            group: Arc::new(group),
            reverse: Arc::new(reverse),
            my_local: rank,
            clock,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            stats: CommStats::default(),
            trace: RefCell::new(None),
        }
    }

    /// Start recording a virtual-time event trace on this communicator.
    pub fn enable_tracing(&self) {
        *self.trace.borrow_mut() = Some(Vec::new());
    }

    /// Stop tracing and return the recorded events (empty if tracing was
    /// never enabled).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.trace.borrow_mut().take().unwrap_or_default()
    }

    fn record(&self, kind: EventKind, peer: Option<usize>, tag: Option<u32>, bytes: usize, t_start: f64) {
        if let Some(events) = self.trace.borrow_mut().as_mut() {
            events.push(TraceEvent {
                kind,
                peer,
                tag,
                bytes,
                t_start,
                t_end: self.clock.now(),
            });
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Global rank of local rank `local`.
    pub fn to_global(&self, local: usize) -> usize {
        self.group[local]
    }

    /// Local rank of global rank `global`, if it is a member.
    pub fn local_of_global(&self, global: usize) -> Option<usize> {
        self.reverse.get(&global).copied()
    }

    /// This rank's global rank.
    pub fn global_rank(&self) -> usize {
        self.group[self.my_local]
    }

    /// The underlying fabric (shared).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The cluster spec the fabric models.
    pub fn cluster(&self) -> &ClusterSpec {
        self.fabric.spec()
    }

    /// This rank's virtual clock (shared across the rank's communicators).
    pub fn clock(&self) -> &Arc<VClock> {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advance virtual time by a raw duration (storage layers use this).
    pub fn advance(&self, dt: SimTime) {
        self.clock.advance(dt);
    }

    /// Perform `work` work-units of computation: advances the clock by the
    /// cluster's modelled compute time, including OS noise.
    pub fn compute(&self, work: f64) {
        let t0 = self.clock.now();
        self.clock.advance(self.fabric.spec().compute_time(work));
        self.record(EventKind::Compute, None, None, 0, t0);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::Compute,
                "compute",
                t0,
                self.clock.now(),
                &format!("work={work}"),
            );
        }
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn node_of_local(&self, local: usize) -> usize {
        self.fabric.spec().node_of(self.group[local])
    }

    /// Send `payload` to local rank `dst` with `tag`.
    ///
    /// Eager-protocol semantics: the payload is copied into the fabric and
    /// the call never blocks. The sender's clock advances by the modelled
    /// injection cost; the message is stamped with its modelled arrival.
    ///
    /// This is the one copy on the path: senders holding a [`Bytes`]
    /// handle should use [`Comm::send_bytes`] to skip it.
    pub fn send(&self, dst: usize, tag: u32, payload: &[u8]) -> Result<()> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(payload))
    }

    /// Send a scatter-gather `segments` list as one message without
    /// assembling it: `Shared` segments travel as parts by refcount and
    /// each run of adjacent `Owned` segments is copied into one part
    /// ([`Payload::from_segments`]). Modelled cost, stats and trace are
    /// those of a [`Comm::send`] of the concatenated bytes.
    pub fn send_segments(&self, dst: usize, tag: u32, segments: &[Segment]) -> Result<()> {
        self.send_payload(dst, tag, Payload::from_segments(segments))
    }

    /// Send an already-shared payload without copying: the receiver's
    /// [`Message::payload`] is a refcounted view of this very buffer.
    /// Modelled cost is identical to [`Comm::send`].
    pub fn send_bytes(&self, dst: usize, tag: u32, payload: Bytes) -> Result<()> {
        self.send_payload(dst, tag, Payload::from(payload))
    }

    /// Every send ends here: the charge depends only on the total length.
    fn send_payload(&self, dst: usize, tag: u32, payload: Payload) -> Result<()> {
        if dst >= self.size() {
            return Err(RocError::Comm(format!(
                "send: rank {dst} out of range (size {})",
                self.size()
            )));
        }
        let spec = self.fabric.spec();
        let t_send_start = self.clock.now();
        self.clock.advance(spec.net.send_cost(payload.len()));
        let arrival = self.clock.now()
            + spec.net.flight_time(
                self.node_of_local(self.my_local),
                self.node_of_local(dst),
                payload.len(),
                self.fabric.n_ranks(),
            );
        self.stats.on_send(payload.len());
        self.record(EventKind::Send, Some(dst), Some(tag), payload.len(), t_send_start);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::Send,
                "send",
                t_send_start,
                self.clock.now(),
                &format!("dst={dst} tag={tag:#x} bytes={}", payload.len()),
            );
        }
        // Gate invariant: the clock must not advance between stamping
        // `arrival` above and handing the envelope to the fabric — the
        // safety scan relies on a sender's published clock never exceeding
        // the arrival of a delivery it still has in flight.
        self.fabric.deliver(
            self.group[dst],
            Envelope {
                ctx: self.ctx,
                src_global: self.global_rank(),
                tag,
                payload,
                sent: self.clock.now(),
                arrival,
            },
        );
        Ok(())
    }

    fn matcher<'a>(
        &'a self,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> impl FnMut(&Envelope) -> bool + 'a {
        let src_global = src.map(|s| self.group[s]);
        let reverse = Arc::clone(&self.reverse);
        let ctx = self.ctx;
        move |e: &Envelope| {
            e.ctx == ctx
                && match src_global {
                    Some(sg) => e.src_global == sg,
                    None => reverse.contains_key(&e.src_global),
                }
                && match tag {
                    Some(t) => e.tag == t,
                    None => e.tag <= TAG_USER_MAX,
                }
        }
    }

    fn to_message(&self, env: Envelope) -> Message {
        self.clock.merge(env.arrival);
        self.clock
            .advance(self.fabric.spec().net.recv_cost(env.payload.len()));
        self.stats.on_recv(env.payload.len());
        Message {
            src: self.reverse[&env.src_global],
            tag: env.tag,
            payload: env.payload,
            sent: env.sent,
            arrival: env.arrival,
        }
    }

    /// Blocking receive. `src`/`tag` of `None` are wildcards; a wildcard
    /// tag only matches user tags (≤ [`TAG_USER_MAX`]).
    ///
    /// A wildcard-source receive resolves in virtual order (earliest
    /// arrival, sender id breaking ties) behind the fabric's conservative
    /// gate, so the match is independent of OS thread scheduling.
    pub fn recv(&self, src: Option<usize>, tag: Option<u32>) -> Result<Message> {
        if let Some(s) = src {
            if s >= self.size() {
                return Err(RocError::Comm(format!(
                    "recv: rank {s} out of range (size {})",
                    self.size()
                )));
            }
        }
        let t0 = self.clock.now();
        let env = if src.is_none() {
            self.fabric.take_any(self.global_rank(), self.matcher(src, tag))
        } else {
            self.fabric
                .take_matching(self.global_rank(), self.matcher(src, tag))
        };
        let msg = self.to_message(env);
        self.record(EventKind::Recv, Some(msg.src), Some(msg.tag), msg.payload.len(), t0);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::Recv,
                "recv",
                t0,
                self.clock.now(),
                &format!("src={} tag={:#x} bytes={}", msg.src, msg.tag, msg.payload.len()),
            );
        }
        Ok(msg)
    }

    /// Non-blocking receive: takes the virtual-order first matching
    /// message that has arrived by the current virtual time, or `None`
    /// once no rank can still produce one. Never consumes virtual time
    /// (though the determinism gate may wait in wall-clock time).
    pub fn try_recv(&self, src: Option<usize>, tag: Option<u32>) -> Option<Message> {
        let env = self.fabric.try_take_at(
            self.global_rank(),
            self.matcher(src, tag),
            self.clock.now(),
        )?;
        Some(self.to_message(env))
    }

    /// Blocking receive with a virtual-time deadline: returns the
    /// virtual-order first matching message that arrives by `deadline`,
    /// or `None` once no rank can still produce one — in which case the
    /// clock advances to `deadline` (the timer fired; the rank idled
    /// until it). This is the primitive under the reliability layer's
    /// retransmit timers ([`crate::rocrel`]): deterministic because the
    /// answer is gated the same way [`Comm::try_recv`] is, with the
    /// deadline standing in for "now".
    pub fn recv_deadline(
        &self,
        src: Option<usize>,
        tag: Option<u32>,
        deadline: SimTime,
    ) -> Option<Message> {
        let t0 = self.clock.now();
        let env = self
            .fabric
            .try_take_at(self.global_rank(), self.matcher(src, tag), deadline);
        match env {
            Some(env) => {
                let msg = self.to_message(env);
                self.record(EventKind::Recv, Some(msg.src), Some(msg.tag), msg.payload.len(), t0);
                if rocobs::enabled() {
                    rocobs::record(
                        rocobs::SpanCategory::Recv,
                        "recv_deadline",
                        t0,
                        self.clock.now(),
                        &format!("src={} tag={:#x} bytes={}", msg.src, msg.tag, msg.payload.len()),
                    );
                }
                Some(msg)
            }
            None => {
                self.clock.advance_to(deadline);
                if rocobs::enabled() {
                    rocobs::record(
                        rocobs::SpanCategory::Recv,
                        "recv_deadline",
                        t0,
                        self.clock.now(),
                        "timeout",
                    );
                }
                None
            }
        }
    }

    /// Blocking probe: waits for a matching message, merges the clock with
    /// its arrival (the CPU idles until then — the behaviour Rocpanda
    /// servers rely on so "the operating system can use the server CPUs",
    /// §6.1) and reports it without removing it.
    pub fn probe(&self, src: Option<usize>, tag: Option<u32>) -> ProbeInfo {
        let t0 = self.clock.now();
        let (src_global, tag, bytes, arrival) = if src.is_none() {
            self.fabric.peek_any(self.global_rank(), self.matcher(src, tag))
        } else {
            self.fabric
                .peek_matching(self.global_rank(), self.matcher(src, tag))
        };
        self.clock.merge(arrival);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::ProbeBlocking,
                "probe",
                t0,
                self.clock.now(),
                &format!("src={} tag={tag:#x} bytes={bytes}", self.reverse[&src_global]),
            );
        }
        ProbeInfo {
            src: self.reverse[&src_global],
            tag,
            bytes,
        }
    }

    /// Non-blocking probe (`MPI_Iprobe`): reports the virtual-order first
    /// matching message that has arrived by the current virtual time,
    /// without consuming virtual time or removing the message. A `None`
    /// answer is final for this instant: no rank can still produce a
    /// matching message arriving this early.
    pub fn iprobe(&self, src: Option<usize>, tag: Option<u32>) -> Option<ProbeInfo> {
        let peeked = self.fabric.try_peek_at(
            self.global_rank(),
            self.matcher(src, tag),
            self.clock.now(),
        );
        if rocobs::enabled() {
            // Instantaneous poll: zero-length span, recorded whether or
            // not a message was waiting (the poll itself is the event).
            let now = self.clock.now();
            let detail = if peeked.is_some() { "hit" } else { "miss" };
            rocobs::record(rocobs::SpanCategory::ProbeNonBlocking, "iprobe", now, now, detail);
        }
        let (src_global, tag, bytes, _arrival) = peeked?;
        Some(ProbeInfo {
            src: self.reverse[&src_global],
            tag,
            bytes,
        })
    }

    /// Reserved tag for the `seq`-th collective, operation code `op`.
    pub(crate) fn coll_tag(&self, op: u8) -> u32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        COLL_TAG_BASE | ((seq & 0x000F_FFFF) << 8) | op as u32
    }

    /// Duplicate the communicator (`MPI_Comm_dup`): same group, fresh
    /// context, so the duplicate's traffic never cross-matches the
    /// original's. Collective — every member must call it together.
    pub fn dup(&self) -> Result<Comm> {
        let dup = self.split(Some(0), self.rank() as i64)?;
        Ok(dup.expect("dup: split with uniform color always yields a communicator"))
    }

    /// Split the communicator, `MPI_Comm_split` style.
    ///
    /// Ranks passing the same `color` form a new communicator, ordered by
    /// `(key, parent rank)`. Ranks passing `None` get `Ok(None)` back.
    /// Every member of the parent must call `split` collectively.
    pub fn split(&self, color: Option<u32>, key: i64) -> Result<Option<Comm>> {
        let mut payload = Vec::with_capacity(13);
        match color {
            Some(c) => {
                payload.push(1u8);
                payload.extend_from_slice(&c.to_le_bytes());
            }
            None => {
                payload.push(0u8);
                payload.extend_from_slice(&0u32.to_le_bytes());
            }
        }
        payload.extend_from_slice(&key.to_le_bytes());
        let all = self.allgather(&payload)?;

        let split_seq = self.split_seq.get();
        self.split_seq.set(split_seq + 1);

        let Some(my_color) = color else {
            return Ok(None);
        };

        // Collect (key, parent_local, global) of every same-color member.
        let mut members: Vec<(i64, usize, usize)> = Vec::new();
        for (parent_local, bytes) in all.iter().enumerate() {
            let present = bytes[0] == 1;
            let c = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
            let k = i64::from_le_bytes(bytes[5..13].try_into().unwrap());
            if present && c == my_color {
                members.push((k, parent_local, self.group[parent_local]));
            }
        }
        members.sort_unstable();
        let group: Vec<usize> = members.iter().map(|&(_, _, g)| g).collect();
        let reverse: HashMap<usize, usize> =
            group.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        let my_local = reverse[&self.global_rank()];

        // Context id must be identical on all members and distinct from
        // other communicators: mix parent ctx, split ordinal and color.
        let mut ctx = 0xcbf2_9ce4_8422_2325u64;
        for part in [self.ctx, split_seq as u64, my_color as u64 + 1] {
            ctx ^= part;
            ctx = ctx.wrapping_mul(0x0000_0100_0000_01b3);
        }

        Ok(Some(Comm {
            fabric: Arc::clone(&self.fabric),
            ctx,
            group: Arc::new(group),
            reverse: Arc::new(reverse),
            my_local,
            clock: Arc::clone(&self.clock),
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            stats: CommStats::default(),
            trace: RefCell::new(None),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::harness::run_ranks;

    #[test]
    fn send_recv_round_trip() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 42, b"hello").unwrap();
                Bytes::new()
            } else {
                comm.recv(Some(0), Some(42)).unwrap().payload.bytes()
            }
        });
        assert_eq!(out[1], b"hello");
    }

    #[test]
    fn recv_merges_clock_with_arrival() {
        let out = run_ranks(2, ClusterSpec::turing(2), |comm| {
            if comm.rank() == 0 {
                comm.compute(1.0); // sender is 1s ahead
                comm.send(1, 1, &[0u8; 1024]).unwrap();
            } else {
                let m = comm.recv(Some(0), Some(1)).unwrap();
                assert!(m.arrival > 1.0);
            }
            comm.now()
        });
        assert!(out[1] >= 1.0, "receiver clock jumped to arrival: {}", out[1]);
    }

    #[test]
    fn wildcard_recv_ignores_reserved_tags() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, COLL_TAG_BASE | 5, b"internal").unwrap();
                comm.send(1, 9, b"user").unwrap();
                Bytes::new()
            } else {
                comm.recv(None, None).unwrap().payload.bytes()
            }
        });
        assert_eq!(out[1], b"user");
    }

    #[test]
    fn per_source_fifo_order() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                for i in 0..10u8 {
                    comm.send(1, 7, &[i]).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| comm.recv(Some(0), Some(7)).unwrap().payload[0])
                    .collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn iprobe_and_probe_report_size_without_consuming() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[9u8; 17]).unwrap();
                true
            } else {
                let info = comm.probe(None, Some(3));
                assert_eq!(info.bytes, 17);
                assert_eq!(info.src, 0);
                let again = comm.iprobe(Some(0), Some(3)).unwrap();
                assert_eq!(again.bytes, 17);
                let m = comm.recv(Some(0), Some(3)).unwrap();
                m.payload.len() == 17 && comm.iprobe(None, Some(3)).is_none()
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn split_creates_disjoint_communicators() {
        // 4 ranks: even ranks color 0, odd ranks color 1.
        let out = run_ranks(4, ClusterSpec::ideal(4), |comm| {
            let color = (comm.rank() % 2) as u32;
            let sub = comm.split(Some(color), comm.rank() as i64).unwrap().unwrap();
            // Each sub-communicator has 2 ranks; exchange ranks inside it.
            let peer = 1 - sub.rank();
            sub.send(peer, 1, &[sub.rank() as u8]).unwrap();
            let m = sub.recv(Some(peer), Some(1)).unwrap();
            (sub.size(), sub.rank(), m.payload[0])
        });
        for (size, my, got) in &out {
            assert_eq!(*size, 2);
            assert_eq!(*got as usize, 1 - *my);
        }
    }

    #[test]
    fn split_with_none_color_returns_none() {
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let color = if comm.rank() == 0 { None } else { Some(1u32) };
            let sub = comm.split(color, 0).unwrap();
            match sub {
                None => usize::MAX,
                Some(s) => s.size(),
            }
        });
        assert_eq!(out[0], usize::MAX);
        assert_eq!(out[1], 2);
        assert_eq!(out[2], 2);
    }

    #[test]
    fn split_messages_do_not_leak_into_parent() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let sub = comm.split(Some(0), comm.rank() as i64).unwrap().unwrap();
            if comm.rank() == 0 {
                sub.send(1, 5, b"sub").unwrap();
                comm.send(1, 5, b"world").unwrap();
                Vec::new()
            } else {
                // Parent recv with same (src, tag) must get the parent
                // message, not the sub-communicator one.
                let m = comm.recv(Some(0), Some(5)).unwrap();
                let s = sub.recv(Some(0), Some(5)).unwrap();
                vec![m.payload.bytes(), s.payload.bytes()]
            }
        });
        assert_eq!(out[1][0], b"world");
        assert_eq!(out[1][1], b"sub");
    }

    #[test]
    fn clock_is_shared_between_parent_and_split() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let sub = comm.split(Some(0), 0).unwrap().unwrap();
            comm.advance(2.0);
            sub.now()
        });
        assert!(out.iter().all(|&t| t >= 2.0));
    }

    #[test]
    fn dup_is_isolated_but_same_group() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let dup = comm.dup().unwrap();
            assert_eq!(dup.size(), comm.size());
            assert_eq!(dup.rank(), comm.rank());
            if comm.rank() == 0 {
                comm.send(1, 4, b"orig").unwrap();
                dup.send(1, 4, b"dup").unwrap();
                Vec::new()
            } else {
                // Same (src, tag) on both communicators: each gets its own.
                let d = dup.recv(Some(0), Some(4)).unwrap();
                let o = comm.recv(Some(0), Some(4)).unwrap();
                vec![o.payload.bytes(), d.payload.bytes()]
            }
        });
        assert_eq!(out[1][0], b"orig");
        assert_eq!(out[1][1], b"dup");
    }

    #[test]
    fn stats_count_messages() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 100]).unwrap();
            } else {
                comm.recv(None, None).unwrap();
            }
            comm.stats()
        });
        assert_eq!(out[0].msgs_sent, 1);
        assert_eq!(out[0].bytes_sent, 100);
        assert_eq!(out[1].msgs_recv, 1);
        assert_eq!(out[1].bytes_recv, 100);
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.send(5, 0, b"x").is_err() && comm.recv(Some(9), None).is_err()
        });
        assert!(out[0]);
    }

    #[test]
    fn send_bytes_delivers_senders_buffer_by_refcount() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                let payload = Bytes::from(vec![7u8; 32]);
                let ptr = payload.as_slice().as_ptr() as usize;
                comm.send_bytes(1, 1, payload).unwrap();
                ptr
            } else {
                let m = comm.recv(Some(0), Some(1)).unwrap();
                assert_eq!(m.payload.bytes(), vec![7u8; 32]);
                m.payload.bytes().as_ptr() as usize
            }
        });
        assert_eq!(out[0], out[1], "receiver must see the sender's allocation");
    }

    #[test]
    fn send_segments_ships_parts_in_order() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                let segs = [
                    Segment::Owned(b"he".to_vec()),
                    Segment::Owned(b"ad".to_vec()),
                    Segment::Shared(Bytes::from(vec![9u8; 8])),
                    Segment::Owned(b"tail".to_vec()),
                ];
                comm.send_segments(1, 2, &segs).unwrap();
                (0, Bytes::new())
            } else {
                let p = comm.recv(Some(0), Some(2)).unwrap().payload;
                (p.parts().len(), p.bytes())
            }
        });
        let mut expect = b"head".to_vec();
        expect.extend_from_slice(&[9u8; 8]);
        expect.extend_from_slice(b"tail");
        assert_eq!(out[1].0, 3, "owned runs coalesce; the shared segment is its own part");
        assert_eq!(out[1].1, expect);
    }

    #[test]
    fn multi_part_send_charges_exactly_like_the_assembled_send() {
        // Same bytes, once as a multi-part scatter-gather send and once
        // assembled: every clock, counter, probe length and trace event
        // must agree, since the fabric charges on the total length only.
        let segs = vec![
            Segment::Owned(vec![1u8; 40]),
            Segment::Shared(Bytes::from(vec![2u8; 70_000])),
            Segment::Owned(vec![3u8; 12]),
            Segment::Shared(Bytes::from(vec![4u8; 5_000])),
        ];
        let run = |multi: bool| {
            let segs = segs.clone();
            run_ranks(2, ClusterSpec::turing(2), move |comm| {
                comm.enable_tracing();
                let mut parts = 0;
                let mut probed = 0;
                if comm.rank() == 0 {
                    comm.compute(0.25);
                    if multi {
                        comm.send_segments(1, 5, &segs).unwrap();
                    } else {
                        comm.send(1, 5, &rocio_core::segments_to_vec(&segs)).unwrap();
                    }
                } else {
                    probed = comm.probe(None, Some(5)).bytes;
                    let m = comm.recv(None, Some(5)).unwrap();
                    parts = m.payload.parts().len();
                    assert_eq!(&m.payload[..], rocio_core::segments_to_vec(&segs).as_slice());
                }
                (parts, probed, comm.now().to_bits(), comm.stats(), comm.take_trace())
            })
        };
        let (multi, flat) = (run(true), run(false));
        assert_eq!(multi[1].0, 4);
        assert_eq!(flat[1].0, 1);
        for r in 0..2 {
            let (m, f) = (&multi[r], &flat[r]);
            assert_eq!(m.1, f.1, "rank {r}: probe length");
            assert_eq!(m.2, f.2, "rank {r}: virtual time");
            assert_eq!(m.3, f.3, "rank {r}: comm stats");
            assert_eq!(m.4, f.4, "rank {r}: trace events");
        }
        assert_eq!(multi[1].1, 75_052);
    }

    #[test]
    fn recv_deadline_times_out_and_charges_idle_time() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                // Nothing sent before the deadline: rank 1 must time out.
                comm.recv(Some(1), Some(2)).unwrap();
                comm.now()
            } else {
                let r = comm.recv_deadline(Some(0), Some(1), 0.5);
                assert!(r.is_none(), "no message before the deadline");
                assert_eq!(comm.now(), 0.5, "timeout advances the clock to the deadline");
                comm.send(0, 2, b"late").unwrap();
                comm.now()
            }
        });
        assert!(out[0] >= 0.5);
    }

    #[test]
    fn recv_deadline_returns_message_arriving_in_time() {
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"early").unwrap();
                Bytes::new()
            } else {
                let m = comm
                    .recv_deadline(Some(0), Some(1), 10.0)
                    .expect("message arrives well before the deadline");
                assert!(comm.now() < 10.0, "no idle charge on a hit");
                m.payload.bytes()
            }
        });
        assert_eq!(out[1], b"early");
    }

    #[test]
    fn concurrent_deadline_waiters_do_not_livelock() {
        // Two ranks parked on future deadlines, each the only rank that
        // could wake the other: both must time out rather than spin on
        // each other's sub-deadline clocks.
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let peer = 1 - comm.rank();
            let deadline = 0.25 + comm.rank() as f64 * 0.25;
            let r = comm.recv_deadline(Some(peer), Some(1), deadline);
            assert!(r.is_none());
            comm.now()
        });
        assert_eq!(out, vec![0.25, 0.5]);
    }

    #[test]
    fn self_send_works() {
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            comm.send(0, 2, b"me").unwrap();
            comm.recv(Some(0), Some(2)).unwrap().payload.bytes()
        });
        assert_eq!(out[0], b"me");
    }
}
