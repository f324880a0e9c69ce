//! The shared message fabric: one mailbox per global rank.
//!
//! Delivery is physical (push + condvar notify); *when* a message counts as
//! having arrived in virtual time is carried in its envelope, computed by
//! the sender from the network model.
//!
//! # Determinism
//!
//! Rank threads are scheduled by the OS, so the *physical* order in which
//! envelopes land in a mailbox varies from run to run. Matching must not:
//! a wildcard receive that simply took the first physical match would make
//! the Rocpanda server's handling order — and with it every virtual
//! timestamp downstream — depend on the scheduler. The fabric therefore
//! resolves wildcard matches in **virtual order** with a conservative gate
//! (classic conservative discrete-event rule):
//!
//! * Candidate: for each source, only its first matching message is
//!   eligible (MPI non-overtaking); among those heads, the one minimizing
//!   `(arrival, sender)` wins.
//! * Gate: the candidate is committed only when no other rank can still
//!   produce an earlier arrival — each is either blocked with a published
//!   commitment ≥ the candidate's arrival, or its clock has already
//!   reached it. Clocks are monotone and `Comm::send` stamps the arrival
//!   no lower than the sender's clock at delivery, so the scan is sound.
//!
//! Single-source matching needs no gate: per-source delivery order equals
//! send order. With a network model whose costs are nonzero (e.g.
//! `ClusterSpec::turing`) the virtual order is strict and every run of the
//! same program yields bit-identical virtual times; zero-cost models can
//! tie on arrival, where semantic results are still deterministic but
//! timestamps may not be.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rocio_core::lockdep::{Condvar, Mutex, MutexGuard};
use rocio_core::SimTime;

use crate::cluster::ClusterSpec;
use crate::model::FaultAction;
use crate::payload::Payload;
use crate::sched::GateBoard;
use crate::vtime::VClock;

/// Safety-net re-scan period for parked gate waiters. Gate wakes are
/// event-driven — blocking/finishing ranks run the wake scan under the
/// lock, and clock advances crossing the [`GateBoard`] watermark unpark
/// the steward — so this timeout should never be the thing that makes
/// progress. It stays generous precisely so a missed-wake bug degrades
/// to a slow poll instead of a deadlock, and it is the only wake source
/// on bare `Fabric` values that never ran a job (no steward spawned).
const GATE_FALLBACK: Duration = Duration::from_millis(5);

/// Bit pattern of a non-negative virtual time, normalised so that `u64`
/// ordering equals `f64` ordering (`-0.0` maps to `+0.0`).
fn time_bits(t: SimTime) -> u64 {
    if t == 0.0 {
        0
    } else {
        t.to_bits()
    }
}

/// One matchable message at a wildcard choice point: the per-source head
/// (MPI non-overtaking) of a source with at least one matching message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Global rank of the sender.
    pub src_global: usize,
    /// Tag of the head message.
    pub tag: u32,
    /// Payload length of the head message.
    pub payload_len: usize,
    /// Virtual arrival time of the head message.
    pub arrival: SimTime,
}

/// Which wildcard operation reached the choice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// A wildcard receive ([`Fabric::take_any`]): the chosen message is
    /// removed from the mailbox.
    Take,
    /// A blocking wildcard probe ([`Fabric::peek_any`]): the chosen
    /// message is only reported; a later receive decides again.
    Peek,
}

/// A wildcard resolution decision handed to a [`ScheduleOracle`].
///
/// `candidates` is sorted by `(arrival, src_global)`, so index 0 is the
/// message the conservative virtual-order gate would commit.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    /// Global decision index within the current job (0, 1, 2, ...).
    pub seq: u64,
    /// Global rank of the receiver making the wildcard call.
    pub dst: usize,
    /// Take (receive) or Peek (probe).
    pub kind: ChoiceKind,
    /// Per-source matching heads, sorted by `(arrival, src_global)`.
    pub candidates: Vec<Candidate>,
}

/// A controllable replacement for the conservative virtual-order gate.
///
/// With an oracle installed ([`Fabric::with_oracle`]) the fabric serializes
/// all scheduling at *stable global states*: a wildcard choice is granted
/// only once every rank is parked in a fabric call (or finished), so the
/// candidate set at each decision is a pure function of the previous
/// decisions — independent of OS thread scheduling. `choose` returns an
/// index into `point.candidates`; returning 0 everywhere reproduces the
/// gate's `(arrival, sender)` order.
///
/// `choose` is called with the fabric lock held: it must not call back
/// into the fabric and should return quickly.
pub trait ScheduleOracle: Send + Sync {
    /// Pick which candidate resolves this wildcard operation.
    fn choose(&self, point: &ChoicePoint) -> usize;
}

/// Decides the fate of each fault-eligible message at delivery time.
///
/// Installed with [`Fabric::set_fault_injector`]. `seq` is the per-link
/// eligible-message counter (incremented for every eligible message
/// regardless of the action taken, so decisions stay aligned across
/// protocol variants). Implementations must be pure functions of their
/// arguments — the fabric calls `decide` under its state lock, and
/// determinism of the whole run rests on the decision stream being a
/// function of the message sequence alone. [`crate::model::FaultSpec`]
/// is the seeded production implementation; rocsched installs scripted
/// injectors to *explore* fault placements.
pub trait FaultInjector: Send + Sync {
    /// The fate of the `seq`-th eligible message on link `src → dst`.
    fn decide(&self, src: usize, dst: usize, seq: u64, tag: u32) -> FaultAction;
}

impl FaultInjector for crate::model::FaultSpec {
    fn decide(&self, src: usize, dst: usize, seq: u64, _tag: u32) -> FaultAction {
        crate::model::FaultSpec::decide(self, src, dst, seq)
    }
}

/// Counters of faults the injector actually inflicted (diagnostics and
/// chaos-tier assertions that the adversary really fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently discarded.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages overtaken via the one-slot link limbo.
    pub reordered: u64,
}

impl FaultStats {
    /// Total faults inflicted.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered
    }
}

/// A message in flight or queued at its destination.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Communicator context the message belongs to.
    pub ctx: u64,
    /// Global rank of the sender.
    pub src_global: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload parts, shared by refcount: cloning an envelope (or handing
    /// its payload to a receiver) never copies the data.
    pub payload: Payload,
    /// Virtual time at which the sender finished injecting the message.
    pub sent: SimTime,
    /// Virtual time at which the message is available at the receiver.
    pub arrival: SimTime,
}

/// What a rank is doing, as seen by other ranks' safety scans.
#[derive(Clone, Copy, Debug)]
enum RankWait {
    /// Executing: may advance its clock and send at any moment; its next
    /// send's arrival is never below its current clock.
    Running,
    /// Parked in a blocking receive/probe, or finished: produces nothing
    /// before `bound` (`INFINITY` when it cannot act at all without a new
    /// delivery). Deliveries lower the bound conservatively until the
    /// rank wakes and re-evaluates.
    Blocked { bound: SimTime },
}

/// A registered, not-yet-granted wildcard choice point.
#[derive(Debug, Clone)]
struct PendingChoice {
    kind: ChoiceKind,
    candidates: Vec<Candidate>,
}

struct FabricState {
    queues: Vec<VecDeque<Envelope>>,
    waits: Vec<RankWait>,
    // --- scan indices, kept in lockstep with `waits` by `set_wait` ---
    /// Ranks currently `Running` (arbitrary order; swap-removed).
    running: Vec<usize>,
    /// rank → index in `running`, or `usize::MAX` when not running.
    running_pos: Vec<usize>,
    /// `(time_bits(bound), rank)` for every `Blocked` rank: the safety
    /// scan reads the minimum commitment in O(1) instead of O(n).
    blocked_bounds: BTreeSet<(u64, usize)>,
    /// `(time_bits(scan bound), rank)` for ranks parked inside a gate
    /// loop (`take_any`/`peek_any` candidate gates, `try_*_at` deadline
    /// scans): the set the wake scan walks, ascending.
    gate_waiters: BTreeSet<(u64, usize)>,
    /// rank → scan bound while parked in a gate loop (mirror of
    /// `gate_waiters`, for per-rank lookup).
    gate_scan: Vec<Option<u64>>,
    // --- adversarial-network state (inert without an injector) ---
    /// Fault decider for eligible messages, if any.
    injector: Option<Arc<dyn FaultInjector>>,
    /// Per-link eligible-message counters, keyed `src * n + dst`.
    /// Sparse on purpose: the dense `vec![0; n * n]` form this replaces
    /// cost ~100 bytes per rank *pair* — 1.7 GB of resident zeroes at
    /// 4096 ranks — while real jobs only ever touch O(n log n) links.
    link_seq: BTreeMap<usize, u64>,
    /// One-slot per-link limbo for reordered messages, keyed
    /// `src * n + dst`: a stashed envelope is invisible to matching until
    /// the *next* send on the same link releases it (behind that send's
    /// own outcome), re-stamped to that send's arrival so the overtake is
    /// real in virtual time. A stash on a link that never sends again
    /// simply rots — upper layers recover by retransmission, never by
    /// blocking on the stash.
    limbo: BTreeMap<usize, Envelope>,
    /// Faults inflicted so far.
    fault_stats: FaultStats,
    // --- oracle-mode bookkeeping (unused without an oracle) ---
    /// Rank's thread has returned (or unwound); it will never act again.
    finished: Vec<bool>,
    /// Rank re-validated its blocked state after the last delivery to it;
    /// stability requires every unfinished rank blocked *and* confirmed.
    confirmed: Vec<bool>,
    /// Wildcard choice point the rank is parked on, if any.
    pending: Vec<Option<PendingChoice>>,
    /// Decision issued to the rank, not yet consumed by it.
    granted: Vec<Option<Candidate>>,
    /// Virtual time at which the rank waits inside `try_take_at` /
    /// `try_peek_at` (deterministic gate waiters, not choice points).
    gate_now: Vec<Option<SimTime>>,
    /// Number of decisions granted this job.
    seq: u64,
    /// Set when a stable state with no possible progress was reached:
    /// every fabric call panics with this message from then on.
    poisoned: Option<String>,
}

impl FabricState {
    /// The single choke point for wait-state transitions: keeps the
    /// `running` / `blocked_bounds` scan indices in lockstep with
    /// `waits`. Every write to a rank's wait state must go through here.
    fn set_wait(&mut self, rank: usize, w: RankWait) {
        match self.waits[rank] {
            RankWait::Running => {
                let i = self.running_pos[rank];
                self.running.swap_remove(i);
                if i < self.running.len() {
                    self.running_pos[self.running[i]] = i;
                }
                self.running_pos[rank] = usize::MAX;
            }
            RankWait::Blocked { bound } => {
                self.blocked_bounds.remove(&(time_bits(bound), rank));
            }
        }
        self.waits[rank] = w;
        match w {
            RankWait::Running => {
                self.running_pos[rank] = self.running.len();
                self.running.push(rank);
            }
            RankWait::Blocked { bound } => {
                self.blocked_bounds.insert((time_bits(bound), rank));
            }
        }
    }
}

/// The machine-wide fabric: cluster spec, one mailbox and one virtual
/// clock per global rank, and the conservative-order gate state.
pub struct Fabric {
    spec: ClusterSpec,
    clocks: Vec<Arc<VClock>>,
    state: Mutex<FabricState>,
    cvs: Vec<Condvar>,
    oracle: Option<Arc<dyn ScheduleOracle>>,
    /// Watermark connecting clock advances to parked gate waiters; also
    /// attached to every fabric-owned clock.
    board: Arc<GateBoard>,
    /// Set once the steward wake thread has been spawned for this fabric.
    steward_once: OnceLock<()>,
}

/// Virtual-order candidate: for each source only its first matching
/// message is eligible (non-overtaking); among those heads, pick the one
/// minimizing `(arrival, src_global)`. Returns the queue index.
fn select_virtual<F>(q: &VecDeque<Envelope>, pred: &mut F) -> Option<usize>
where
    F: FnMut(&Envelope) -> bool,
{
    // Per-source "already considered" bitmap. The queue only holds
    // envelopes from ranks of this fabric, so sources are dense small
    // integers; a bitmap keeps the whole scan O(q) — the Vec::contains
    // variant this replaces made a 10k-rank funnel O(n^3) overall.
    let mut seen = vec![false; q.iter().map(|e| e.src_global + 1).max().unwrap_or(0)];
    let mut best: Option<usize> = None;
    for (i, e) in q.iter().enumerate() {
        if seen[e.src_global] || !pred(e) {
            continue;
        }
        seen[e.src_global] = true;
        let better = match best {
            None => true,
            Some(b) => {
                let cur = &q[b];
                match e.arrival.total_cmp(&cur.arrival) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => e.src_global < cur.src_global,
                    std::cmp::Ordering::Greater => false,
                }
            }
        };
        if better {
            best = Some(i);
        }
    }
    best
}

/// Every per-source matching head in `q`, sorted by `(arrival, src)` —
/// the full candidate set [`select_virtual`] picks its minimum from.
fn candidate_set<F>(q: &VecDeque<Envelope>, pred: &mut F) -> Vec<Candidate>
where
    F: FnMut(&Envelope) -> bool,
{
    let mut seen: Vec<usize> = Vec::new();
    let mut out: Vec<Candidate> = Vec::new();
    for e in q {
        if seen.contains(&e.src_global) || !pred(e) {
            continue;
        }
        seen.push(e.src_global);
        out.push(Candidate {
            src_global: e.src_global,
            tag: e.tag,
            payload_len: e.payload.len(),
            arrival: e.arrival,
        });
    }
    out.sort_by(|a, b| {
        a.arrival
            .total_cmp(&b.arrival)
            .then(a.src_global.cmp(&b.src_global))
    });
    out
}

impl Fabric {
    /// Build a fabric for every rank placed by `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::build(spec, None)
    }

    /// Build a fabric whose wildcard resolution is decided by `oracle`
    /// instead of the conservative virtual-order gate (see
    /// [`ScheduleOracle`]). Used by schedule exploration (`rocverify`).
    pub fn with_oracle(spec: ClusterSpec, oracle: Arc<dyn ScheduleOracle>) -> Self {
        Self::build(spec, Some(oracle))
    }

    fn build(spec: ClusterSpec, oracle: Option<Arc<dyn ScheduleOracle>>) -> Self {
        let n = spec.n_ranks();
        let board = Arc::new(GateBoard::new());
        let clocks: Vec<Arc<VClock>> = (0..n).map(|_| Arc::new(VClock::new())).collect();
        for c in &clocks {
            c.attach_board(Arc::clone(&board));
        }
        Fabric {
            spec,
            clocks,
            state: Mutex::new("rocnet.fabric_state", FabricState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                waits: vec![RankWait::Running; n],
                running: (0..n).collect(),
                running_pos: (0..n).collect(),
                blocked_bounds: BTreeSet::new(),
                gate_waiters: BTreeSet::new(),
                gate_scan: vec![None; n],
                injector: None,
                link_seq: BTreeMap::new(),
                limbo: BTreeMap::new(),
                fault_stats: FaultStats::default(),
                finished: vec![false; n],
                confirmed: vec![false; n],
                pending: (0..n).map(|_| None).collect(),
                granted: vec![None; n],
                gate_now: vec![None; n],
                seq: 0,
                poisoned: None,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            oracle,
            board,
            steward_once: OnceLock::new(),
        }
    }

    /// The gate-wake watermark shared with this fabric's clocks.
    pub(crate) fn board(&self) -> &Arc<GateBoard> {
        &self.board
    }

    /// Spawn the steward wake thread for this fabric if it has not been
    /// spawned yet. Called by the harness at job start; bare fabrics in
    /// unit tests skip it and rely on the `GATE_FALLBACK` re-scan.
    pub(crate) fn ensure_steward(self: &Arc<Self>) {
        self.steward_once
            .get_or_init(|| crate::sched::spawn_steward(self));
    }

    /// Steward entry point: re-run the gate wake scan because some clock
    /// crossed the published watermark. Runs on the steward thread with
    /// no other lock held, so taking the fabric lock here is always
    /// hierarchy-clean — which is exactly why clock-advance sites route
    /// through the steward instead of locking the fabric themselves.
    pub(crate) fn steward_rescan(&self) {
        // Clear the latch *before* reading state: a crossing that lands
        // mid-scan re-signals and triggers one more pass.
        self.board.begin_scan();
        let mut st = self.state.lock();
        self.wake_gates_locked(&mut st);
    }

    /// The cluster description this fabric models.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total number of global ranks.
    pub fn n_ranks(&self) -> usize {
        self.clocks.len()
    }

    /// The shared virtual clock of global rank `rank`. The fabric owns the
    /// clocks so the safety scan can read every rank's time.
    pub fn clock_of(&self, rank: usize) -> Arc<VClock> {
        Arc::clone(&self.clocks[rank])
    }

    /// Install an adversarial fault model: every *eligible* message
    /// (world-context user-tag traffic between distinct ranks) is run
    /// through `injector` at delivery time. Collectives, sub-communicator
    /// traffic (split contexts) and self-sends are exempt — chaos targets
    /// the data plane the reliability layer protects, not the control
    /// plane rocnet itself guarantees. Install before the job starts.
    pub fn set_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.state.lock().injector = Some(injector);
    }

    /// Counters of faults inflicted so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().fault_stats
    }

    /// Mark every rank runnable again (a fresh "job" on this fabric).
    pub fn begin_job(&self) {
        let mut st = self.state.lock();
        let n = st.waits.len();
        for w in st.waits.iter_mut() {
            *w = RankWait::Running;
        }
        st.running = (0..n).collect();
        st.running_pos = (0..n).collect();
        st.blocked_bounds.clear();
        st.gate_waiters.clear();
        st.gate_scan = vec![None; n];
        self.board.set_min(u64::MAX);
        st.finished = vec![false; n];
        st.confirmed = vec![false; n];
        st.pending = (0..n).map(|_| None).collect();
        st.granted = vec![None; n];
        st.gate_now = vec![None; n];
        st.seq = 0;
        st.poisoned = None;
    }

    /// Mark `rank`'s thread as done: it will never send again, so gates on
    /// other ranks must not wait for its clock.
    ///
    /// Only gate waiters can be *enabled* by a finish (the rank's
    /// commitment rises to ∞), so the targeted wake scan replaces the
    /// notify-everyone broadcast the threaded harness used — at 10k
    /// ranks that broadcast was O(n²) condvar signals per job teardown.
    pub fn finish_rank(&self, rank: usize) {
        let mut st = self.state.lock();
        st.set_wait(
            rank,
            RankWait::Blocked {
                bound: SimTime::INFINITY,
            },
        );
        st.finished[rank] = true;
        st.pending[rank] = None;
        st.gate_now[rank] = None;
        if let Some(bits) = st.gate_scan[rank].take() {
            st.gate_waiters.remove(&(bits, rank));
        }
        self.oracle_step(&mut st);
        self.wake_gates_locked(&mut st);
    }

    /// Panic out of a fabric call once exploration has declared the job
    /// dead (deadlock reached, or aborting after another rank's failure).
    fn check_poison(&self, st: &FabricState) {
        if let Some(msg) = &st.poisoned {
            panic!("rocsched: {msg}");
        }
    }

    /// Park `rank` as `Blocked {{ bound }}`; in oracle mode also mark it
    /// confirmed and run the scheduler step, since this rank blocking may
    /// complete a stable state. Blocking raises the rank's commitment,
    /// which may let parked gate waiters pass: run the wake scan.
    fn block(&self, st: &mut FabricState, rank: usize, bound: SimTime) {
        // Floor the published commitment at the rank's own clock: clocks
        // are monotone and every future send is stamped past the sender's
        // clock, so a rank can never produce an arrival earlier than its
        // clock no matter which candidate it acts on. Without the floor
        // the commitment (a candidate arrival, possibly deep in the
        // rank's past) under-reports, and a gate waiter's safety scan
        // can pass while this rank is running (live clock ≥ bound) yet
        // fail after it parks — making the scan's verdict depend on
        // *when* it runs, a host-scheduling race that breaks schedule
        // replay.
        let bound = bound.max(self.clocks[rank].now());
        st.set_wait(rank, RankWait::Blocked { bound });
        if self.oracle.is_some() {
            st.confirmed[rank] = true;
            self.oracle_step(st);
        }
        self.wake_gates_locked(st);
    }

    /// Return `rank` to `Running` after a wake-up or on the return path of
    /// a blocking call.
    fn unblock(&self, st: &mut FabricState, rank: usize) {
        st.set_wait(rank, RankWait::Running);
        st.confirmed[rank] = false;
        st.pending[rank] = None;
        st.gate_now[rank] = None;
    }

    /// Register `rank` as a parked gate waiter with scan bound `bound`:
    /// publish the bound as its commitment, enter it in the wake set,
    /// refresh the clock watermark, and let other waiters that our
    /// commitment unblocks pass.
    fn gate_park(&self, st: &mut FabricState, rank: usize, bound: SimTime) {
        // Commitment floored at the clock (see `block`); the waiter's own
        // scan threshold stays at the requested bound — it needs safety
        // only up to its deadline.
        st.set_wait(
            rank,
            RankWait::Blocked {
                bound: bound.max(self.clocks[rank].now()),
            },
        );
        let bits = time_bits(bound);
        st.gate_scan[rank] = Some(bits);
        st.gate_waiters.insert((bits, rank));
        self.refresh_board(st);
        self.wake_gates_locked(st);
    }

    /// Deregister `rank` from the gate-waiter set after its park returns
    /// (it re-evaluates its scan from scratch) and mark it running.
    fn gate_unpark(&self, st: &mut FabricState, rank: usize) {
        if let Some(bits) = st.gate_scan[rank].take() {
            st.gate_waiters.remove(&(bits, rank));
        }
        st.set_wait(rank, RankWait::Running);
        self.refresh_board(st);
    }

    /// Publish the lowest parked gate bound to the clock watermark.
    fn refresh_board(&self, st: &FabricState) {
        let min = st
            .gate_waiters
            .iter()
            .next()
            .map(|&(bits, _)| bits)
            .unwrap_or(u64::MAX);
        self.board.set_min(min);
    }

    /// Notify every parked gate waiter whose safety scan now passes.
    ///
    /// A waiter with scan bound `b` passes iff every *other* rank is
    /// blocked with commitment ≥ `b` or running with clock ≥ `b`. The
    /// minimum over running clocks is shared across waiters, and the
    /// minimum blocked commitment is read from the first two entries of
    /// `blocked_bounds` (two, to exclude the waiter's own entry). Since
    /// any waiter's own published bound is ≥ the set minimum, only
    /// waiters at (or tied with) the minimum commitment can pass — the
    /// ascending walk stops at the first generic failure, so the scan is
    /// O(passing waiters), not O(n).
    fn wake_gates_locked(&self, st: &mut FabricState) {
        if st.gate_waiters.is_empty() {
            return;
        }
        let run_min_bits = st
            .running
            .iter()
            .map(|&s| time_bits(self.clocks[s].now()))
            .min()
            .unwrap_or(u64::MAX);
        let mut blocked = st.blocked_bounds.iter();
        let (b1, r1) = blocked.next().copied().unwrap_or((u64::MAX, usize::MAX));
        let b2 = blocked.next().map(|&(b, _)| b).unwrap_or(u64::MAX);
        let generic = b1.min(run_min_bits);
        for &(bw, r) in &st.gate_waiters {
            if bw > generic {
                break;
            }
            if r != r1 || bw <= b2.min(run_min_bits) {
                self.cvs[r].notify_all();
            }
        }
        // The rank holding the minimum commitment excludes itself from
        // its own scan, so its threshold is b2, not b1: check it past
        // the generic cut-off.
        if r1 != usize::MAX {
            if let Some(bw) = st.gate_scan[r1] {
                if bw > generic && bw <= b2.min(run_min_bits) {
                    self.cvs[r1].notify_all();
                }
            }
        }
    }

    /// Park the calling rank on its fabric condvar, lending its scheduler
    /// admission slot to another rank for the duration (no-op outside the
    /// pool). The fabric lock is held on entry and re-held on return; the
    /// caller must re-check its wake condition — arbitrary progress can
    /// happen between the condvar wake and slot reacquisition.
    fn park_on_cv<'a>(
        &'a self,
        mut st: MutexGuard<'a, FabricState>,
        rank: usize,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, FabricState> {
        let lent = crate::sched::lend_slot();
        match timeout {
            Some(d) => {
                self.cvs[rank].wait_for(&mut st, d);
            }
            None => self.cvs[rank].wait(&mut st),
        }
        if lent {
            drop(st);
            crate::sched::reacquire_slot();
            st = self.state.lock();
        }
        st
    }

    /// Oracle-mode scheduler step, run under the state lock whenever a
    /// rank blocks or finishes. If the global state is *stable* — every
    /// unfinished rank parked in a fabric call and re-confirmed since its
    /// last delivery, no decision still in flight — grant the
    /// least-ranked pending wildcard choice via the oracle. If nothing is
    /// grantable and no deterministic gate waiter can proceed either, the
    /// job can never make progress again: poison it.
    fn oracle_step(&self, st: &mut FabricState) {
        let Some(oracle) = self.oracle.as_ref() else {
            return;
        };
        if st.poisoned.is_some() {
            return;
        }
        let n = self.clocks.len();
        for r in 0..n {
            if st.granted[r].is_some() {
                return; // a granted rank is (logically) running
            }
            if st.finished[r] {
                continue;
            }
            if matches!(st.waits[r], RankWait::Running) || !st.confirmed[r] {
                return;
            }
        }
        // A deterministic gate waiter whose safety scan passes can
        // proceed without a decision; bounds are fixed at a stable
        // state, so evaluate the scans directly and wake the passers.
        // This must happen *before* any grant: the waiter is logically
        // runnable, and whether its thread has physically woken yet is a
        // host-scheduling accident. Granting past it would make the
        // global decision order depend on that accident — the waiter may
        // re-register a choice point of its own, and replays of the same
        // prefix would observe the two decisions in either order.
        let mut gate_can_run = false;
        for r in 0..n {
            if !st.finished[r] && st.gate_now[r].is_some_and(|now| self.scan_safe(st, r, now)) {
                gate_can_run = true;
                self.cvs[r].notify_all();
            }
        }
        if gate_can_run {
            return;
        }
        let chosen = (0..n).find_map(|r| {
            if st.finished[r] {
                return None;
            }
            match &st.pending[r] {
                Some(p) if !p.candidates.is_empty() => Some((r, p.clone())),
                _ => None,
            }
        });
        if let Some((r, p)) = chosen {
            let point = ChoicePoint {
                seq: st.seq,
                dst: r,
                kind: p.kind,
                candidates: p.candidates,
            };
            st.seq += 1;
            let i = oracle.choose(&point);
            assert!(
                i < point.candidates.len(),
                "oracle chose candidate {i} of {} at decision {}",
                point.candidates.len(),
                point.seq
            );
            st.granted[r] = Some(point.candidates[i]);
            st.pending[r] = None;
            // The grant makes r logically runnable; publishing Running
            // keeps other ranks' safety scans conservative until it acts.
            st.set_wait(r, RankWait::Running);
            st.confirmed[r] = false;
            self.cvs[r].notify_all();
            return;
        }
        // No wildcard to grant and no gate waiter can proceed: the job
        // can never make progress again.
        if (0..n).any(|r| !st.finished[r]) {
            let stuck: Vec<String> = (0..n)
                .filter(|&r| !st.finished[r])
                .map(|r| {
                    let what = match (&st.pending[r], st.gate_now[r]) {
                        (Some(_), _) => "wildcard with no candidates",
                        (None, Some(_)) => "virtual-time gate",
                        (None, None) => "specific-source receive/probe",
                    };
                    format!("rank {r} ({what}, {} queued)", st.queues[r].len())
                })
                .collect();
            let msg = format!(
                "deadlock after {} decisions: no rank can make progress — {}",
                st.seq,
                stuck.join(", ")
            );
            st.poisoned = Some(msg);
            for cv in &self.cvs {
                cv.notify_all();
            }
        }
    }

    /// Can a wildcard match with arrival `bound` at `me` be committed? Only
    /// if no other rank can still produce an earlier arrival: each is
    /// either blocked with a commitment ≥ `bound` or its clock has already
    /// reached `bound`. Limbo-stashed messages need no clause here: a
    /// release re-stamps the stash to the releasing send's arrival, so it
    /// can never undercut a commit this scan admitted.
    /// O(#running + log n), not O(n): blocked commitments are read from
    /// the first entries of the sorted `blocked_bounds` set (two, in
    /// case the first is `me`), and only the — in pooled runs, few —
    /// `Running` ranks have their clocks read.
    fn scan_safe(&self, st: &FabricState, me: usize, bound: SimTime) -> bool {
        let b = time_bits(bound);
        for &(bits, r) in st.blocked_bounds.iter().take(2) {
            if r == me {
                continue;
            }
            if bits < b {
                return false;
            }
            break;
        }
        st.running
            .iter()
            .all(|&s| s == me || self.clocks[s].now() >= bound)
    }

    /// Queue `env` at `dst` under the lock: lower the destination's
    /// published bound and invalidate its confirmed/stable status.
    fn enqueue_locked(&self, st: &mut FabricState, dst: usize, env: Envelope) {
        // A finished rank never wakes to re-raise its bound, so lowering
        // it would wedge every other rank's scan forever. Trailing
        // traffic to finished ranks is normal under the reliability
        // layer (acks racing a peer's exit).
        if !st.finished[dst] {
            if let RankWait::Blocked { bound } = st.waits[dst] {
                // Conservative: the parked rank may act on this message
                // as soon as it wakes; its published commitment shrinks
                // until it re-evaluates under the lock. Still floored at
                // the rank's clock (see `block`): reacting to the message
                // cannot produce an arrival earlier than the clock.
                let lowered = env.arrival.max(self.clocks[dst].now());
                if lowered < bound {
                    st.set_wait(dst, RankWait::Blocked { bound: lowered });
                }
            }
        }
        // Oracle mode: the destination's registered choice point (if any)
        // is now stale; no decision may be granted until it re-confirms.
        st.confirmed[dst] = false;
        st.queues[dst].push_back(env);
    }

    /// Deliver an envelope to global rank `dst`, running it through the
    /// fault injector when one is installed and the message is eligible
    /// (world context, user tag, distinct ranks). A send on a link with a
    /// limbo-stashed envelope releases the stash *behind* this message's
    /// own outcome, atomically under the state lock, re-stamped to this
    /// message's arrival: the overtaken message now genuinely arrives
    /// later in virtual time, so the ordinary clock scan stays sound and
    /// a stash can never wedge a receiver. Both outcomes of the reorder
    /// stay pure functions of virtual state.
    pub fn deliver(&self, dst: usize, env: Envelope) {
        let mut st = self.state.lock();
        self.check_poison(&st);
        let src = env.src_global;
        let eligible = st.injector.is_some()
            && env.ctx == 0
            && env.tag <= crate::comm::TAG_USER_MAX
            && src != dst;
        if !eligible {
            self.enqueue_locked(&mut st, dst, env);
            self.cvs[dst].notify_all();
            return;
        }
        let n = st.waits.len();
        let link = src * n + dst;
        let seq_slot = st.link_seq.entry(link).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let action = st
            .injector
            .as_ref()
            .expect("eligibility checked the injector")
            .decide(src, dst, seq, env.tag);
        let stashed = st.limbo.remove(&link);
        let stamp = env.arrival;
        match action {
            FaultAction::Deliver => self.enqueue_locked(&mut st, dst, env),
            FaultAction::Drop => st.fault_stats.dropped += 1,
            FaultAction::Duplicate => {
                st.fault_stats.duplicated += 1;
                self.enqueue_locked(&mut st, dst, env.clone());
                self.enqueue_locked(&mut st, dst, env);
            }
            FaultAction::Reorder => {
                st.fault_stats.reordered += 1;
                st.limbo.insert(link, env);
            }
        }
        if let Some(mut old) = stashed {
            // The overtake is the re-stamp: the stash now arrives no
            // earlier than the message that flushed it out.
            old.arrival = old.arrival.max(stamp);
            self.enqueue_locked(&mut st, dst, old);
        }
        self.cvs[dst].notify_all();
    }

    /// Remove and return the first envelope in `dst`'s mailbox matching
    /// `pred`, blocking until one is available.
    ///
    /// Per-source delivery order equals send order, so with a
    /// single-source predicate this is deterministic without a gate.
    /// Wildcard-source receives must use [`Fabric::take_any`] instead.
    pub fn take_matching<F>(&self, dst: usize, mut pred: F) -> Envelope
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        loop {
            self.check_poison(&st);
            if let Some(idx) = st.queues[dst].iter().position(&mut pred) {
                self.unblock(&mut st, dst);
                return st.queues[dst].remove(idx).expect("index just found");
            }
            self.block(&mut st, dst, SimTime::INFINITY);
            if st.poisoned.is_some() {
                continue; // our own block() completed a dead stable state
            }
            st = self.park_on_cv(st, dst, None);
            self.unblock(&mut st, dst);
        }
    }

    /// Remove and return the virtual-order first matching envelope (see
    /// the module docs), blocking both for a candidate and for the safety
    /// gate. This is the wildcard receive: selection is a pure function of
    /// virtual time, not of the wall-clock order in which rank threads
    /// happened to deliver.
    pub fn take_any<F>(&self, dst: usize, mut pred: F) -> Envelope
    where
        F: FnMut(&Envelope) -> bool,
    {
        if self.oracle.is_some() {
            return self.take_any_oracle(dst, pred);
        }
        let mut st = self.state.lock();
        loop {
            match select_virtual(&st.queues[dst], &mut pred) {
                Some(idx) => {
                    let bound = st.queues[dst][idx].arrival;
                    if self.scan_safe(&st, dst, bound) {
                        if !matches!(st.waits[dst], RankWait::Running) {
                            st.set_wait(dst, RankWait::Running);
                        }
                        return st.queues[dst].remove(idx).expect("index just found");
                    }
                    // Publish the candidate as a commitment — the gate's
                    // induction needs waiting receivers to promise they
                    // produce nothing earlier than what they will take —
                    // and park until a blocking rank or the clock steward
                    // re-runs the wake scan past our bound.
                    self.gate_park(&mut st, dst, bound);
                    st = self.park_on_cv(st, dst, Some(GATE_FALLBACK));
                    self.gate_unpark(&mut st, dst);
                }
                None => {
                    self.block(&mut st, dst, SimTime::INFINITY);
                    st = self.park_on_cv(st, dst, None);
                    st.set_wait(dst, RankWait::Running);
                }
            }
        }
    }

    /// Oracle-mode wildcard receive: register the candidate set as a
    /// choice point, park until a decision is granted at a stable state,
    /// then take the granted source's head.
    fn take_any_oracle<F>(&self, dst: usize, mut pred: F) -> Envelope
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        loop {
            self.check_poison(&st);
            if let Some(cand) = st.granted[dst].take() {
                self.unblock(&mut st, dst);
                let idx = st.queues[dst]
                    .iter()
                    .position(|e| e.src_global == cand.src_global && pred(e))
                    .expect("granted candidate vanished from the mailbox");
                return st.queues[dst].remove(idx).expect("index just found");
            }
            let candidates = candidate_set(&st.queues[dst], &mut pred);
            let bound = candidates
                .first()
                .map(|c| c.arrival)
                .unwrap_or(SimTime::INFINITY);
            st.pending[dst] = Some(PendingChoice {
                kind: ChoiceKind::Take,
                candidates,
            });
            self.block(&mut st, dst, bound);
            if st.granted[dst].is_some() || st.poisoned.is_some() {
                continue; // oracle_step granted our own registration,
                          // or declared the job dead as we parked
            }
            st = self.park_on_cv(st, dst, None);
            if st.granted[dst].is_none() {
                // Woken by a delivery (or spuriously): re-register so the
                // choice point reflects the new mailbox contents.
                self.unblock(&mut st, dst);
            }
        }
    }

    /// Non-blocking, ungated variant of [`Fabric::take_matching`]
    /// (first physical match; diagnostics and single-source polling).
    pub fn try_take_matching<F>(&self, dst: usize, mut pred: F) -> Option<Envelope>
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        self.check_poison(&st);
        let idx = st.queues[dst].iter().position(&mut pred)?;
        Some(st.queues[dst].remove(idx).expect("index just found"))
    }

    /// Deterministic non-blocking take at virtual time `now`: returns the
    /// virtual-order first matching envelope that has arrived by `now`, or
    /// `None` once no rank can still produce one. May block wall-clock
    /// time (never virtual time) until that answer is stable.
    pub fn try_take_at<F>(&self, dst: usize, mut pred: F, now: SimTime) -> Option<Envelope>
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        loop {
            self.check_poison(&st);
            if self.scan_safe(&st, dst, now) {
                self.unblock(&mut st, dst);
                let idx = select_virtual(&st.queues[dst], &mut pred)
                    .filter(|&i| st.queues[dst][i].arrival <= now);
                return idx.map(|i| st.queues[dst].remove(i).expect("index just found"));
            }
            // Publish the wait as a gate park. `now` may sit in the
            // caller's future (a retransmit-timer deadline): sound,
            // because the caller acts no earlier than `now` on a
            // timeout, and any earlier delivery lowers this bound
            // before the caller could possibly react to it.
            self.gate_park(&mut st, dst, now);
            if self.oracle.is_some() {
                // Also publish it to oracle stability: this deterministic
                // gate waiter needs no decision (not a choice point), but
                // stable states must be able to form around it.
                st.gate_now[dst] = Some(now);
                st.confirmed[dst] = true;
                self.oracle_step(&mut st);
                if st.poisoned.is_some() {
                    self.gate_unpark(&mut st, dst);
                    continue; // our own park completed a dead stable state
                }
            }
            st = self.park_on_cv(st, dst, Some(GATE_FALLBACK));
            self.gate_unpark(&mut st, dst);
            if self.oracle.is_some() {
                st.confirmed[dst] = false;
            }
        }
    }

    /// Peek the first matching envelope without removing it, blocking
    /// until one is available. Returns `(src_global, tag, payload_len,
    /// arrival)`. Single-source counterpart of [`Fabric::peek_any`].
    pub fn peek_matching<F>(&self, dst: usize, mut pred: F) -> (usize, u32, usize, SimTime)
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        loop {
            self.check_poison(&st);
            if let Some(env) = st.queues[dst].iter().find(|e| pred(e)) {
                let found = (env.src_global, env.tag, env.payload.len(), env.arrival);
                self.unblock(&mut st, dst);
                return found;
            }
            self.block(&mut st, dst, SimTime::INFINITY);
            if st.poisoned.is_some() {
                continue;
            }
            st = self.park_on_cv(st, dst, None);
            self.unblock(&mut st, dst);
        }
    }

    /// Gated wildcard peek: blocking probe counterpart of
    /// [`Fabric::take_any`].
    pub fn peek_any<F>(&self, dst: usize, mut pred: F) -> (usize, u32, usize, SimTime)
    where
        F: FnMut(&Envelope) -> bool,
    {
        if self.oracle.is_some() {
            return self.peek_any_oracle(dst, pred);
        }
        let mut st = self.state.lock();
        loop {
            match select_virtual(&st.queues[dst], &mut pred) {
                Some(idx) => {
                    let env = &st.queues[dst][idx];
                    let found = (env.src_global, env.tag, env.payload.len(), env.arrival);
                    if self.scan_safe(&st, dst, found.3) {
                        if !matches!(st.waits[dst], RankWait::Running) {
                            st.set_wait(dst, RankWait::Running);
                        }
                        return found;
                    }
                    self.gate_park(&mut st, dst, found.3);
                    st = self.park_on_cv(st, dst, Some(GATE_FALLBACK));
                    self.gate_unpark(&mut st, dst);
                }
                None => {
                    self.block(&mut st, dst, SimTime::INFINITY);
                    st = self.park_on_cv(st, dst, None);
                    st.set_wait(dst, RankWait::Running);
                }
            }
        }
    }

    /// Oracle-mode blocking wildcard probe: like [`Fabric::take_any_oracle`]
    /// but the granted candidate is only reported, never removed.
    fn peek_any_oracle<F>(&self, dst: usize, mut pred: F) -> (usize, u32, usize, SimTime)
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        loop {
            self.check_poison(&st);
            if let Some(cand) = st.granted[dst].take() {
                self.unblock(&mut st, dst);
                return (cand.src_global, cand.tag, cand.payload_len, cand.arrival);
            }
            let candidates = candidate_set(&st.queues[dst], &mut pred);
            let bound = candidates
                .first()
                .map(|c| c.arrival)
                .unwrap_or(SimTime::INFINITY);
            st.pending[dst] = Some(PendingChoice {
                kind: ChoiceKind::Peek,
                candidates,
            });
            self.block(&mut st, dst, bound);
            if st.granted[dst].is_some() || st.poisoned.is_some() {
                continue;
            }
            st = self.park_on_cv(st, dst, None);
            if st.granted[dst].is_none() {
                self.unblock(&mut st, dst);
            }
        }
    }

    /// Non-blocking, ungated variant of [`Fabric::peek_matching`].
    pub fn try_peek_matching<F>(
        &self,
        dst: usize,
        mut pred: F,
    ) -> Option<(usize, u32, usize, SimTime)>
    where
        F: FnMut(&Envelope) -> bool,
    {
        let st = self.state.lock();
        self.check_poison(&st);
        st.queues[dst]
            .iter()
            .find(|e| pred(e))
            .map(|env| (env.src_global, env.tag, env.payload.len(), env.arrival))
    }

    /// Deterministic `MPI_Iprobe` at virtual time `now`: reports the
    /// virtual-order first matching message that has arrived by `now`, or
    /// `None` once no rank can still produce one (see
    /// [`Fabric::try_take_at`]).
    pub fn try_peek_at<F>(
        &self,
        dst: usize,
        mut pred: F,
        now: SimTime,
    ) -> Option<(usize, u32, usize, SimTime)>
    where
        F: FnMut(&Envelope) -> bool,
    {
        let mut st = self.state.lock();
        loop {
            self.check_poison(&st);
            if self.scan_safe(&st, dst, now) {
                self.unblock(&mut st, dst);
                return select_virtual(&st.queues[dst], &mut pred)
                    .filter(|&i| st.queues[dst][i].arrival <= now)
                    .map(|i| {
                        let e = &st.queues[dst][i];
                        (e.src_global, e.tag, e.payload.len(), e.arrival)
                    });
            }
            // See `try_take_at`: a published future bound is sound.
            self.gate_park(&mut st, dst, now);
            if self.oracle.is_some() {
                st.gate_now[dst] = Some(now);
                st.confirmed[dst] = true;
                self.oracle_step(&mut st);
                if st.poisoned.is_some() {
                    self.gate_unpark(&mut st, dst);
                    continue;
                }
            }
            st = self.park_on_cv(st, dst, Some(GATE_FALLBACK));
            self.gate_unpark(&mut st, dst);
            if self.oracle.is_some() {
                st.confirmed[dst] = false;
            }
        }
    }

    /// Number of messages currently queued at `dst` (diagnostics).
    pub fn queued(&self, dst: usize) -> usize {
        self.state.lock().queues[dst].len()
    }

    /// Whether `dst` is currently published as blocked (parked in a
    /// fabric call, or finished). Diagnostic: tests use it to wait for a
    /// rank to reach its park deterministically instead of sleeping.
    pub fn is_parked(&self, dst: usize) -> bool {
        matches!(self.state.lock().waits[dst], RankWait::Blocked { .. })
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        // Tell the steward (if one was spawned) to exit. No join: the
        // last `Arc<Fabric>` may be dropped *by* the steward itself
        // after a final upgrade, and the thread parks for good measure
        // anyway — it holds no resources beyond its stack.
        self.board.shut_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    /// Deterministic replacement for the old 20 ms sleeps: wait until the
    /// rank has *published* its park, an event that cannot regress until
    /// the condition the test controls is made true. No wall-clock race:
    /// however slowly the waiter thread is scheduled, the test only
    /// proceeds once the park is visible under the fabric lock.
    fn await_parked(f: &Fabric, rank: usize) {
        while !f.is_parked(rank) {
            std::thread::yield_now();
        }
    }

    fn env(src: usize, tag: u32, arrival: SimTime) -> Envelope {
        Envelope {
            ctx: 0,
            src_global: src,
            tag,
            payload: Payload::from(bytes::Bytes::from(&[1u8, 2, 3][..])),
            sent: 0.0,
            arrival,
        }
    }

    #[test]
    fn deliver_then_take_fifo() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.deliver(1, env(0, 5, 0.1));
        f.deliver(1, env(0, 5, 0.2));
        let a = f.take_matching(1, |e| e.tag == 5);
        let b = f.take_matching(1, |e| e.tag == 5);
        assert_eq!(a.arrival, 0.1);
        assert_eq!(b.arrival, 0.2);
        assert_eq!(f.queued(1), 0);
    }

    #[test]
    fn take_matching_skips_non_matching() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.deliver(1, env(0, 1, 0.1));
        f.deliver(1, env(0, 2, 0.2));
        let m = f.take_matching(1, |e| e.tag == 2);
        assert_eq!(m.tag, 2);
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn try_take_returns_none_when_empty() {
        let f = Fabric::new(ClusterSpec::ideal(1));
        assert!(f.try_take_matching(0, |_| true).is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let f = Fabric::new(ClusterSpec::ideal(1));
        f.deliver(0, env(0, 9, 0.5));
        let (src, tag, len, arrival) = f.peek_matching(0, |e| e.tag == 9);
        assert_eq!((src, tag, len, arrival), (0, 9, 3, 0.5));
        assert_eq!(f.queued(0), 1);
        assert!(f.try_peek_matching(0, |e| e.tag == 8).is_none());
    }

    #[test]
    fn blocking_take_wakes_on_delivery() {
        let f = std::sync::Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        let f2 = std::sync::Arc::clone(&f);
        let h = std::thread::spawn(move || f2.take_matching(1, |e| e.tag == 3));
        await_parked(&f, 1);
        f.deliver(1, env(0, 3, 1.0));
        let m = h.join().unwrap();
        assert_eq!(m.tag, 3);
    }

    #[test]
    fn take_any_follows_virtual_order_not_delivery_order() {
        let f = Fabric::new(ClusterSpec::ideal(3));
        // The receiver is rank 1; make the other ranks permanently safe so
        // the gate passes immediately.
        f.finish_rank(0);
        f.finish_rank(2);
        // Physical delivery order: 0.9 (src 0), 0.5 (src 2), 0.1 (src 0).
        f.deliver(1, env(0, 7, 0.9));
        f.deliver(1, env(2, 7, 0.5));
        f.deliver(1, env(0, 7, 0.1));
        // Virtual order respects per-source FIFO: src 0's head is 0.9, so
        // 0.1 is not eligible until 0.9 has been taken.
        let a = f.take_any(1, |e| e.tag == 7);
        let b = f.take_any(1, |e| e.tag == 7);
        let c = f.take_any(1, |e| e.tag == 7);
        assert_eq!(
            (a.arrival, b.arrival, c.arrival),
            (0.5, 0.9, 0.1),
            "candidates must be per-source heads ordered by arrival"
        );
    }

    #[test]
    fn take_any_ties_break_by_sender() {
        let f = Fabric::new(ClusterSpec::ideal(3));
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(2, 7, 0.5));
        f.deliver(1, env(0, 7, 0.5));
        let a = f.take_any(1, |e| e.tag == 7);
        assert_eq!(a.src_global, 0);
    }

    #[test]
    fn take_any_waits_for_lagging_rank_clock() {
        let f = std::sync::Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        f.deliver(1, env(0, 7, 1.0));
        // Rank 0 is running with clock 0.0 < 1.0: the gate must hold until
        // its clock passes the candidate's arrival.
        let f2 = std::sync::Arc::clone(&f);
        let h = std::thread::spawn(move || f2.take_any(1, |e| e.tag == 7));
        await_parked(&f, 1);
        assert!(!h.is_finished(), "gate must wait on rank 0's clock");
        f.clock_of(0).merge(2.0);
        let m = h.join().unwrap();
        assert_eq!(m.arrival, 1.0);
    }

    #[test]
    fn try_peek_at_hides_future_messages() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.finish_rank(0);
        f.deliver(1, env(0, 7, 3.0));
        // At virtual time 1.0 the message has not arrived yet.
        assert!(f.try_peek_at(1, |e| e.tag == 7, 1.0).is_none());
        // At 3.0 it has.
        assert!(f.try_peek_at(1, |e| e.tag == 7, 3.0).is_some());
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn try_take_at_removes_only_arrived_messages() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.finish_rank(0);
        f.deliver(1, env(0, 7, 3.0));
        assert!(f.try_take_at(1, |e| e.tag == 7, 2.9).is_none());
        let m = f.try_take_at(1, |e| e.tag == 7, 3.0).unwrap();
        assert_eq!(m.arrival, 3.0);
        assert_eq!(f.queued(1), 0);
    }

    /// Oracle that always picks the *last* candidate — the opposite of
    /// the conservative gate's `(arrival, sender)` order.
    struct LastOracle;
    impl ScheduleOracle for LastOracle {
        fn choose(&self, point: &ChoicePoint) -> usize {
            point.candidates.len() - 1
        }
    }

    /// Oracle that records every choice point and picks index 0.
    struct LoggingOracle(parking_lot::Mutex<Vec<ChoicePoint>>);
    impl ScheduleOracle for LoggingOracle {
        fn choose(&self, point: &ChoicePoint) -> usize {
            self.0.lock().push(point.clone());
            0
        }
    }

    #[test]
    fn oracle_overrides_virtual_order() {
        let f = Fabric::new(ClusterSpec::ideal(3));
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(0, 7, 0.1));
        f.deliver(1, env(2, 7, 0.5));
        let gate_first = f.take_any(1, |e| e.tag == 7);
        assert_eq!(gate_first.src_global, 0, "gate picks the earliest arrival");

        let f = Fabric::with_oracle(ClusterSpec::ideal(3), Arc::new(LastOracle));
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(0, 7, 0.1));
        f.deliver(1, env(2, 7, 0.5));
        let a = f.take_any(1, |e| e.tag == 7);
        let b = f.take_any(1, |e| e.tag == 7);
        assert_eq!(
            (a.src_global, b.src_global),
            (2, 0),
            "the oracle may resolve a wildcard against virtual order"
        );
    }

    #[test]
    fn oracle_sees_sorted_candidates_and_seq() {
        let oracle = Arc::new(LoggingOracle(parking_lot::Mutex::new(Vec::new())));
        let f = Fabric::with_oracle(ClusterSpec::ideal(3), Arc::clone(&oracle) as _);
        f.finish_rank(0);
        f.finish_rank(2);
        f.deliver(1, env(2, 7, 0.5));
        f.deliver(1, env(0, 7, 0.9));
        f.deliver(1, env(0, 7, 0.1)); // not a head: src 0's head is 0.9
        let first = f.take_any(1, |e| e.tag == 7);
        assert_eq!(first.arrival, 0.5);
        let log = oracle.0.lock().clone();
        assert_eq!(log.len(), 1);
        let p = &log[0];
        assert_eq!((p.seq, p.dst, p.kind), (0, 1, ChoiceKind::Take));
        let order: Vec<(usize, SimTime)> =
            p.candidates.iter().map(|c| (c.src_global, c.arrival)).collect();
        assert_eq!(order, vec![(2, 0.5), (0, 0.9)]);
    }

    #[test]
    fn oracle_peek_reports_without_removing() {
        let f = Fabric::with_oracle(ClusterSpec::ideal(2), Arc::new(LastOracle));
        f.finish_rank(0);
        f.deliver(1, env(0, 9, 0.5));
        let (src, tag, len, arrival) = f.peek_any(1, |e| e.tag == 9);
        assert_eq!((src, tag, len, arrival), (0, 9, 3, 0.5));
        assert_eq!(f.queued(1), 1);
    }

    #[test]
    fn oracle_waits_for_stability_before_granting() {
        // Rank 0 is still running: no decision may be granted until it
        // parks, even though rank 1 already has a candidate.
        let f = Arc::new(Fabric::with_oracle(
            ClusterSpec::ideal(2),
            Arc::new(LastOracle),
        ));
        f.deliver(1, env(0, 7, 1.0));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.take_any(1, |e| e.tag == 7));
        await_parked(&f, 1);
        assert!(!h.is_finished(), "grant must wait for rank 0 to park");
        f.finish_rank(0);
        let m = h.join().unwrap();
        assert_eq!(m.arrival, 1.0);
    }

    /// Scripted injector: explicit actions per `(src, dst, seq)`,
    /// everything else delivered.
    struct Script(Vec<((usize, usize, u64), FaultAction)>);
    impl FaultInjector for Script {
        fn decide(&self, src: usize, dst: usize, seq: u64, _tag: u32) -> FaultAction {
            self.0
                .iter()
                .find(|(k, _)| *k == (src, dst, seq))
                .map(|(_, a)| *a)
                .unwrap_or(FaultAction::Deliver)
        }
    }

    #[test]
    fn injector_drops_and_counts() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![((0, 1, 0), FaultAction::Drop)])));
        f.deliver(1, env(0, 5, 0.1));
        assert_eq!(f.queued(1), 0, "seq 0 is scripted to drop");
        f.deliver(1, env(0, 5, 0.2));
        assert_eq!(f.queued(1), 1, "seq 1 is clean");
        assert_eq!(f.fault_stats().dropped, 1);
    }

    #[test]
    fn injector_duplicates_back_to_back() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![(
            (0, 1, 0),
            FaultAction::Duplicate,
        )])));
        f.deliver(1, env(0, 5, 0.1));
        assert_eq!(f.queued(1), 2);
        assert_eq!(f.fault_stats().duplicated, 1);
    }

    #[test]
    fn duplicate_of_a_multi_part_envelope_delivers_identical_parts() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![(
            (0, 1, 0),
            FaultAction::Duplicate,
        )])));
        let shared = bytes::Bytes::from(vec![7u8; 64]);
        let payload = Payload::from_segments(&[
            rocio_core::Segment::Owned(b"head".to_vec()),
            rocio_core::Segment::Shared(shared.clone()),
        ]);
        f.deliver(1, Envelope { payload, ..env(0, 5, 0.1) });
        let a = f.take_matching(1, |e| e.tag == 5);
        let b = f.take_matching(1, |e| e.tag == 5);
        assert_eq!(a.payload.parts().len(), 2);
        for (pa, pb) in a.payload.parts().iter().zip(b.payload.parts()) {
            assert_eq!(pa, pb);
            assert_eq!(pa.as_ptr(), pb.as_ptr(), "the duplicate shares the original's buffers");
        }
        assert_eq!(b.payload.parts()[1].as_ptr(), shared.as_ptr());
        assert_eq!((a.payload.len(), a.arrival), (b.payload.len(), b.arrival));
    }

    #[test]
    fn reorder_holds_until_next_send_on_the_link() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        f.set_fault_injector(Arc::new(Script(vec![((0, 1, 0), FaultAction::Reorder)])));
        f.deliver(1, env(0, 1, 0.1));
        assert_eq!(f.queued(1), 0, "reordered message sits in limbo");
        f.deliver(1, env(0, 2, 0.2));
        assert_eq!(f.queued(1), 2, "the next send releases the stash behind itself");
        let a = f.take_matching(1, |_| true);
        let b = f.take_matching(1, |_| true);
        assert_eq!((a.tag, b.tag), (2, 1), "queue order reflects the overtake");
        assert_eq!(b.arrival, 0.2, "the released stash is re-stamped to the releaser");
        assert_eq!(f.fault_stats().reordered, 1);
    }

    #[test]
    fn released_stash_cannot_undercut_the_virtual_order() {
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(3)));
        f.set_fault_injector(Arc::new(Script(vec![((0, 1, 0), FaultAction::Reorder)])));
        f.deliver(1, env(0, 7, 0.1)); // stashed in limbo
        f.deliver(1, env(2, 7, 0.5)); // visible candidate
        f.finish_rank(2);
        f.finish_rank(0);
        // The stash never blocks the gate: the 0.5 candidate commits even
        // though an envelope stamped 0.1 is still in limbo, because any
        // release re-stamps it to the releasing send's (later) arrival.
        let first = f.take_any(1, |e| e.tag == 7);
        assert_eq!(first.arrival, 0.5, "stash is invisible to the commit");
        f.deliver(1, env(0, 7, 0.9)); // releases the stash, re-stamped
        let second = f.take_any(1, |e| e.tag == 7);
        let third = f.take_any(1, |e| e.tag == 7);
        assert_eq!(
            (second.arrival, second.tag, third.arrival, third.tag),
            (0.9, 7, 0.9, 7),
            "the overtaken envelope arrives with the releaser's stamp"
        );
    }

    #[test]
    fn trailing_delivery_to_a_finished_rank_cannot_wedge_the_gate() {
        let f = Arc::new(Fabric::new(ClusterSpec::ideal(2)));
        f.finish_rank(1);
        // Trailing traffic to the finished rank (an ack racing the peer's
        // exit, under the reliability layer) must not lower its published
        // ∞ bound: the rank never wakes to re-raise it, and a lowered
        // bound would wedge every other rank's safety scan forever.
        f.deliver(1, env(0, 5, 0.2));
        let got = f.try_take_at(0, |_| true, 10.0);
        assert!(got.is_none(), "rank 0's deadline scan must still settle");
    }

    #[test]
    fn collective_and_split_traffic_is_fault_exempt() {
        let f = Fabric::new(ClusterSpec::ideal(2));
        // Drop everything eligible, ever.
        struct DropAll;
        impl FaultInjector for DropAll {
            fn decide(&self, _: usize, _: usize, _: u64, _: u32) -> FaultAction {
                FaultAction::Drop
            }
        }
        f.set_fault_injector(Arc::new(DropAll));
        let coll = Envelope {
            tag: 0xF000_0005,
            ..env(0, 0, 0.1)
        };
        f.deliver(1, coll);
        let split = Envelope {
            ctx: 42,
            ..env(0, 5, 0.2)
        };
        f.deliver(1, split);
        let slf = env(1, 5, 0.3);
        f.deliver(1, slf);
        assert_eq!(f.queued(1), 3, "reserved tags, split contexts and self-sends pass");
        f.deliver(1, env(0, 5, 0.4));
        assert_eq!(f.queued(1), 3, "plain user traffic is dropped");
        assert_eq!(f.fault_stats().total(), 1);
    }

    #[test]
    fn oracle_poisons_deadlocked_job() {
        let f = Arc::new(Fabric::with_oracle(
            ClusterSpec::ideal(2),
            Arc::new(LastOracle),
        ));
        let spawn_waiter = |rank: usize, tag: u32| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    f.take_matching(rank, move |e| e.tag == tag)
                }))
            })
        };
        // Both ranks wait for messages nobody will ever send.
        let a = spawn_waiter(0, 1);
        let b = spawn_waiter(1, 2);
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        for r in [ra, rb] {
            let err = r.expect_err("deadlocked rank must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("rocsched: deadlock"),
                "poison message should name the deadlock, got: {msg}"
            );
        }
    }
}
