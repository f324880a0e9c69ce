//! Host-side probes: a counting allocator, thread and process CPU clocks,
//! peak RSS, and the per-rank log that times every public layer call the
//! benchmark makes.
//!
//! Everything here lives in the benchmark; the program under test is
//! driven only through its public API. A rank's log is owned by that
//! rank's closure and handed back through `run_on_fabric_sched`'s result
//! vector, so no lock is shared between ranks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use roccom::{AttrSelector, IoService, Windows};
use rocio_core::{Result, SnapshotId};

// ---------------------------------------------------------------------------
// Allocation counting.
// ---------------------------------------------------------------------------

/// Global allocator wrapper counting allocation calls (`alloc`,
/// `alloc_zeroed`, `realloc`), process-wide and per thread. The per-thread
/// count lets a span charge the allocations made on its own rank thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // Relaxed: a statistic that publishes no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters neither
// allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls made by the whole process so far.
pub fn process_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// CPU clocks and memory.
// ---------------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Linux CPU-time clocks in nanoseconds. `/proc/*/stat` reports CPU time
/// in 10 ms ticks, coarser than one solver step on a rank, so the
/// benchmark reads the kernel's nanosecond CPU clocks instead.
fn cpu_clock(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) for the
    // whole call, and both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of the whole process (all threads,
/// including exited ones).
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds the hypervisor ran something else while this machine's CPUs
/// wanted to run (`steal` of `/proc/stat`, summed over CPUs). A busy host
/// steals whole seconds from a run; the benchmark uses it to tell a
/// disturbed run from a slow program.
pub fn machine_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: f64 = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|t| t.parse().ok())
        .expect("steal column in /proc/stat");
    // USER_HZ is 100 on Linux.
    ticks / 100.0
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

// ---------------------------------------------------------------------------
// Per-rank log: op latencies (always) and spans (traced runs only).
// ---------------------------------------------------------------------------

/// The user-visible operations whose per-rank host latency the benchmark
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Snapshot,
    Step,
    /// A restore through the I/O module's default read path.
    Restart,
    /// A restore through Rochdf's two-phase collective read. Kept apart
    /// from [`Op::Restart`]: per rank it takes 100x longer than an
    /// individual restore, so a pooled median would fall in the gap.
    TwoPhaseRestart,
}

impl Op {
    pub const ALL: [Op; 4] = [Op::Snapshot, Op::Step, Op::Restart, Op::TwoPhaseRestart];

    pub fn name(self) -> &'static str {
        match self {
            Op::Snapshot => "snapshot",
            Op::Step => "step",
            Op::Restart => "restart",
            Op::TwoPhaseRestart => "restart_twophase",
        }
    }
}

/// One host-time span around a layer call. Times are seconds since the
/// run's epoch, shared by every rank of the run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the list holding this span (a
    /// rank's own list, rebased when the ranks' lists are merged).
    pub parent: Option<usize>,
    /// The rank thread's CPU seconds inside the span.
    pub cpu: f64,
    /// Allocation calls made while this was the innermost open span.
    pub self_allocs: u64,
}

struct Open {
    index: usize,
    t0: Instant,
    cpu0: f64,
    allocs0: u64,
    /// Allocations already charged to closed child spans.
    child_allocs: u64,
}

#[derive(Default)]
struct LogState {
    spans: Vec<Span>,
    open: Vec<Open>,
    /// Host latency samples (ms) per [`Op`], in `Op::ALL` order.
    op_ms: [Vec<f64>; 4],
    attempted: u64,
    failed: u64,
    /// Layer calls made through [`TimedIo`], and how many returned `Err`.
    io_calls: u64,
    io_failed: u64,
    failures: Vec<String>,
}

/// Everything one rank measured, moved out of its [`RankLog`].
#[derive(Default)]
pub struct RankRecord {
    pub spans: Vec<Span>,
    pub op_ms: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    pub io_calls: u64,
    pub io_failed: u64,
    pub failures: Vec<String>,
}

/// A rank's measurement log. Owned by the rank's closure; not shared.
pub struct RankLog {
    epoch: Instant,
    rank: usize,
    traced: bool,
    state: RefCell<LogState>,
}

impl RankLog {
    pub fn new(epoch: Instant, rank: usize, traced: bool) -> Self {
        let state = LogState {
            spans: Vec::with_capacity(if traced { 1024 } else { 0 }),
            ..LogState::default()
        };
        RankLog {
            epoch,
            rank,
            traced,
            state: RefCell::new(state),
        }
    }

    /// Run `f` as the layer call `name`. A `Some(op)` call is a
    /// user-visible operation: its latency is sampled and it counts as
    /// attempted, and as failed when it returns `Err`.
    pub fn call<T>(
        &self,
        name: &'static str,
        op: Option<Op>,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let (out, ms) = self.timed(name, f);
        if let Some(op) = op {
            let mut st = self.state.borrow_mut();
            st.op_ms[op as usize].push(ms);
            st.attempted += 1;
            if let Err(e) = &out {
                st.failed += 1;
                st.failures.push(format!("rank {} {name}: {e}", self.rank));
            }
        }
        out
    }

    /// Like [`RankLog::call`] for a [`TimedIo`] layer call: counted as an
    /// I/O call (and failure), never as a user-visible operation.
    fn io_call<T>(&self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let (out, _) = self.timed(name, f);
        let mut st = self.state.borrow_mut();
        st.io_calls += 1;
        if let Err(e) = &out {
            st.io_failed += 1;
            st.failures.push(format!("rank {} {name}: {e}", self.rank));
        }
        out
    }

    /// Run `f` inside span `name`; also returns its latency in ms.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> Result<T>) -> (Result<T>, f64) {
        self.open(name);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close();
        (out, ms)
    }

    /// Record one correctness check as an operation.
    pub fn check(&self, what: &str, ok: bool) {
        let mut st = self.state.borrow_mut();
        st.attempted += 1;
        if !ok {
            st.failed += 1;
            st.failures
                .push(format!("rank {} check failed: {what}", self.rank));
        }
    }

    fn open(&self, name: &'static str) {
        if !self.traced {
            return;
        }
        let mut st = self.state.borrow_mut();
        let parent = st.open.last().map(|o| o.index);
        let index = st.spans.len();
        st.spans.push(Span {
            name,
            rank: self.rank,
            start: 0.0,
            end: 0.0,
            parent,
            cpu: 0.0,
            self_allocs: 0,
        });
        // Start the clocks last, so the log's own bookkeeping above is
        // charged to the enclosing span rather than this one.
        st.open.push(Open {
            index,
            t0: Instant::now(),
            cpu0: thread_cpu_s(),
            allocs0: thread_allocs(),
            child_allocs: 0,
        });
    }

    fn close(&self) {
        if !self.traced {
            return;
        }
        let allocs1 = thread_allocs();
        let cpu1 = thread_cpu_s();
        let t1 = Instant::now();
        let mut st = self.state.borrow_mut();
        let o = st.open.pop().expect("close matches an open span");
        let inclusive = allocs1 - o.allocs0;
        if let Some(p) = st.open.last_mut() {
            p.child_allocs += inclusive;
        }
        let span = &mut st.spans[o.index];
        span.start = (o.t0 - self.epoch).as_secs_f64();
        span.end = (t1 - self.epoch).as_secs_f64();
        span.cpu = cpu1 - o.cpu0;
        span.self_allocs = inclusive - o.child_allocs;
    }

    pub fn into_record(self) -> RankRecord {
        let st = self.state.into_inner();
        RankRecord {
            spans: st.spans,
            op_ms: st.op_ms,
            attempted: st.attempted,
            failed: st.failed,
            io_calls: st.io_calls,
            io_failed: st.io_failed,
            failures: st.failures,
        }
    }
}

// ---------------------------------------------------------------------------
// The roccom-boundary adaptor.
// ---------------------------------------------------------------------------

/// Span names for one I/O module's calls at the roccom boundary.
#[derive(Debug, Clone, Copy)]
pub struct IoNames {
    pub write: &'static str,
    pub read: &'static str,
    pub sync: &'static str,
    pub retire: &'static str,
    pub finalize: &'static str,
}

impl IoNames {
    pub const ROCPANDA: IoNames = IoNames {
        write: "rocpanda.client.write",
        read: "rocpanda.client.read",
        sync: "rocpanda.client.sync",
        retire: "rocpanda.client.retire",
        finalize: "rocpanda.finalize",
    };
    pub const TROCHDF: IoNames = IoNames {
        write: "trochdf.write",
        read: "trochdf.read",
        sync: "trochdf.sync",
        retire: "trochdf.retire",
        finalize: "trochdf.finalize",
    };

    /// Rochdf, with reads named by the path `read_aggregators` selects.
    pub fn rochdf(read_aggregators: usize) -> IoNames {
        IoNames {
            write: "rochdf.write",
            read: if read_aggregators == 0 {
                "rochdf.read"
            } else {
                "rochdf.twophase.read"
            },
            sync: "rochdf.sync",
            retire: "rochdf.retire",
            finalize: "rochdf.finalize",
        }
    }
}

/// An [`IoService`] wrapping a real I/O module: every call is timed,
/// counted and, when it fails, recorded in the rank's log. Rocpanda,
/// Rochdf and T-Rochdf are thereby all measured at the same boundary.
pub struct TimedIo<'a> {
    inner: Box<dyn IoService + 'a>,
    names: IoNames,
    log: &'a RankLog,
}

impl<'a> TimedIo<'a> {
    pub fn new(inner: Box<dyn IoService + 'a>, names: IoNames, log: &'a RankLog) -> Self {
        TimedIo { inner, names, log }
    }
}

impl IoService for TimedIo<'_> {
    fn service_name(&self) -> &'static str {
        self.inner.service_name()
    }

    fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.log.io_call(self.names.write, || {
            inner.write_attribute(windows, sel, snap)
        })
    }

    fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.log
            .io_call(self.names.read, || inner.read_attribute(windows, sel, snap))
    }

    fn sync(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.log.io_call(self.names.sync, || inner.sync())
    }

    fn retire(&mut self, snap: SnapshotId) -> Result<()> {
        let inner = &mut self.inner;
        self.log.io_call(self.names.retire, || inner.retire(snap))
    }

    fn finalize(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.log.io_call(self.names.finalize, || inner.finalize())
    }
}
