//! The three GENx workloads, driven from outside through the public layer
//! calls: mesh generation and window registration (`rocmesh`, `genx::setup`),
//! the I/O modules (`PandaServiceBuilder`/`attach`, `Rochdf::new`,
//! `TRochdf::new`), the orchestrator (`Rocman::{new, step, snapshot,
//! measure_restart}`, `io.finalize_all`), the rank launcher
//! (`run_on_fabric_sched`) and the program's own restart job
//! (`genx::run_genx_restart`, used as the reference).
//!
//! Each workload runs one set-up and one timed phase per process and
//! returns a [`Measured`]. Every job uses the Turing models and the
//! default pooled scheduler.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genx::setup::{
    assign, declare_windows_for, register_and_init_for, FluidKind, MyBlocks, SolidKind,
    BURN_WINDOW, SOLID_WINDOW,
};
use genx::{GenxConfig, IoChoice, Rocman, RunReport, WorkloadKind};
use roccom::{AttrRef, AttrSelector, IoDispatch, IoService, Windows};
use rochdf::{Rochdf, RochdfConfig, TRochdf};
use rocio_core::{BlockId, Checksum, Result, RocError, SnapshotId, TenantId};
use rocmesh::Workload;
use rocnet::cluster::ClusterSpec;
use rocnet::{run_on_fabric_sched, Comm, Fabric, SchedConfig};
use rocpanda::{
    JobSpec, PandaServiceBuilder, RocpandaConfig, ServerStats, ServiceRole, TenantDrainStats,
};
use rocstore::{FsStats, SharedFs};

use crate::layers::{self, Layers};
use crate::probe::{self, IoNames, Op, RankLog, RankRecord, TimedIo};

/// `checkpoint`: 32 Rocpanda clients and 4 servers (Table 1's 8:1),
/// snapshot every 2 of 40 steps, keeping the newest two snapshots.
pub const CHECKPOINT_CLIENTS: usize = 32;
pub const CHECKPOINT_SERVERS: usize = 4;
pub const CHECKPOINT_STEPS: u64 = 40;
pub const CHECKPOINT_EVERY: u64 = 2;
pub const CHECKPOINT_KEEP: u32 = 2;

/// `restart`: one snapshot written by 16 Rochdf ranks, read back onto 24
/// ranks, alternating the individual and the two-phase path.
pub const RESTART_WRITERS: usize = 16;
pub const RESTART_READERS: usize = 24;
pub const RESTART_AGGREGATORS: usize = 4;
pub const RESTART_JOBS: usize = 48;

/// `wide`: one block per rank over 256 T-Rochdf ranks, 60 steps, snapshot
/// at steps 0 and 60.
pub const WIDE_RANKS: usize = 256;
pub const WIDE_STEPS: u64 = 60;
pub const WIDE_EVERY: u64 = 60;

const OUT_DIR: &str = "perfbench";
const FLUID: FluidKind = FluidKind::Rocflo;
const SOLID: SolidKind = SolidKind::Rocfrac;
const WINDOWS: [&str; 3] = ["fluid", SOLID_WINDOW, BURN_WINDOW];

/// What one process measured: one set-up and one timed phase.
#[derive(Default)]
pub struct Measured {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// CPU time stolen from the machine by the hypervisor during the
    /// timed phase.
    pub steal_s: f64,
    pub allocs: u64,
    /// Per-rank host latency samples (ms), in `Op::ALL` order.
    pub op_ms: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Calls made at the roccom boundary, and how many returned `Err`.
    pub io_calls: u64,
    pub io_failed: u64,
    /// Host spans of a traced run, in rank order.
    pub spans: Vec<probe::Span>,
    /// Virtual-time model outputs: must repeat exactly for a seed.
    pub vt: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
}

impl Measured {
    /// Take in one rank's record; its spans join `spans` with their
    /// parent indices rebased onto that list.
    fn absorb(&mut self, rec: RankRecord, spans: &mut Vec<probe::Span>) {
        for (all, mine) in self.op_ms.iter_mut().zip(rec.op_ms) {
            all.extend(mine);
        }
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.failures.extend(rec.failures);
        self.io_calls += rec.io_calls;
        self.io_failed += rec.io_failed;
        let base = spans.len();
        spans.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One check made outside any rank.
    fn check(&mut self, what: String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("check failed: {what}"));
        }
    }

    /// A rank whose body returned `Err` outside a logged operation still
    /// counts as one failed operation.
    fn rank_error(&mut self, rank: usize, logged_failures: u64, err: Option<String>) {
        if let Some(e) = err {
            if logged_failures == 0 {
                self.attempted += 1;
                self.failed += 1;
            }
            self.failures.push(format!("rank {rank}: {e}"));
        }
    }
}

/// Timed-phase counters read before and after the phase.
struct PhaseStart {
    t0: Instant,
    cpu0: f64,
    steal0: f64,
    allocs0: u64,
    fs0: FsStats,
}

impl PhaseStart {
    fn now(fs: &SharedFs) -> Self {
        PhaseStart {
            fs0: fs.stats(),
            cpu0: probe::process_cpu_s(),
            steal0: probe::machine_steal_s(),
            allocs0: probe::process_allocs(),
            t0: Instant::now(),
        }
    }

    fn finish(self, m: &mut Measured) -> FsStats {
        m.wall_s = self.t0.elapsed().as_secs_f64();
        m.cpu_s = probe::process_cpu_s() - self.cpu0;
        m.steal_s = probe::machine_steal_s() - self.steal0;
        m.allocs = probe::process_allocs() - self.allocs0;
        self.fs0
    }
}

/// Set-up pieces common to every workload.
struct Mesh {
    workload: Workload,
    generate_s: f64,
}

fn mesh(seed: u64) -> Mesh {
    let t = Instant::now();
    let workload = Workload::lab_scale_motor(seed);
    Mesh {
        generate_s: t.elapsed().as_secs_f64(),
        workload,
    }
}

fn windows_for(workload: &Workload, mine: &MyBlocks) -> Result<Windows> {
    let mut ws = Windows::new();
    declare_windows_for(&mut ws, FLUID, SOLID)?;
    register_and_init_for(&mut ws, workload, mine, FLUID)?;
    Ok(ws)
}

/// Order- and partition-independent XOR of every pane's block checksum,
/// the fingerprint `genx::run_genx_restart` reports as `state_hash`.
fn state_hash(ws: &Windows) -> Result<u64> {
    let mut hash = 0u64;
    for name in WINDOWS {
        let w = ws.window(name)?;
        for id in w.pane_ids() {
            let block = roccom::convert::pane_to_block(w, w.pane(id)?, &AttrRef::All)?;
            hash ^= Checksum::of_block(&block).0;
        }
    }
    Ok(hash)
}

fn snapshot_bytes(workload: &Workload, mine: &MyBlocks) -> u64 {
    let (fluid, solid) = workload.block_weights();
    let f: usize = mine.fluid.iter().map(|&i| fluid[i]).sum();
    let s: usize = mine.solid.iter().map(|&i| solid[i]).sum();
    (f + s) as u64
}

// ---------------------------------------------------------------------------
// A GENx client job (checkpoint and wide).
// ---------------------------------------------------------------------------

/// The job every compute rank runs, prepared before launch: the mesh, the
/// schedule, and each rank's pre-registered live and restart windows.
struct GenxPlan {
    steps: u64,
    every: u64,
    keep: Option<u32>,
    adjacency: HashMap<BlockId, BlockId>,
    /// Per compute rank: this rank's snapshot payload bytes.
    local_bytes: Vec<u64>,
    /// Per compute rank: (live, restart) windows, taken once by the rank
    /// before its first fabric call. Each rank locks only its own slot, so
    /// the lock is never contended and never parks a pooled rank.
    windows: Vec<Mutex<Option<(Windows, Windows)>>>,
}

impl GenxPlan {
    fn new(
        workload: &Workload,
        n_compute: usize,
        steps: u64,
        every: u64,
        keep: Option<u32>,
    ) -> Result<(Self, f64)> {
        let t = Instant::now();
        let mine = assign(workload, n_compute);
        let mut windows = Vec::with_capacity(n_compute);
        for m in &mine {
            windows.push(Mutex::new(Some((
                windows_for(workload, m)?,
                windows_for(workload, m)?,
            ))));
        }
        let register_s = t.elapsed().as_secs_f64();
        // Cross-block inflow coupling along the bore axis, as the GENx
        // driver wires it for the Rocflo solver.
        let adjacency = rocmesh::x_adjacency(&workload.fluid)
            .into_iter()
            .map(|(up, down)| (workload.fluid[down].id, workload.fluid[up].id))
            .collect();
        let plan = GenxPlan {
            steps,
            every,
            keep,
            adjacency,
            local_bytes: mine.iter().map(|m| snapshot_bytes(workload, m)).collect(),
            windows,
        };
        Ok((plan, register_s))
    }
}

/// Model outputs of one compute rank.
#[derive(Debug, Clone, Copy, Default)]
struct ClientVt {
    comp: f64,
    io: f64,
    restart: f64,
    snapshots: u32,
    global_bytes: u64,
}

/// One compute rank: snapshot at step 0 and every `every` steps, then
/// restart from the last snapshot into fresh windows and compare.
fn genx_client<'a>(
    comm: &Comm,
    io: Box<dyn IoService + 'a>,
    names: IoNames,
    plan: &GenxPlan,
    log: &'a RankLog,
) -> Result<ClientVt> {
    let rank = comm.rank();
    let (live, mut fresh) = plan.windows[rank]
        .lock()
        .expect("window slot lock poisoned by a panicking rank")
        .take()
        .ok_or_else(|| RocError::InvalidState(format!("windows of rank {rank} taken twice")))?;
    let global_bytes = comm.allreduce_sum_f64(plan.local_bytes[rank] as f64)? as u64;

    let mut dispatch = IoDispatch::new();
    dispatch.load_module(Box::new(TimedIo::new(io, names, log)))?;
    let mut man = Rocman::new(comm, live, dispatch)?;
    man.adjacency = plan.adjacency.clone();
    man.fluid_kind = FLUID;
    man.solid_kind = SOLID;
    man.keep_snapshots = plan.keep;

    log.call("genx.snapshot", Some(Op::Snapshot), || man.snapshot())?;
    for s in 1..=plan.steps {
        log.call("genx.step", Some(Op::Step), || man.step())?;
        if s % plan.every == 0 {
            log.call("genx.snapshot", Some(Op::Snapshot), || man.snapshot())?;
        }
    }
    let (restart, exact) = log.call("genx.restart", Some(Op::Restart), || {
        man.measure_restart(&mut fresh)
    })?;
    log.check("final restart is bit-exact", exact);
    let vt = ClientVt {
        comp: man.comp_time(),
        io: man.io_time(),
        restart,
        snapshots: man.snapshots_taken(),
        global_bytes,
    };
    man.io.finalize_all()?;
    Ok(vt)
}

/// What one rank of a GENx job hands back.
struct RankOut {
    rank: usize,
    record: RankRecord,
    /// Seconds since the epoch at which the rank's closure started.
    entered: f64,
    client: Option<ClientVt>,
    server: Option<(ServerStats, Vec<(TenantId, TenantDrainStats)>)>,
    msgs_sent: u64,
    bytes_sent: u64,
    error: Option<String>,
}

impl RankOut {
    fn new(rank: usize, entered: f64) -> Self {
        RankOut {
            rank,
            record: RankRecord::default(),
            entered,
            client: None,
            server: None,
            msgs_sent: 0,
            bytes_sent: 0,
            error: None,
        }
    }

    fn count_net(&mut self, comm: &Comm) {
        let s = comm.stats();
        self.msgs_sent += s.msgs_sent;
        self.bytes_sent += s.bytes_sent;
    }

    fn finish<T>(mut self, log: RankLog, res: Result<T>) -> (Self, Option<T>) {
        self.record = log.into_record();
        match res {
            Ok(v) => (self, Some(v)),
            Err(e) => {
                self.error = Some(e.to_string());
                (self, None)
            }
        }
    }
}

fn rocobs_guard(
    collector: Option<&rocobs::TraceCollector>,
    world: &Comm,
) -> Option<rocobs::InstallGuard> {
    collector.map(|tc| {
        let rank = world.global_rank();
        tc.handle(rank, rocobs::LANE_MAIN, world.cluster().node_of(rank))
            .install()
    })
}

/// Fold one job's rank output into the measurement and the traced layer
/// metrics: counts, records, errors. Returns the rank's entry time.
fn fold_rank(m: &mut Measured, o: RankOut, layers: &mut Layers) -> f64 {
    layers.add("rocnet.msgs_sent", o.msgs_sent as f64);
    layers.add("rocnet.bytes_sent", o.bytes_sent as f64);
    let logged = o.record.failed;
    m.absorb(o.record, &mut layers.spans);
    m.rank_error(o.rank, logged, o.error);
    o.entered
}

/// Fold a GENx job's rank outputs (launched at the epoch) into the
/// measurement and the traced layer metrics; returns the slowest client's
/// model outputs.
fn fold_genx(m: &mut Measured, outs: Vec<RankOut>, layers: &mut Layers) -> ClientVt {
    let mut vt = ClientVt::default();
    let mut server = ServerStats::default();
    let mut drain = TenantDrainStats::default();
    let mut last_entry: f64 = 0.0;
    for mut o in outs {
        if let Some(c) = o.client.take() {
            vt.comp = vt.comp.max(c.comp);
            vt.io = vt.io.max(c.io);
            vt.restart = vt.restart.max(c.restart);
            vt.snapshots = vt.snapshots.max(c.snapshots);
            vt.global_bytes = c.global_bytes;
        }
        if let Some((s, d)) = o.server.take() {
            server.blocks_buffered += s.blocks_buffered;
            server.blocks_written += s.blocks_written;
            server.buffer_overflows += s.buffer_overflows;
            for (_, t) in d {
                drain.blocks += t.blocks;
                drain.bytes += t.bytes;
                drain.total_latency += t.total_latency;
            }
        }
        last_entry = last_entry.max(fold_rank(m, o, layers));
    }
    layers.add("rocnet.launch_s", last_entry);
    layers.add(
        "rocpanda.server.blocks_buffered",
        server.blocks_buffered as f64,
    );
    layers.add(
        "rocpanda.server.blocks_written",
        server.blocks_written as f64,
    );
    layers.add(
        "rocpanda.server.buffer_overflows",
        server.buffer_overflows as f64,
    );
    layers.add("rocpanda.drain.bytes", drain.bytes as f64);
    layers.add("rocpanda.drain.mean_latency_vs", drain.mean_latency());
    vt
}

fn genx_vt(m: &mut Measured, vt: ClientVt) {
    m.vt = vec![
        ("genx.vt.comp_s", vt.comp),
        ("genx.vt.visible_io_s", vt.io),
        ("genx.vt.restart_s", vt.restart),
        (
            "genx.vt.apparent_write_mb_s",
            RunReport::apparent_throughput(vt.global_bytes * vt.snapshots as u64, vt.io),
        ),
        ("genx.vt.snapshots", vt.snapshots as f64),
    ];
}

/// Traced-run bookkeeping shared by every workload.
fn finish_layers(
    m: &mut Measured,
    mut layers: Layers,
    fs: &SharedFs,
    fs0: FsStats,
    bytes_restored: f64,
    bytes_snapshotted: f64,
) {
    if !layers.traced() {
        return;
    }
    let fs1 = fs.stats();
    let written = (fs1.bytes_written - fs0.bytes_written) as f64;
    let read = (fs1.bytes_read - fs0.bytes_read) as f64;
    layers.add("rocstore.bytes_written", written);
    layers.add("rocstore.write_ops", (fs1.write_ops - fs0.write_ops) as f64);
    layers.add("rocstore.bytes_read", read);
    layers.add("rocstore.read_ops", (fs1.read_ops - fs0.read_ops) as f64);
    layers.add(
        "rocstore.files_created",
        (fs1.files_created - fs0.files_created) as f64,
    );
    layers.add(
        "rocstore.read_amplification",
        layers::ratio(read, bytes_restored),
    );
    layers.add(
        "rocsdf.bytes_per_payload_byte",
        layers::ratio(written, bytes_snapshotted),
    );
    for (name, v) in &m.vt {
        layers.add(name, *v);
    }
    (m.layers, m.spans) = layers.finish();
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// `checkpoint`: write-dominated Rocpanda job at paper size.
pub fn checkpoint(seed: u64, traced: bool) -> Result<Measured> {
    let mut m = Measured::default();
    let t_setup = Instant::now();
    let mesh = mesh(seed);
    let (plan, register_s) = GenxPlan::new(
        &mesh.workload,
        CHECKPOINT_CLIENTS,
        CHECKPOINT_STEPS,
        CHECKPOINT_EVERY,
        Some(CHECKPOINT_KEEP),
    )?;
    let n = CHECKPOINT_CLIENTS + CHECKPOINT_SERVERS;
    let clients: Vec<usize> = (0..CHECKPOINT_CLIENTS).collect();
    let servers: Vec<usize> = (CHECKPOINT_CLIENTS..n).collect();
    let fs = Arc::new(SharedFs::turing());
    let service = PandaServiceBuilder::new(Arc::clone(&fs))
        .servers(&servers)
        .config(RocpandaConfig {
            dir: OUT_DIR.into(),
            ..RocpandaConfig::default()
        })
        .build()?;
    service.submit(JobSpec::new("checkpoint", &clients))?;
    let fabric = Arc::new(Fabric::new(ClusterSpec::turing(n)));
    let collector = traced.then(rocobs::TraceCollector::new);
    m.setup_s = t_setup.elapsed().as_secs_f64();

    let phase = PhaseStart::now(&fs);
    let epoch = phase.t0;
    let outs = run_on_fabric_sched(&fabric, &SchedConfig::default(), &|world| {
        let entered = epoch.elapsed().as_secs_f64();
        let _obs = rocobs_guard(collector.as_ref(), &world);
        let log = RankLog::new(epoch, world.rank(), traced);
        let mut out = RankOut::new(world.rank(), entered);
        let res = service.attach(&world).and_then(|role| match role {
            ServiceRole::Server(mut s) => {
                log.call("rocpanda.server.run", None, || s.run())?;
                out.server = Some((s.stats(), s.drain_stats()));
                Ok(())
            }
            ServiceRole::Client { io, comm, .. } => {
                let vt = genx_client(&comm, io, IoNames::ROCPANDA, &plan, &log);
                out.count_net(&comm);
                out.client = Some(vt?);
                Ok(())
            }
            ServiceRole::Idle => Ok(()),
        });
        out.count_net(&world);
        out.finish(log, res).0
    });
    let fs0 = phase.finish(&mut m);

    let mut layers = Layers::new(traced);
    layers.add("rocmesh.generate_s", mesh.generate_s);
    layers.add("roccom.register_s", register_s);
    let vt = fold_genx(&mut m, outs, &mut layers);
    let files = fs.list(&format!("{OUT_DIR}/")).len();
    let expected = 3 * CHECKPOINT_SERVERS * CHECKPOINT_KEEP as usize;
    m.check(
        format!("{files} files on disk, expected 3 windows x {CHECKPOINT_SERVERS} servers x {CHECKPOINT_KEEP} snapshots = {expected}"),
        files == expected,
    );
    genx_vt(&mut m, vt);
    m.vt.push(("files", files as f64));
    if let Some(tc) = &collector {
        layers.add_trace(&tc.finish());
    }
    let payload = vt.global_bytes as f64;
    finish_layers(
        &mut m,
        layers,
        &fs,
        fs0,
        payload,
        payload * vt.snapshots as f64,
    );
    Ok(m)
}

/// `wide`: solver- and fabric-dominated T-Rochdf job on 256 ranks.
pub fn wide(seed: u64, traced: bool) -> Result<Measured> {
    let mut m = Measured::default();
    let t_setup = Instant::now();
    let mesh = mesh(seed);
    let (plan, register_s) =
        GenxPlan::new(&mesh.workload, WIDE_RANKS, WIDE_STEPS, WIDE_EVERY, None)?;
    let fs = Arc::new(SharedFs::turing());
    let fabric = Arc::new(Fabric::new(ClusterSpec::turing(WIDE_RANKS)));
    let collector = traced.then(rocobs::TraceCollector::new);
    m.setup_s = t_setup.elapsed().as_secs_f64();

    let phase = PhaseStart::now(&fs);
    let epoch = phase.t0;
    let outs = run_on_fabric_sched(&fabric, &SchedConfig::default(), &|world| {
        let entered = epoch.elapsed().as_secs_f64();
        let _obs = rocobs_guard(collector.as_ref(), &world);
        let log = RankLog::new(epoch, world.rank(), traced);
        let cfg = RochdfConfig {
            dir: OUT_DIR.into(),
            ..RochdfConfig::default()
        };
        let module = TRochdf::new(Arc::clone(&fs), &world, cfg);
        let res = genx_client(&world, Box::new(module), IoNames::TROCHDF, &plan, &log);
        let mut out = RankOut::new(world.rank(), entered);
        out.count_net(&world);
        let (mut out, vt) = out.finish(log, res);
        out.client = vt;
        out
    });
    let fs0 = phase.finish(&mut m);

    let mut layers = Layers::new(traced);
    layers.add("rocmesh.generate_s", mesh.generate_s);
    layers.add("roccom.register_s", register_s);
    let vt = fold_genx(&mut m, outs, &mut layers);
    genx_vt(&mut m, vt);
    if let Some(tc) = &collector {
        layers.add_trace(&tc.finish());
    }
    let payload = vt.global_bytes as f64;
    finish_layers(
        &mut m,
        layers,
        &fs,
        fs0,
        payload,
        payload * vt.snapshots as f64,
    );
    Ok(m)
}

/// `restart`: read-dominated. Set-up writes one snapshot from 16 Rochdf
/// ranks and checks the program's own restart job against it; the timed
/// phase restores it onto 24 ranks again and again, alternating the
/// individual and the two-phase read path.
pub fn restart(seed: u64, traced: bool) -> Result<Measured> {
    let mut m = Measured::default();
    let t_setup = Instant::now();
    let mesh = mesh(seed);
    let workload = &mesh.workload;
    let fs = Arc::new(SharedFs::turing());
    let snap = SnapshotId::new(0, 0);
    let rochdf_cfg = |aggregators: usize| RochdfConfig {
        dir: OUT_DIR.into(),
        read_aggregators: aggregators,
        ..RochdfConfig::default()
    };

    // Write the source snapshot through the orchestrator; each writer
    // fingerprints the state it wrote.
    let t_reg = Instant::now();
    let writers = assign(workload, RESTART_WRITERS);
    let mut slots = Vec::with_capacity(RESTART_WRITERS);
    for mine in &writers {
        slots.push(Mutex::new(Some(windows_for(workload, mine)?)));
    }
    let mut register_s = t_reg.elapsed().as_secs_f64();
    let written = run_on_fabric_sched(
        &Arc::new(Fabric::new(ClusterSpec::turing(RESTART_WRITERS))),
        &SchedConfig::default(),
        &|world| -> Result<u64> {
            let ws = slots[world.rank()]
                .lock()
                .expect("window slot lock poisoned by a panicking rank")
                .take()
                .ok_or_else(|| RocError::InvalidState("writer windows taken twice".into()))?;
            let mut dispatch = IoDispatch::new();
            dispatch.load_module(Box::new(Rochdf::new(&fs, &world, rochdf_cfg(0))))?;
            let mut man = Rocman::new(&world, ws, dispatch)?;
            man.snapshot()?;
            man.io.finalize_all()?;
            state_hash(&man.windows)
        },
    );
    let mut reference = 0u64;
    for h in written {
        reference ^= h?;
    }

    // The program's own restart job must restore the same state, on both
    // paths; it also warms the store's caches before timing.
    for aggregators in [0, RESTART_AGGREGATORS] {
        let mut cfg = GenxConfig::new(
            "perfbench-restart",
            WorkloadKind::LabScale { seed, scale: 1.0 },
            IoChoice::Rochdf,
        );
        cfg.out_dir = OUT_DIR.into();
        cfg.rochdf = rochdf_cfg(aggregators);
        let rep = genx::run_genx_restart(ClusterSpec::turing(RESTART_READERS), &fs, &cfg, snap)?;
        m.check(
            format!("run_genx_restart(read_aggregators={aggregators}) state hash matches the written state"),
            rep.state_hash == reference,
        );
    }
    let readers = assign(workload, RESTART_READERS);
    let bytes_per_restart = workload.total_snapshot_bytes() as f64;
    m.setup_s = t_setup.elapsed().as_secs_f64();

    let phase = PhaseStart::now(&fs);
    let epoch = phase.t0;
    let mut layers = Layers::new(traced);
    let mut restart_vt = Vec::with_capacity(RESTART_JOBS);
    let mut launch_s = 0.0;
    for job in 0..RESTART_JOBS {
        let aggregators = if job % 2 == 0 { 0 } else { RESTART_AGGREGATORS };
        let fabric = Arc::new(Fabric::new(ClusterSpec::turing(RESTART_READERS)));
        let collector = traced.then(rocobs::TraceCollector::new);
        let launched = epoch.elapsed().as_secs_f64();
        let outs = run_on_fabric_sched(&fabric, &SchedConfig::default(), &|world| {
            let entered = epoch.elapsed().as_secs_f64();
            let _obs = rocobs_guard(collector.as_ref(), &world);
            let rank = world.rank();
            let log = RankLog::new(epoch, rank, traced);
            let res = (|| -> Result<(f64, u64)> {
                let mut ws = log.call("roccom.register", None, || {
                    windows_for(workload, &readers[rank])
                })?;
                let module = Rochdf::new(&fs, &world, rochdf_cfg(aggregators));
                let mut io = TimedIo::new(Box::new(module), IoNames::rochdf(aggregators), &log);
                let op = if aggregators == 0 {
                    Op::Restart
                } else {
                    Op::TwoPhaseRestart
                };
                let t0 = world.now();
                log.call("genx.restart", Some(op), || {
                    for name in WINDOWS {
                        io.read_attribute(&mut ws, &AttrSelector::all(name), snap)?;
                    }
                    Ok(())
                })?;
                let vt = world.now() - t0;
                io.finalize()?;
                Ok((vt, state_hash(&ws)?))
            })();
            let mut out = RankOut::new(rank, entered);
            out.count_net(&world);
            out.finish(log, res)
        });
        let mut hash = 0u64;
        let mut vt = 0f64;
        let mut last_entry = launched;
        for (o, res) in outs {
            if let Some((t, h)) = res {
                vt = vt.max(t);
                hash ^= h;
            }
            last_entry = last_entry.max(fold_rank(&mut m, o, &mut layers));
        }
        launch_s += last_entry - launched;
        m.check(
            format!("restart {job} (read_aggregators={aggregators}) state hash matches the written state"),
            hash == reference,
        );
        restart_vt.push(vt);
        if let Some(tc) = &collector {
            layers.add_trace(&tc.finish());
        }
    }
    let fs0 = phase.finish(&mut m);
    if traced {
        // Registration happens in set-up for the writers and inside each
        // restart job for the readers.
        register_s += layers::union(layers.spans.iter().filter(|s| s.name == "roccom.register"));
    }
    layers.add("rocmesh.generate_s", mesh.generate_s);
    layers.add("roccom.register_s", register_s);
    layers.add("rocnet.launch_s", launch_s);
    let individual: Vec<f64> = restart_vt.iter().step_by(2).copied().collect();
    let two_phase: Vec<f64> = restart_vt.iter().skip(1).step_by(2).copied().collect();
    m.vt = vec![
        ("genx.vt.restart_s", layers::mean(&restart_vt)),
        ("genx.vt.restart_individual_s", layers::mean(&individual)),
        ("genx.vt.restart_two_phase_s", layers::mean(&two_phase)),
    ];
    // Every restore's virtual time goes into the determinism comparison.
    m.vt.extend(restart_vt.iter().map(|&t| ("restore_job_vt", t)));
    finish_layers(
        &mut m,
        layers,
        &fs,
        fs0,
        bytes_per_restart * RESTART_JOBS as f64,
        0.0,
    );
    Ok(m)
}
