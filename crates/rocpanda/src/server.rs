//! The Rocpanda server routine: active buffering + adaptive probing,
//! shared by every admitted tenant.
//!
//! One server rank serves the clients of *all* tenants attached to the
//! service. Per-tenant state — drain queues, read-cache partitions,
//! sticky drain errors, output namespaces — is keyed by [`TenantId`], and
//! the background drain runs deficit round-robin across tenants so one
//! job's burst cannot starve another's snapshot.

use std::collections::{HashMap, HashSet, VecDeque};

use rocio_core::{BlockId, DataBlock, Priority, Result, RocError, SnapshotId, TenantId};
use rocnet::{Comm, Message};
use rocsdf::{SdfFileReader, SdfFileWriter, SegmentPool};
use rocstore::SharedFs;

use crate::config::RocpandaConfig;
use crate::net::PandaNet;
use crate::wire::{self, tag, BlockMsg, CoordKey, ReadReq, WriteReq};

/// How long (virtual seconds) a shutting-down server keeps re-acking
/// trailing retransmissions before exiting: comfortably past the largest
/// backed-off retransmit interval, so a client still draining its last
/// frames always finds the server listening. Virtual idle time — a clean
/// fabric never enters this path.
const LINGER_QUIET: f64 = 0.32;

/// Deficit-round-robin base quantum: bytes a weight-1 tenant may drain
/// per scheduler round. Small enough that a multi-megabyte burst from
/// one tenant interleaves with its peers at block granularity, large
/// enough that a typical block drains without a full ring rotation.
const DRR_QUANTUM: u64 = 64 * 1024;

/// Key of one output file: (tenant, snapshot, window). Including the
/// tenant keys every downstream structure — file registry, read cache,
/// restart coordination — so concurrent jobs writing the same window
/// name never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct FileKey {
    tenant: TenantId,
    snap: SnapshotId,
    window: String,
}

impl FileKey {
    fn coord(&self, epoch: u32) -> CoordKey {
        CoordKey {
            tenant: self.tenant,
            snap: self.snap,
            window: self.window.clone(),
            epoch,
        }
    }
}

/// One tenant's client layout as seen by one server.
#[derive(Debug, Clone)]
pub(crate) struct TenantLane {
    pub id: TenantId,
    pub priority: Priority,
    /// All world ranks of this tenant's clients (restart requests and
    /// control messages arrive from any of them).
    pub clients: Vec<usize>,
    /// The subset of `clients` attached to this server for writes.
    pub my_clients: Vec<usize>,
}

/// Per-file progress at the server.
#[derive(Default)]
struct FileState<'fs> {
    writer: Option<SdfFileWriter<'fs>>,
    /// Sum of block counts announced by WRITE_REQs so far.
    expected_blocks: u32,
    /// WRITE_REQs received (file is complete once every group client has
    /// announced and every announced block is written).
    reqs_received: usize,
    blocks_received: u32,
    blocks_written: u32,
    /// Blocks disposed of without reaching storage because the file
    /// failed (e.g. the tenant ran out of quota mid-snapshot). Counted so
    /// completion tracking still converges and the protocol stays live.
    blocks_dropped: u32,
    finished: bool,
    /// The file hit a per-tenant service failure; remaining blocks are
    /// dropped and the error is reported on the tenant's next sync.
    failed: bool,
}

/// Aggregate server statistics for experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    pub blocks_buffered: u64,
    pub blocks_written: u64,
    pub files_finished: u64,
    pub buffer_overflows: u64,
    pub restart_blocks_sent: u64,
}

/// Per-tenant drain telemetry: how long buffered blocks sat in the
/// server's queue before reaching storage. The fairness experiments
/// compare these across tenants — under deficit round-robin, equal
/// priority tenants should see comparable mean drain latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantDrainStats {
    /// Blocks drained to storage for this tenant.
    pub blocks: u64,
    /// Encoded bytes drained.
    pub bytes: u64,
    /// Sum of per-block (drain time − enqueue time), virtual seconds.
    pub total_latency: f64,
    /// Worst single-block queueing delay, virtual seconds.
    pub max_latency: f64,
}

impl TenantDrainStats {
    /// Mean per-block queueing delay (0 when nothing drained).
    pub fn mean_latency(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total_latency / self.blocks as f64
        }
    }
}

/// A block waiting in a tenant's drain queue.
struct Queued {
    key: FileKey,
    block: DataBlock,
    /// Encoded size, charged against the tenant's DRR deficit.
    size: u64,
    /// Wire size added to the server's buffer occupancy at intake; the
    /// drain subtracts exactly this, so occupancy returns to zero.
    intake_bytes: usize,
    /// Virtual time the block entered the queue (drain-latency stats).
    enqueued: f64,
}

/// A dedicated I/O server. Constructed by [`crate::init`] or the service
/// [`crate::PandaServiceBuilder`]; drive it with [`PandaServer::run`],
/// which returns after every tenant has initiated shutdown.
pub struct PandaServer<'a> {
    world: &'a Comm,
    /// Data-plane transport to the clients (raw, or reliable when
    /// `cfg.faulty_net` is set). Every protocol message goes through here.
    net: PandaNet<'a>,
    /// Communicator over the server group (restart-time coordination).
    /// Stays raw: fault injection targets context 0 only.
    server_comm: Comm,
    fs: &'a SharedFs,
    cfg: RocpandaConfig,
    server_index: usize,
    server_ranks: Vec<usize>,
    /// The admitted tenants, in admission order.
    tenants: Vec<TenantLane>,
    /// Client world rank → owning tenant.
    tenant_of_rank: HashMap<usize, TenantId>,
    files: HashMap<FileKey, FileState<'a>>,
    /// Per-tenant drain queues served deficit-round-robin.
    drain_queues: HashMap<TenantId, VecDeque<Queued>>,
    /// Tenants with queued blocks, in service order.
    drain_ring: VecDeque<TenantId>,
    /// DRR byte deficits (accumulate across rotations, so any block
    /// eventually drains regardless of size).
    drain_deficit: HashMap<TenantId, u64>,
    /// Total blocks across all drain queues.
    queued_total: usize,
    /// Buffer occupancy: the wire sizes of every queued block (zero
    /// exactly when the queues are empty).
    buffered_bytes: usize,
    /// (client world rank, file key) → blocks still expected from them.
    client_pending: HashMap<(usize, FileKey), u32>,
    /// Restart requests collected per file key.
    read_reqs: HashMap<FileKey, Vec<(usize, Vec<u64>)>>,
    /// Snapshot read cache: buffered block handles kept for restart
    /// service (read-your-writes). Populated at block intake when
    /// `cfg.read_cache` is on; the handles share payloads with the write
    /// queue by refcount, so the cache holds no extra copy of the data.
    /// Keyed by tenant-qualified [`FileKey`], so each tenant's partition
    /// is isolated. Evicted when the snapshot is retired.
    read_cache: HashMap<FileKey, HashMap<u64, DataBlock>>,
    /// Restart coordination: my recorded vote per restart round. One
    /// vote per key, computed at most once — on-demand when a peer's
    /// vote arrives early, otherwise when this server enters the round.
    voted: HashMap<CoordKey, bool>,
    /// Restart coordination: vote tally (count, AND) per round.
    votes: HashMap<CoordKey, (usize, bool)>,
    /// Restart coordination: rounds whose flush token we already sent.
    flushed: HashSet<CoordKey>,
    /// Restart coordination: flush tokens collected per round.
    tokens: HashMap<CoordKey, usize>,
    /// Completed restart rounds per file key (the coordination epoch).
    epochs: HashMap<FileKey, u32>,
    /// Sticky per-tenant drain failures, reported on the tenant's next
    /// sync and then cleared so the tenant can recover (e.g. by retiring
    /// old snapshots to release quota).
    tenant_errors: HashMap<TenantId, String>,
    /// Tenants that have initiated shutdown; the loop exits when all have.
    shutdowns: HashSet<TenantId>,
    /// Per-tenant drain latency telemetry.
    drain_stats: HashMap<TenantId, TenantDrainStats>,
    /// Reusable staging buffers for scatter-gather replies.
    pool: SegmentPool,
    /// Latest virtual completion time of any disk write this server
    /// issued. Background writes charge the server CPU only a submit
    /// cost; the disk ledger carries the transfer, and this watermark is
    /// merged into the clock at durability points (sync, restart,
    /// shutdown).
    disk_completion: f64,
    stats: ServerStats,
}

impl<'a> PandaServer<'a> {
    pub(crate) fn new(
        world: &'a Comm,
        server_comm: Comm,
        fs: &'a SharedFs,
        cfg: RocpandaConfig,
        server_index: usize,
        server_ranks: Vec<usize>,
        tenants: Vec<TenantLane>,
    ) -> Self {
        let mut tenant_of_rank = HashMap::new();
        for lane in &tenants {
            for &c in &lane.clients {
                tenant_of_rank.insert(c, lane.id);
            }
        }
        PandaServer {
            world,
            net: PandaNet::new(world, cfg.faulty_net.is_some()),
            server_comm,
            fs,
            cfg,
            server_index,
            server_ranks,
            tenants,
            tenant_of_rank,
            files: HashMap::new(),
            drain_queues: HashMap::new(),
            drain_ring: VecDeque::new(),
            drain_deficit: HashMap::new(),
            queued_total: 0,
            buffered_bytes: 0,
            client_pending: HashMap::new(),
            read_reqs: HashMap::new(),
            read_cache: HashMap::new(),
            voted: HashMap::new(),
            votes: HashMap::new(),
            flushed: HashSet::new(),
            tokens: HashMap::new(),
            epochs: HashMap::new(),
            tenant_errors: HashMap::new(),
            shutdowns: HashSet::new(),
            drain_stats: HashMap::new(),
            pool: SegmentPool::new(),
            disk_completion: 0.0,
            stats: ServerStats::default(),
        }
    }

    /// This server's index among the servers (names its output files).
    pub fn server_index(&self) -> usize {
        self.server_index
    }

    /// World ranks of the clients attached to this server, all tenants.
    pub fn client_ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .tenants
            .iter()
            .flat_map(|l| l.my_clients.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Per-tenant drain-latency telemetry, sorted by tenant id.
    pub fn drain_stats(&self) -> Vec<(TenantId, TenantDrainStats)> {
        let mut out: Vec<(TenantId, TenantDrainStats)> =
            self.drain_stats.iter().map(|(t, s)| (*t, *s)).collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }

    fn tenant_of(&self, rank: usize) -> Result<TenantId> {
        self.tenant_of_rank.get(&rank).copied().ok_or_else(|| {
            RocError::Comm(format!("panda server: message from unknown client rank {rank}"))
        })
    }

    fn lane(&self, tenant: TenantId) -> Result<&TenantLane> {
        self.tenants.iter().find(|l| l.id == tenant).ok_or_else(|| {
            RocError::InvalidState(format!("panda server: unknown tenant {tenant}"))
        })
    }

    fn weight_of(&self, tenant: TenantId) -> u64 {
        self.tenants
            .iter()
            .find(|l| l.id == tenant)
            .map_or(1, |l| u64::from(l.priority.weight()))
    }

    /// The server main loop (§6.1): handle requests, and between handling
    /// them write buffered blocks out. "When there are data to write,
    /// servers use the non-blocking MPI probe interface … when there are no
    /// data to write, the servers use the blocking probe interface, so that
    /// the server processes block until new client messages arrive and the
    /// operating system can use the server CPUs."
    pub fn run(&mut self) -> Result<ServerStats> {
        loop {
            let msg = if self.queued_total == 0 {
                // Idle: block until something arrives.
                let _ = self.net.probe(None, None);
                Some(self.net.recv(None, None)?)
            } else if self.cfg.responsive_probe {
                // Writing, but stay responsive: peek, else write one block.
                if self.net.iprobe(None, None).is_some() {
                    Some(self.net.recv(None, None)?)
                } else {
                    self.write_one()?;
                    None
                }
            } else {
                // Ablation: drain everything before looking at the network.
                while self.queued_total > 0 {
                    self.write_one()?;
                }
                None
            };
            if let Some(msg) = msg {
                if !self.handle(msg)? {
                    break;
                }
            }
        }
        // Degraded-fabric teardown. Every reply this server sent is
        // causally proven delivered (the shutdown barrier follows all
        // client exchanges), so pending retransmit state can be dropped;
        // then keep re-acking clients' trailing retransmissions until the
        // fabric goes quiet, so a draining client never stalls.
        self.net.abandon();
        self.net.linger(LINGER_QUIET);
        Ok(self.stats)
    }

    fn handle(&mut self, msg: Message) -> Result<bool> {
        match msg.tag {
            tag::WRITE_REQ => {
                let tenant = self.tenant_of(msg.src)?;
                let req = WriteReq::decode(&msg.payload)?;
                let key = FileKey {
                    tenant,
                    snap: req.snap,
                    window: req.window,
                };
                let st = self.files.entry(key.clone()).or_default();
                st.expected_blocks += req.n_blocks;
                st.reqs_received += 1;
                if req.n_blocks == 0 {
                    // Nothing coming from this client: release it now.
                    self.net.send(msg.src, tag::DONE, &[])?;
                } else {
                    self.client_pending.insert((msg.src, key.clone()), req.n_blocks);
                }
                self.maybe_finish(&key)?;
                Ok(true)
            }
            tag::BLOCK => {
                let tenant = self.tenant_of(msg.src)?;
                // Zero-copy intake: the buffered block's payloads are
                // refcounted windows into the message itself, so active
                // buffering holds exactly one copy of the data until the
                // drain stages it into the pooled write buffer.
                let bm = BlockMsg::decode_shared(&msg.payload.bytes())?;
                let key = FileKey {
                    tenant,
                    snap: bm.snap,
                    window: bm.window.clone(),
                };
                // Server CPU cost of taking the block in.
                let bytes = msg.payload.len();
                let t_fill0 = self.world.now();
                self.world.advance(
                    self.cfg.server_block_overhead + bytes as f64 / self.cfg.server_copy_bw,
                );
                self.files.entry(key.clone()).or_default().blocks_received += 1;
                if self.cfg.active_buffering {
                    self.buffered_bytes += bytes;
                    self.stats.blocks_buffered += 1;
                    if self.cfg.read_cache {
                        // Keep a handle for restart service. Payloads are
                        // shared with the queued block, so this is a
                        // refcount bump, not a data copy.
                        self.read_cache
                            .entry(key.clone())
                            .or_default()
                            .insert(bm.block.id.0, bm.block.clone());
                    }
                    self.enqueue(key.clone(), bm.block, bytes);
                    if rocobs::enabled() {
                        rocobs::record(
                            rocobs::SpanCategory::BufferFill,
                            "buffer_fill",
                            t_fill0,
                            self.world.now(),
                            &format!(
                                "bytes={bytes} occupancy={} queued={}",
                                self.buffered_bytes, self.queued_total
                            ),
                        );
                    }
                    // Graceful overflow: write old data out to make room.
                    while self.buffered_bytes > self.cfg.buffer_capacity && self.queued_total > 0 {
                        self.stats.buffer_overflows += 1;
                        self.write_one()?;
                    }
                } else {
                    self.write_checked(&key, &bm.block)?;
                }
                self.net.send(msg.src, tag::ACK, &[])?;
                let pending_key = (msg.src, key.clone());
                if let Some(rem) = self.client_pending.get_mut(&pending_key) {
                    *rem -= 1;
                    if *rem == 0 {
                        self.client_pending.remove(&pending_key);
                        self.net.send(msg.src, tag::DONE, &[])?;
                    }
                }
                self.maybe_finish(&key)?;
                Ok(true)
            }
            tag::SYNC => {
                let tenant = self.tenant_of(msg.src)?;
                self.flush_all()?;
                // Durability is reported in the payload rather than by
                // advancing this server's clock: another client may still
                // be mid-write, and charging the shared clock with disk
                // time would inflate its acknowledgement stamps. A sticky
                // drain failure for the syncing tenant is reported here —
                // and cleared, so the tenant can recover by releasing
                // quota (retire) and retrying.
                let reply = match self.tenant_errors.remove(&tenant) {
                    Some(text) => Err(text),
                    None => Ok(self.disk_completion),
                };
                self.net
                    .send(msg.src, tag::SYNC_ACK, &wire::encode_sync_ack(&reply))?;
                Ok(true)
            }
            tag::READ_REQ => {
                let tenant = self.tenant_of(msg.src)?;
                let req = ReadReq::decode(&msg.payload)?;
                let key = FileKey {
                    tenant,
                    snap: req.snap,
                    window: req.window,
                };
                let n_clients = self.lane(tenant)?.clients.len();
                let entry = self.read_reqs.entry(key.clone()).or_default();
                entry.push((msg.src, req.ids));
                if entry.len() == n_clients {
                    self.serve_restart(&key)?;
                }
                Ok(true)
            }
            tag::RETIRE => {
                let tenant = self.tenant_of(msg.src)?;
                let snap = wire::decode_retire(&msg.payload)?;
                // Deleting requires durability of that snapshot first.
                self.flush_all()?;
                self.read_cache
                    .retain(|k, _| !(k.tenant == tenant && k.snap == snap));
                let mut keys: Vec<FileKey> = self
                    .files
                    .keys()
                    .filter(|k| k.tenant == tenant && k.snap == snap)
                    .cloned()
                    .collect();
                // Deterministic deletion order: the map's iteration order
                // must not leak into file-system operation order.
                keys.sort_unstable();
                for key in keys {
                    let Some(st) = self.files.get(&key) else {
                        continue;
                    };
                    if st.finished {
                        let path =
                            self.cfg
                                .path_for(key.tenant, &key.window, key.snap, self.server_index);
                        if self.fs.exists(&path) {
                            self.fs.delete(&path)?;
                        }
                        self.files.remove(&key);
                    }
                }
                self.net.send(msg.src, tag::RETIRE_ACK, &[])?;
                Ok(true)
            }
            tag::SHUTDOWN => {
                let tenant = self.tenant_of(msg.src)?;
                self.flush_all()?;
                self.shutdowns.insert(tenant);
                // Stay up until every admitted tenant has shut down.
                Ok(self.shutdowns.len() < self.tenants.len())
            }
            other => Err(RocError::Comm(format!(
                "panda server: unexpected tag {other:#x} from rank {}",
                msg.src
            ))),
        }
    }

    /// Queue a buffered block on its tenant's drain lane.
    fn enqueue(&mut self, key: FileKey, block: DataBlock, intake_bytes: usize) {
        let tenant = key.tenant;
        let item = Queued {
            size: block.encoded_size() as u64,
            intake_bytes,
            enqueued: self.world.now(),
            key,
            block,
        };
        let q = self.drain_queues.entry(tenant).or_default();
        if q.is_empty() && !self.drain_ring.contains(&tenant) {
            self.drain_ring.push_back(tenant);
        }
        q.push_back(item);
        self.queued_total += 1;
    }

    /// Deficit-round-robin pick: serve the ring-head tenant if its
    /// accumulated deficit covers its oldest block, otherwise top the
    /// deficit up by one priority-weighted quantum and rotate. Deficits
    /// persist across rotations, so a block larger than any quantum still
    /// drains after finitely many rounds — no tenant starves.
    fn pop_next(&mut self) -> Option<Queued> {
        loop {
            let tenant = *self.drain_ring.front()?;
            let head_size = match self.drain_queues.get(&tenant).and_then(|q| q.front()) {
                Some(item) => item.size,
                None => {
                    // Lane drained: retire it from the ring (and forget
                    // its deficit — credit must not accumulate while idle).
                    self.drain_ring.pop_front();
                    self.drain_queues.remove(&tenant);
                    self.drain_deficit.remove(&tenant);
                    continue;
                }
            };
            let quantum = self.weight_of(tenant) * DRR_QUANTUM;
            let deficit = self.drain_deficit.entry(tenant).or_insert(0);
            if *deficit >= head_size {
                *deficit -= head_size;
                if let Some(item) = self.drain_queues.get_mut(&tenant).and_then(|q| q.pop_front())
                {
                    self.queued_total -= 1;
                    return Some(item);
                }
            } else {
                *deficit += quantum;
                self.drain_ring.rotate_left(1);
            }
        }
    }

    /// Write the oldest eligible buffered block out (DRR across tenants).
    fn write_one(&mut self) -> Result<()> {
        if let Some(item) = self.pop_next() {
            let t0 = self.world.now();
            let bytes = item.block.encoded_size();
            self.buffered_bytes -= item.intake_bytes;
            self.write_checked(&item.key, &item.block)?;
            let latency = self.world.now() - item.enqueued;
            let ds = self.drain_stats.entry(item.key.tenant).or_default();
            ds.blocks += 1;
            ds.bytes += bytes as u64;
            ds.total_latency += latency;
            ds.max_latency = ds.max_latency.max(latency);
            if rocobs::enabled() {
                rocobs::record(
                    rocobs::SpanCategory::BufferDrain,
                    "buffer_drain",
                    t0,
                    self.world.now(),
                    &format!(
                        "bytes={bytes} occupancy={} queued={}",
                        self.buffered_bytes, self.queued_total
                    ),
                );
            }
            self.maybe_finish(&item.key)?;
        }
        Ok(())
    }

    /// Write a block, absorbing per-tenant service failures: a quota
    /// rejection marks the file failed, records a sticky error for the
    /// tenant's next sync, and drops this and all remaining blocks of the
    /// file — the protocol (ACK/DONE) stays live so no client hangs, and
    /// other tenants are untouched. Non-service errors still propagate.
    fn write_checked(&mut self, key: &FileKey, block: &DataBlock) -> Result<()> {
        if self.files.get(key).is_some_and(|st| st.failed) {
            if let Some(st) = self.files.get_mut(key) {
                st.blocks_dropped += 1;
            }
            return Ok(());
        }
        match self.write_block(key, block) {
            Ok(()) => Ok(()),
            Err(RocError::Service(se)) => {
                self.tenant_errors
                    .entry(key.tenant)
                    .or_insert_with(|| se.to_string());
                let st = self.files.entry(key.clone()).or_default();
                st.failed = true;
                st.blocks_dropped += 1;
                // Abandon the partial writer: finishing it would charge
                // yet more bytes to an exhausted quota.
                st.writer = None;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn write_block(&mut self, key: &FileKey, block: &DataBlock) -> Result<()> {
        let path = self
            .cfg
            .path_for(key.tenant, &key.window, key.snap, self.server_index);
        let client_id = self.world.global_rank() as u64;
        // All dedicated servers write concurrently.
        self.fs.declare_writers(self.server_ranks.len());
        // CPU submit cost: encode + hand the bytes to the file system.
        let t_submit0 = self.world.now();
        self.world
            .advance(block.encoded_size() as f64 / self.cfg.server_copy_bw);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::DiskSubmit,
                "disk_submit",
                t_submit0,
                self.world.now(),
                &format!("bytes={}", block.encoded_size()),
            );
        }
        let synchronous = !self.cfg.active_buffering;
        let st = self.files.entry(key.clone()).or_default();
        if st.writer.is_none() {
            let (w, t) =
                SdfFileWriter::create(self.fs, &path, self.cfg.lib, client_id, self.world.now())?;
            self.disk_completion = self.disk_completion.max(t);
            st.writer = Some(w);
        }
        let writer = st.writer.as_mut().ok_or_else(|| {
            RocError::InvalidState("panda server: writer missing after creation".into())
        })?;
        let t = writer.append_block(block, self.world.now())?;
        self.disk_completion = self.disk_completion.max(t);
        if synchronous {
            // Write-through mode (ablation): the block is durable before
            // the server acknowledges it.
            self.world.clock().merge(t);
        }
        st.blocks_written += 1;
        self.stats.blocks_written += 1;
        Ok(())
    }

    /// Finish (index + close) a file once every group client has announced
    /// and every announced block is on disk (or dropped, for a failed
    /// file). A failed file is marked finished so retire can reap it, but
    /// its writer was abandoned and it does not count as finished output.
    fn maybe_finish(&mut self, key: &FileKey) -> Result<()> {
        let group = self.lane(key.tenant)?.my_clients.len();
        let Some(st) = self.files.get_mut(key) else {
            return Ok(());
        };
        if !st.finished
            && st.reqs_received == group
            && st.blocks_written + st.blocks_dropped == st.expected_blocks
        {
            if let Some(mut w) = st.writer.take() {
                let t = w.finish(self.world.now())?;
                self.disk_completion = self.disk_completion.max(t);
                if !self.cfg.active_buffering {
                    self.world.clock().merge(t);
                }
            }
            st.finished = true;
            if !st.failed {
                self.stats.files_finished += 1;
            }
        }
        Ok(())
    }

    /// Drain every tenant's buffer and finish every completable file.
    /// Durability is tracked in `disk_completion`; the server clock is
    /// deliberately not advanced (see the SYNC handler).
    fn flush_all(&mut self) -> Result<()> {
        while self.queued_total > 0 {
            self.write_one()?;
        }
        let mut keys: Vec<FileKey> = self.files.keys().cloned().collect();
        // Deterministic finish order: index/trailer writes hit the file
        // system in key order, not the map's iteration order.
        keys.sort_unstable();
        for key in keys {
            self.maybe_finish(&key)?;
        }
        Ok(())
    }

    /// Collective restart: every one of this tenant's clients' id lists
    /// is in. Coordinate the cache-vs-disk decision with the peer
    /// servers, then ship requested blocks to their owners (§4.1).
    ///
    /// Failures (missing, truncated or corrupted files) are *reported* to
    /// the requesting clients as `READ_ERR` rather than propagated: the
    /// clients surface the error from `read_attribute` and this server
    /// stays alive to serve the eventual sync/shutdown, so nobody hangs.
    fn serve_restart(&mut self, key: &FileKey) -> Result<()> {
        let requests = self.read_reqs.remove(key).ok_or_else(|| {
            RocError::InvalidState("serve_restart called with no queued read requests".into())
        })?;
        let m = self.server_ranks.len();
        let epoch = self.epochs.get(key).copied().unwrap_or(0);
        let vk = key.coord(epoch);
        // All-or-nothing cache decision. The vote is keyed by (tenant,
        // snapshot, window, epoch) and collected in a wait loop that
        // answers *other* rounds' coordination on receipt — so two
        // servers entering different tenants' restarts in opposite orders
        // cannot deadlock, and votes from concurrent rounds never mix.
        self.ensure_voted(&vk)?;
        let mut wait = Ok(());
        while wait.is_ok() && self.votes.get(&vk).map_or(0, |v| v.0) < m {
            wait = self
                .server_comm
                .recv(None, None)
                .and_then(|msg| self.handle_coord(msg));
        }
        let from_cache = self.votes.get(&vk).is_some_and(|v| v.1);
        let result = if wait.is_err() {
            wait
        } else if from_cache {
            // Fast path: every server still buffers its clients' whole
            // share of this snapshot — serve from memory, no flush, no
            // disk scan, no flush tokens (the vote itself is the
            // synchronization point).
            self.serve_from_cache(key, &requests)
        } else {
            // Disk path. The round-robin file assignment makes a server
            // read files that *other* servers wrote, so every server must
            // have flushed before anyone scans. Each server flushes, then
            // trades keyed flush tokens — reached even when the flush
            // failed, so a sibling waiting on our token cannot deadlock
            // on our error.
            let prep = self.ensure_flushed(&vk);
            let mut wait = Ok(());
            while wait.is_ok() && self.tokens.get(&vk).copied().unwrap_or(0) < m {
                wait = self
                    .server_comm
                    .recv(None, None)
                    .and_then(|msg| self.handle_coord(msg));
            }
            prep.and(wait).and_then(|_| self.scan_and_ship(key, &requests))
        };
        // The round is over on every server that reaches this point:
        // retire its coordination state and open the next epoch.
        self.voted.remove(&vk);
        self.votes.remove(&vk);
        self.flushed.remove(&vk);
        self.tokens.remove(&vk);
        *self.epochs.entry(key.clone()).or_insert(0) += 1;
        if let Err(e) = result {
            let text = e.to_string();
            for (client, _) in &requests {
                self.net.send(*client, tag::READ_ERR, text.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Record and broadcast this server's vote for one restart round, at
    /// most once. Safe to run early (when a peer's vote arrives before we
    /// have all our READ_REQs): a tenant's clients only request a restart
    /// after their writes completed, so this server's state for the key
    /// is already final when any peer can be voting.
    fn ensure_voted(&mut self, vk: &CoordKey) -> Result<()> {
        if self.voted.contains_key(vk) {
            return Ok(());
        }
        let key = FileKey {
            tenant: vk.tenant,
            snap: vk.snap,
            window: vk.window.clone(),
        };
        let mine = self.can_serve_restart_from_cache(&key);
        self.voted.insert(vk.clone(), mine);
        for r in 0..self.server_ranks.len() {
            if r != self.server_comm.rank() {
                self.server_comm.send(r, tag::CACHE_VOTE, &wire::encode_cache_vote(vk, mine))?;
            }
        }
        let tally = self.votes.entry(vk.clone()).or_insert((0, true));
        tally.0 += 1;
        tally.1 &= mine;
        Ok(())
    }

    /// Flush for one restart round and broadcast its token, at most once.
    /// The token always goes out — even on a flush error — so a peer
    /// blocked on it cannot deadlock; it will surface the same storage
    /// error from its own scan. The disk watermark is merged into the
    /// clock *before* the send, so every collected token carries its
    /// sender's durability point.
    fn ensure_flushed(&mut self, vk: &CoordKey) -> Result<()> {
        if !self.flushed.insert(vk.clone()) {
            return Ok(());
        }
        let res = self.flush_all();
        self.world.clock().merge(self.disk_completion);
        for r in 0..self.server_ranks.len() {
            if r != self.server_comm.rank() {
                self.server_comm.send(r, tag::FLUSH_TOKEN, &wire::encode_flush_token(vk))?;
            }
        }
        *self.tokens.entry(vk.clone()).or_insert(0) += 1;
        res
    }

    /// Dispatch one server↔server coordination message. Called from any
    /// round's wait loop: a vote for a round we haven't entered is
    /// answered immediately (vote-on-receipt), and a flush token for a
    /// round we haven't flushed triggers our flush now — both are what
    /// break the cross-tenant wait cycles.
    fn handle_coord(&mut self, msg: Message) -> Result<()> {
        match msg.tag {
            tag::CACHE_VOTE => {
                let (vk, vote) = wire::decode_cache_vote(&msg.payload)?;
                self.ensure_voted(&vk)?;
                let tally = self.votes.entry(vk).or_insert((0, true));
                tally.0 += 1;
                tally.1 &= vote;
                Ok(())
            }
            tag::FLUSH_TOKEN => {
                let vk = wire::decode_flush_token(&msg.payload)?;
                // A peer only flushes after a failed vote, so this round
                // is going to disk: flush our share now.
                self.ensure_flushed(&vk)?;
                *self.tokens.entry(vk).or_insert(0) += 1;
                Ok(())
            }
            other => Err(RocError::Comm(format!(
                "panda server: unexpected server-group tag {other:#x} from {}",
                msg.src
            ))),
        }
    }

    /// Can this server serve its share of a restart of `key` entirely
    /// from buffered block handles? True only when every block announced
    /// by this server's clients *of this tenant* is sitting in the read
    /// cache (vacuously true for a server with none of the tenant's
    /// clients, which owns no share).
    fn can_serve_restart_from_cache(&self, key: &FileKey) -> bool {
        if !(self.cfg.active_buffering && self.cfg.read_cache) {
            return false;
        }
        let group = self
            .tenants
            .iter()
            .find(|l| l.id == key.tenant)
            .map_or(0, |l| l.my_clients.len());
        match self.files.get(key) {
            Some(st) => {
                let cached = self.read_cache.get(key).map_or(0, |c| c.len() as u32);
                !st.failed
                    && st.reqs_received == group
                    && st.blocks_received == st.expected_blocks
                    && cached == st.expected_blocks
            }
            // Never heard of the snapshot: fine only if nobody could have
            // written through us.
            None => group == 0,
        }
    }

    /// Serve the whole restart from this server's snapshot read cache:
    /// no disk at all. Each requesting client gets its blocks batched in
    /// a single zero-copy `READ_BATCH` message, then `READ_DONE` with the
    /// count. The modelled cost per block mirrors intake: per-block
    /// overhead plus a memory copy to stage the reply.
    fn serve_from_cache(&mut self, key: &FileKey, requests: &[(usize, Vec<u64>)]) -> Result<()> {
        // Same ownership validation as the disk path. Every server sees
        // every client's request, so a violation is raised symmetrically.
        let mut owner: HashMap<u64, usize> = HashMap::new();
        for (client, ids) in requests {
            for id in ids {
                if owner.insert(*id, *client).is_some() {
                    return Err(RocError::InvalidState(format!(
                        "restart: block {id} requested by two clients"
                    )));
                }
            }
        }
        let cache = self.read_cache.get(key);
        for (client, ids) in requests {
            let t0 = self.world.now();
            let mut msgs: Vec<BlockMsg> = Vec::new();
            for id in ids {
                let Some(block) = cache.and_then(|c| c.get(id)) else {
                    continue;
                };
                self.world.advance(
                    self.cfg.server_block_overhead
                        + block.encoded_size() as f64 / self.cfg.server_copy_bw,
                );
                msgs.push(BlockMsg {
                    snap: key.snap,
                    window: key.window.clone(),
                    block: block.clone(),
                });
            }
            if !msgs.is_empty() {
                let mut segs = Vec::new();
                wire::encode_read_batch_segments(&msgs, &mut self.pool, &mut segs);
                self.net.send_segments(*client, tag::READ_BATCH, &segs)?;
                self.pool.recycle(&mut segs);
                if rocobs::enabled() {
                    rocobs::record(
                        rocobs::SpanCategory::RestartRead,
                        "restart_cache_serve",
                        t0,
                        self.world.now(),
                        &format!("client={client} blocks={}", msgs.len()),
                    );
                }
            }
            self.stats.restart_blocks_sent += msgs.len() as u64;
            self.net
                .send(*client, tag::READ_DONE, &wire::encode_read_done(msgs.len() as u32))?;
        }
        Ok(())
    }

    /// The fallible part of [`Self::serve_restart`]: scan this server's
    /// file share and ship requested blocks, ending each client with
    /// `READ_DONE`.
    fn scan_and_ship(&mut self, key: &FileKey, requests: &[(usize, Vec<u64>)]) -> Result<()> {
        // All servers scan their file shares concurrently.
        self.fs.declare_readers(self.server_ranks.len());
        self.fs.declare_writers(0);
        // Block id → requesting client.
        let mut owner: HashMap<u64, usize> = HashMap::new();
        for (client, ids) in requests {
            for id in ids {
                if owner.insert(*id, *client).is_some() {
                    return Err(RocError::InvalidState(format!(
                        "restart: block {id} requested by two clients"
                    )));
                }
            }
        }
        // "The restart files are assigned to the servers in a round-robin
        // manner."
        let files = self
            .fs
            .list(&self.cfg.prefix_for(key.tenant, &key.window, key.snap));
        if files.is_empty() {
            return Err(RocError::Storage(format!(
                "restart: no files for {}/{}",
                key.window, key.snap
            )));
        }
        let m = self.server_ranks.len();
        let client_id = self.world.global_rank() as u64;
        // Per-client share of the blocks this server read, accumulated
        // across its file domains and shipped as one READ_BATCH each.
        let mut per_client: HashMap<usize, Vec<BlockMsg>> = HashMap::new();
        for (i, path) in files.iter().enumerate() {
            if i % m != self.server_index {
                continue;
            }
            let (reader, t) =
                SdfFileReader::open(self.fs, path, self.cfg.lib, client_id, self.world.now())?;
            self.world.clock().merge(t);
            let present: Vec<BlockId> = reader
                .block_ids()
                .into_iter()
                .filter(|id| owner.contains_key(&id.0))
                .collect();
            if present.is_empty() {
                continue;
            }
            // Sieved batch read: the whole requested span of this file
            // comes back in as few covering disk reads as the hole
            // density allows, each block still a set of refcounted
            // windows into the file image (no copies).
            let (blocks, t) = reader.read_blocks_sieved(&present, self.world.now())?;
            self.world.clock().merge(t);
            for block in blocks {
                let client = owner[&block.id.0];
                per_client.entry(client).or_default().push(BlockMsg {
                    snap: key.snap,
                    window: key.window.clone(),
                    block,
                });
            }
        }
        for (client, _) in requests {
            let n = match per_client.get(client) {
                Some(msgs) if !msgs.is_empty() => {
                    let mut segs = Vec::new();
                    wire::encode_read_batch_segments(msgs, &mut self.pool, &mut segs);
                    self.net.send_segments(*client, tag::READ_BATCH, &segs)?;
                    self.pool.recycle(&mut segs);
                    self.stats.restart_blocks_sent += msgs.len() as u64;
                    msgs.len() as u32
                }
                _ => 0,
            };
            self.net
                .send(*client, tag::READ_DONE, &wire::encode_read_done(n))?;
        }
        Ok(())
    }
}
