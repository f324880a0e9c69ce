//! The shared file system: real bytes, modelled time.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rocio_core::lockdep::Mutex;
use rocio_core::{Result, RocError, ServiceError, ServiceErrorKind, SimTime, TenantId};

use crate::model::DiskModel;

/// Opaque value stored in the per-client metadata cache (see
/// [`SharedFs::cache_put`]); callers downcast to their own type.
pub type CacheValue = Arc<dyn Any + Send + Sync>;

/// Aggregate statistics of a file system instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FsStats {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub write_ops: u64,
    pub read_ops: u64,
    pub files_created: u64,
}

#[derive(Default)]
struct ServerState {
    /// Total service time accumulated by writes (diagnostics).
    busy_time: SimTime,
    /// Latest virtual write-completion time seen (diagnostics).
    last_completion: SimTime,
    /// client -> virtual end time of its last write.
    write_activity: HashMap<u64, SimTime>,
    /// client -> virtual end time of its last read.
    read_activity: HashMap<u64, SimTime>,
}

impl ServerState {
    fn count_active(map: &mut HashMap<u64, SimTime>, client: u64, now: SimTime, window: SimTime) -> usize {
        map.retain(|_, &mut end| end > now - window);
        let mut n = map.len();
        if !map.contains_key(&client) {
            n += 1;
        }
        n
    }
}

/// Backing bytes of one file: a rope of refcounted parts in file order.
///
/// Appends keep what they are handed: [`SharedFs::append_segments`] adopts
/// shared payload views by refcount (owned header runs are copied once,
/// into one arena per call) and [`SharedFs::append`] pushes one copied
/// part. [`SharedFs::reorder`] permutes the file by re-slicing its parts,
/// without a copy. The first read after a mutation flattens the rope
/// once into a single part — the frozen image read windows are sliced
/// from — and `write_at`/`rewrite_image` work on a flattened copy.
///
/// A stored part keeps its whole source buffer (a message, an arena)
/// alive until the file is flattened or deleted. Parts are immutable, so
/// windows handed out earlier keep their bytes across any later
/// mutation or deletion.
#[derive(Default)]
struct FileData {
    /// Non-empty parts; exactly one after a flatten.
    parts: Vec<Bytes>,
    /// Sum of the parts' lengths.
    len: usize,
}

impl FileData {
    fn len(&self) -> usize {
        self.len
    }

    /// Append one part (empty parts are dropped).
    fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.len += part.len();
            self.parts.push(part);
        }
    }

    /// Append a segment list as parts
    /// ([`rocio_core::segments_to_parts`]).
    fn push_segments(&mut self, segments: &[rocio_core::Segment]) {
        self.parts.extend(rocio_core::segments_to_parts(segments));
        self.len += rocio_core::segments_len(segments);
    }

    /// The file as one contiguous buffer, flattening the rope on the first
    /// call after a mutation (later calls are O(1)).
    fn image(&mut self) -> Bytes {
        if self.parts.len() > 1 {
            self.parts = vec![rocio_core::flatten_parts(&self.parts)];
        }
        self.parts.first().cloned().unwrap_or_default()
    }

    /// Replace the contents with one owned buffer.
    fn set(&mut self, v: Vec<u8>) {
        *self = FileData::default();
        self.push(Bytes::from(v));
    }

    /// Replace the file with the concatenation of `ranges` of itself, in
    /// the given order, by slicing parts (no byte is copied). The ranges
    /// must tile `0..len` exactly — a permutation, not a rewrite.
    fn reorder(&mut self, ranges: &[(usize, usize)]) -> std::result::Result<(), String> {
        let mut sorted = ranges.to_vec();
        sorted.sort_unstable();
        let mut cursor = 0;
        for &(offset, len) in &sorted {
            if offset != cursor {
                return Err(format!("ranges leave a gap or overlap at byte {cursor}"));
            }
            cursor = cursor
                .checked_add(len)
                .ok_or_else(|| format!("range ({offset}, {len}) overflows"))?;
        }
        if cursor != self.len {
            return Err(format!("ranges cover {cursor} of {} bytes", self.len));
        }
        let mut starts = Vec::with_capacity(self.parts.len());
        let mut at = 0;
        for p in &self.parts {
            starts.push(at);
            at += p.len();
        }
        let mut parts = Vec::with_capacity(self.parts.len() + ranges.len());
        for &(offset, len) in ranges {
            let (mut pos, end) = (offset, offset + len);
            let mut i = starts.partition_point(|&s| s <= pos).saturating_sub(1);
            while pos < end {
                let (start, part) = (starts[i], &self.parts[i]);
                let stop = end.min(start + part.len());
                parts.push(part.slice(pos - start..stop - start));
                pos = stop;
                i += 1;
            }
        }
        self.parts = parts;
        Ok(())
    }
}

struct StoredFile {
    data: FileData,
    /// Monotone id refreshed from a global counter on every mutation;
    /// validates metadata-cache entries. Never reused, so delete +
    /// recreate cannot alias an old entry.
    generation: u64,
    /// The tenant this file's bytes are charged to (resolved from the
    /// ledger's prefix bindings when the file was created).
    tenant: TenantId,
    /// Bytes currently charged against `tenant` for this file. Mirrors
    /// `data.len()` exactly (appends/extensions charge, delete/truncate
    /// release), so the ledger's totals are O(1)-consistent with the map.
    charged: u64,
}

/// One tenant's quota account.
#[derive(Debug, Clone, Copy)]
struct TenantAccount {
    /// Byte ceiling; `u64::MAX` = unlimited.
    limit: u64,
    /// Bytes currently charged.
    used: u64,
}

impl Default for TenantAccount {
    fn default() -> Self {
        TenantAccount { limit: u64::MAX, used: 0 }
    }
}

/// The per-tenant quota ledger.
///
/// Lives in its own mutex (`rocstore.ledger`, nested strictly under
/// `rocstore.files`): every mutation path locks the file map first, then
/// check-and-charges the ledger *inside* that critical section, so a
/// quota check can never race another writer's charge — the disk-full
/// decision and the byte accounting are one atomic step.
#[derive(Default)]
struct Ledger {
    /// `(path-prefix, tenant)` namespace bindings; the longest matching
    /// prefix wins, unmatched paths belong to [`TenantId::SOLO`].
    bindings: Vec<(String, TenantId)>,
    accounts: HashMap<TenantId, TenantAccount>,
    /// Legacy aggregate cap installed by [`SharedFs::set_quota`];
    /// `u64::MAX` = unlimited. Applies across all tenants.
    aggregate_limit: u64,
    /// Sum of all accounts' `used` (kept denormalized for O(1) stat).
    total_used: u64,
}

impl Ledger {
    fn new() -> Self {
        Ledger { aggregate_limit: u64::MAX, ..Ledger::default() }
    }

    /// Which tenant owns `path` under the current bindings.
    fn tenant_of(&self, path: &str) -> TenantId {
        self.bindings
            .iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|&(_, t)| t)
            .unwrap_or(TenantId::SOLO)
    }

    /// Check both the tenant's own ceiling and the aggregate cap, then
    /// charge. Returns a structured quota error without mutating on
    /// rejection.
    fn charge(&mut self, tenant: TenantId, bytes: u64) -> Result<()> {
        let acct = self.accounts.entry(tenant).or_default();
        if acct.limit != u64::MAX && acct.used + bytes > acct.limit {
            return Err(ServiceError::err(
                tenant,
                ServiceErrorKind::QuotaExceeded {
                    limit: acct.limit,
                    used: acct.used,
                    requested: bytes,
                },
            ));
        }
        if self.aggregate_limit != u64::MAX && self.total_used + bytes > self.aggregate_limit {
            // The *store* is full, not the tenant's account: no tenant
            // attribution (blame would land on whichever tenant happened
            // to write last), plain storage error like a real full disk.
            return Err(RocError::Storage(format!(
                "disk full: {} bytes used of {}, {bytes} requested",
                self.total_used, self.aggregate_limit
            )));
        }
        acct.used += bytes;
        self.total_used += bytes;
        Ok(())
    }

    fn release(&mut self, tenant: TenantId, bytes: u64) {
        if let Some(acct) = self.accounts.get_mut(&tenant) {
            acct.used = acct.used.saturating_sub(bytes);
        }
        self.total_used = self.total_used.saturating_sub(bytes);
    }
}

/// A shared parallel file system with `n` storage servers.
///
/// Files are assigned to servers by a stable hash of their path. Writes
/// are served **processor-sharing** style: with `w` concurrent writers,
/// each op's service time is `(seek + bytes/bw) · w · thrash(w)`, so the
/// server's aggregate bandwidth is bounded by `bw / thrash(w)` while the
/// result stays independent of operation arrival order — essential for
/// deterministic virtual times when the host serializes rank threads
/// arbitrarily. Reads are served concurrently (client-side caching,
/// read-ahead) under a milder direct contention curve.
///
/// All timing is virtual: operations take and return [`SimTime`]s and never
/// sleep. All contents are real: bytes written are the bytes read back.
pub struct SharedFs {
    model: DiskModel,
    servers: Vec<Mutex<ServerState>>,
    files: Mutex<HashMap<String, StoredFile>>,
    stats: Mutex<FsStats>,
    /// Source of file generations; bumped on every mutation of any file.
    next_generation: AtomicU64,
    /// (client, path) -> (generation, value). Parsed-metadata cache
    /// (e.g. decoded SDF indexes); see [`SharedFs::cache_put`].
    meta_cache: Mutex<HashMap<(u64, String), (u64, CacheValue)>>,
    /// Caller-declared concurrent-writer count (see
    /// [`SharedFs::declare_writers`]); 0 = rely on the activity window.
    write_hint: AtomicUsize,
    /// Caller-declared concurrent-reader count.
    read_hint: AtomicUsize,
    /// Per-tenant quota ledger (plus the legacy aggregate cap). Writes
    /// that would exceed a ceiling fail with [`RocError::Service`]
    /// carrying a [`ServiceErrorKind::QuotaExceeded`] — disk-full
    /// injection, per tenant.
    ledger: Mutex<Ledger>,
}

impl SharedFs {
    /// A file system with `n_servers` servers of the given model.
    pub fn new(model: DiskModel, n_servers: usize) -> Self {
        assert!(n_servers >= 1, "need at least one storage server");
        SharedFs {
            model,
            servers: (0..n_servers)
                .map(|_| Mutex::new("rocstore.server", ServerState::default()))
                .collect(),
            files: Mutex::new("rocstore.files", HashMap::new()),
            stats: Mutex::new("rocstore.stats", FsStats::default()),
            next_generation: AtomicU64::new(0),
            meta_cache: Mutex::new("rocstore.meta_cache", HashMap::new()),
            write_hint: AtomicUsize::new(0),
            read_hint: AtomicUsize::new(0),
            ledger: Mutex::new("rocstore.ledger", Ledger::new()),
        }
    }

    /// Impose an aggregate capacity limit in bytes across all tenants
    /// (disk-full injection). Existing contents count against it.
    /// Per-tenant ceilings are set with [`SharedFs::set_tenant_quota`].
    pub fn set_quota(&self, bytes: usize) {
        self.ledger.lock().aggregate_limit = bytes as u64;
    }

    /// Set one tenant's byte ceiling (`u64::MAX` = unlimited). Charges
    /// already on the books stay; only future writes are checked against
    /// the new limit.
    pub fn set_tenant_quota(&self, tenant: TenantId, bytes: u64) {
        self.ledger.lock().accounts.entry(tenant).or_default().limit = bytes;
    }

    /// Bind a path prefix to a tenant: files created under the prefix are
    /// charged to that tenant's ledger account. The longest matching
    /// prefix wins; unmatched paths belong to [`TenantId::SOLO`].
    pub fn bind_tenant(&self, prefix: &str, tenant: TenantId) {
        let mut ledger = self.ledger.lock();
        ledger.bindings.retain(|(p, _)| p != prefix);
        ledger.bindings.push((prefix.to_string(), tenant));
    }

    /// Drop a prefix binding (e.g. when a job retires). Files already
    /// created keep their recorded tenant until deleted.
    pub fn unbind_tenant(&self, prefix: &str) {
        self.ledger.lock().bindings.retain(|(p, _)| p != prefix);
    }

    /// Total bytes currently stored (O(1): the ledger's running total).
    pub fn used_bytes(&self) -> usize {
        self.ledger.lock().total_used as usize
    }

    /// Bytes currently charged to one tenant.
    pub fn tenant_used(&self, tenant: TenantId) -> u64 {
        self.ledger.lock().accounts.get(&tenant).map(|a| a.used).unwrap_or(0)
    }

    /// Which tenant a path would be charged to under current bindings.
    pub fn tenant_of(&self, path: &str) -> TenantId {
        self.ledger.lock().tenant_of(path)
    }

    fn next_gen(&self) -> u64 {
        self.next_generation.fetch_add(1, Ordering::Relaxed)
    }

    /// Declare how many clients are writing concurrently (in virtual
    /// time). The activity-window heuristic under-counts when the host
    /// serializes rank threads, so collective I/O layers — which know
    /// their own parallelism — declare it explicitly; contention is then
    /// `max(declared, observed)`. Pass 0 to reset.
    pub fn declare_writers(&self, n: usize) {
        self.write_hint.store(n, Ordering::Relaxed);
    }

    /// Declare how many clients are reading concurrently; see
    /// [`SharedFs::declare_writers`].
    pub fn declare_readers(&self, n: usize) {
        self.read_hint.store(n, Ordering::Relaxed);
    }

    /// Turing's shared file system: NFS through a single server.
    pub fn turing() -> Self {
        SharedFs::new(DiskModel::nfs_turing(), 1)
    }

    /// Frost's GPFS: two server nodes.
    pub fn frost() -> Self {
        SharedFs::new(DiskModel::gpfs_frost(), 2)
    }

    /// An effectively free file system for semantics-only tests.
    pub fn ideal() -> Self {
        SharedFs::new(DiskModel::ideal(), 1)
    }

    /// The disk model in use.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Number of storage servers.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    fn server_of(&self, path: &str) -> usize {
        // FNV-1a over the path, stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.servers.len() as u64) as usize
    }

    /// Charge a write of `bytes` to `path`'s server and return its virtual
    /// completion time (processor sharing — see the type docs).
    fn charge_write(&self, path: &str, bytes: usize, client: u64, now: SimTime) -> SimTime {
        let mut srv = self.servers[self.server_of(path)].lock();
        // The declared hint counts writers across the whole file system;
        // each server sees its share.
        let hinted = self.write_hint.load(Ordering::Relaxed).div_ceil(self.servers.len());
        let active =
            ServerState::count_active(&mut srv.write_activity, client, now, self.model.activity_window)
                .max(hinted);
        let dur = self.model.write_time(bytes, active);
        let end = now + dur;
        srv.busy_time += dur;
        srv.last_completion = srv.last_completion.max(end);
        srv.write_activity.insert(client, end);
        drop(srv);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::DiskWrite,
                "disk_write",
                now,
                end,
                &format!("path={path} bytes={bytes} active={active}"),
            );
        }
        end
    }

    /// Charge a read of `bytes` from `path`'s server and return its virtual
    /// completion time. Reads do not serialize through the write ledger.
    fn charge_read(&self, path: &str, bytes: usize, client: u64, now: SimTime) -> SimTime {
        let mut srv = self.servers[self.server_of(path)].lock();
        let hinted = self.read_hint.load(Ordering::Relaxed).div_ceil(self.servers.len());
        let active =
            ServerState::count_active(&mut srv.read_activity, client, now, self.model.activity_window)
                .max(hinted);
        let end = now + self.model.read_time(bytes, active);
        srv.read_activity.insert(client, end);
        drop(srv);
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::DiskRead,
                "disk_read",
                now,
                end,
                &format!("path={path} bytes={bytes} active={active}"),
            );
        }
        end
    }

    /// Create (or truncate) a file. Returns the virtual completion time.
    pub fn create(&self, path: &str, client: u64, now: SimTime) -> SimTime {
        {
            let mut files = self.files.lock();
            let mut ledger = self.ledger.lock();
            let tenant = ledger.tenant_of(path);
            let old = files.insert(
                path.to_string(),
                StoredFile {
                    data: FileData::default(),
                    generation: self.next_gen(),
                    tenant,
                    charged: 0,
                },
            );
            if let Some(old) = old {
                // Truncation releases the previous image's charge.
                ledger.release(old.tenant, old.charged);
            }
        }
        self.stats.lock().files_created += 1;
        let end = self.charge_write(path, 0, client, now);
        end + self.model.open_cost
    }

    /// Append bytes to a file (must exist). Returns the completion time.
    pub fn append(&self, path: &str, data: &[u8], client: u64, now: SimTime) -> Result<SimTime> {
        {
            let mut files = self.files.lock();
            let f = files
                .get_mut(path)
                .ok_or_else(|| RocError::Storage(format!("append: no such file '{path}'")))?;
            // Check-and-charge under the files guard: atomic with respect
            // to every other writer's charge (the PR-9 race fix).
            self.ledger.lock().charge(f.tenant, data.len() as u64)?;
            f.data.push(Bytes::copy_from_slice(data));
            f.charged += data.len() as u64;
            f.generation = self.next_gen();
        }
        let mut stats = self.stats.lock();
        stats.bytes_written += data.len() as u64;
        stats.write_ops += 1;
        drop(stats);
        Ok(self.charge_write(path, data.len(), client, now))
    }

    /// Append a scatter-gather segment list to a file (must exist): the
    /// `writev`-style entry point of the zero-copy drain path. The
    /// segments become parts of the file in order
    /// ([`rocio_core::segments_to_parts`]: shared payloads by refcount,
    /// owned runs copied once into one arena), with one quota check, one
    /// stats update and one timing charge for the summed length — byte-
    /// and cost-identical to appending the flattened list, minus the
    /// copies. The stored parts keep their source buffers alive until the
    /// file is flattened by a read or deleted.
    pub fn append_segments(
        &self,
        path: &str,
        segments: &[rocio_core::Segment],
        client: u64,
        now: SimTime,
    ) -> Result<SimTime> {
        let total = rocio_core::segments_len(segments);
        {
            let mut files = self.files.lock();
            let f = files
                .get_mut(path)
                .ok_or_else(|| RocError::Storage(format!("append: no such file '{path}'")))?;
            self.ledger.lock().charge(f.tenant, total as u64)?;
            f.data.push_segments(segments);
            f.charged += total as u64;
            f.generation = self.next_gen();
        }
        let mut stats = self.stats.lock();
        stats.bytes_written += total as u64;
        stats.write_ops += 1;
        drop(stats);
        Ok(self.charge_write(path, total, client, now))
    }

    /// Overwrite bytes at `offset` (extends the file if needed).
    pub fn write_at(
        &self,
        path: &str,
        offset: usize,
        data: &[u8],
        client: u64,
        now: SimTime,
    ) -> Result<SimTime> {
        {
            let mut files = self.files.lock();
            let f = files
                .get_mut(path)
                .ok_or_else(|| RocError::Storage(format!("write_at: no such file '{path}'")))?;
            // Only growth consumes quota: overwriting stored bytes is free.
            let growth = (offset + data.len()).saturating_sub(f.data.len()) as u64;
            self.ledger.lock().charge(f.tenant, growth)?;
            let mut v = f.data.image().to_vec();
            if v.len() < offset + data.len() {
                v.resize(offset + data.len(), 0);
            }
            v[offset..offset + data.len()].copy_from_slice(data);
            f.data.set(v);
            f.charged += growth;
            f.generation = self.next_gen();
        }
        let mut stats = self.stats.lock();
        stats.bytes_written += data.len() as u64;
        stats.write_ops += 1;
        drop(stats);
        Ok(self.charge_write(path, data.len(), client, now))
    }

    /// Replace a file with a permutation of its own byte ranges, at **zero
    /// virtual cost** and with no ledger or stats traffic: the file becomes
    /// the concatenation of `ranges` (`(offset, len)` pairs) in the order
    /// given, which must tile the file exactly — every byte once, no gap,
    /// no overlap (checked; the file is untouched on error). No byte is
    /// copied: the new image is a list of slices of the old parts.
    ///
    /// This is the administrative hook a finalizing writer uses to present
    /// records at their canonical (indexed) offsets regardless of arrival
    /// order: every byte's transfer was already charged when it was
    /// appended, and a real library achieves the same layout by writing
    /// each record at its slot to begin with — the simulator separates the
    /// two so streamed appends stay cheap. Like any mutation it starts a
    /// new file generation (invalidating [`SharedFs::cache_get`]); windows
    /// handed out before keep their bytes.
    pub fn reorder(&self, path: &str, ranges: &[(usize, usize)]) -> Result<()> {
        let mut files = self.files.lock();
        let file = files
            .get_mut(path)
            .ok_or_else(|| RocError::Storage(format!("reorder: no such file '{path}'")))?;
        file.data
            .reorder(ranges)
            .map_err(|e| RocError::Storage(format!("reorder: {e} in '{path}'")))?;
        file.generation = self.next_gen();
        Ok(())
    }

    /// Rewrite a file's bytes through `f`, at **zero virtual cost** and
    /// with no ledger traffic (fault injection: corrupt a stored image).
    /// `f` works on a flattened copy of the file, which replaces it only
    /// if the length is unchanged (checked).
    pub fn rewrite_image(
        &self,
        path: &str,
        f: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        let mut files = self.files.lock();
        let file = files
            .get_mut(path)
            .ok_or_else(|| RocError::Storage(format!("rewrite_image: no such file '{path}'")))?;
        let mut v = file.data.image().to_vec();
        let before = v.len();
        f(&mut v);
        if v.len() != before {
            return Err(RocError::Storage(format!(
                "rewrite_image: length changed ({before} -> {}) for '{path}'",
                v.len()
            )));
        }
        file.data.set(v);
        file.generation = self.next_gen();
        Ok(())
    }

    /// Close/commit a file. Returns the completion time.
    pub fn close(&self, path: &str, _client: u64, now: SimTime) -> Result<SimTime> {
        if !self.files.lock().contains_key(path) {
            return Err(RocError::Storage(format!("close: no such file '{path}'")));
        }
        Ok(now + self.model.close_cost)
    }

    /// Read a batch of `(offset, len)` ranges as zero-copy windows over the
    /// backing file, chaining the virtual time through the ranges in order
    /// with a fixed `lead` (e.g. a per-record lookup cost) charged before
    /// each one. Cost- and stats-identical **by construction** to issuing
    /// the reads one by one — one stats bump and one [`charge_read`] per
    /// range — while the host does a single lock/flatten for the whole
    /// batch. This is the coalesced-read entry point: a reader that knows
    /// several records are contiguous fetches them all in one fs op and
    /// carves each out as an O(1) window.
    ///
    /// The windows stay valid (and keep their bytes) across later
    /// mutations or deletion of the file: stored parts are immutable, and
    /// a mutation replaces parts rather than writing into them, so
    /// outstanding windows pin the old buffer.
    ///
    /// Degenerate inputs are well-defined rather than caller discipline:
    /// an empty range list returns `(vec![], now)` without touching the
    /// file; a zero-length range yields an empty window and charges
    /// nothing (no lead, no op, no bytes); an exact duplicate of an
    /// earlier range yields a clone of the same window and is charged
    /// once, at its first appearance. Distinct-but-overlapping ranges are
    /// distinct requests and each pays full freight.
    pub fn read_shared_multi(
        &self,
        path: &str,
        ranges: &[(usize, usize)],
        lead: SimTime,
        client: u64,
        now: SimTime,
    ) -> Result<(Vec<Bytes>, SimTime)> {
        if ranges.is_empty() {
            return Ok((Vec::new(), now));
        }
        let windows = self.slice_windows(path, ranges)?;
        let mut seen = std::collections::HashSet::with_capacity(ranges.len());
        let mut t = now;
        for &(offset, len) in ranges {
            if len == 0 || !seen.insert((offset, len)) {
                continue;
            }
            let mut stats = self.stats.lock();
            stats.bytes_read += len as u64;
            stats.read_ops += 1;
            drop(stats);
            t += lead;
            t = self.charge_read(path, len, client, t);
        }
        Ok((windows, t))
    }

    /// Read a batch of ranges by **data sieving**: one contiguous read per
    /// hole-cluster (see [`crate::sieve::SievePlan`]), with the requested
    /// pieces carved out of the frozen image as zero-copy sub-windows.
    /// Byte-identical to [`SharedFs::read_shared_multi`] on the same
    /// ranges; the timing and stats instead charge one op per *covering
    /// window* — holes included in `bytes_read`, because the disk really
    /// transfers them — chained in ascending-offset order with `lead`
    /// before each window. Fewer, larger charges is the whole point:
    /// dense small holes amortize seeks away.
    ///
    /// `max_gap` is the largest hole worth reading through; callers derive
    /// it from the disk model (`seek · read_bw`). Degenerate inputs follow
    /// the same rules as `read_shared_multi`.
    pub fn read_sieved(
        &self,
        path: &str,
        ranges: &[(usize, usize)],
        lead: SimTime,
        max_gap: usize,
        client: u64,
        now: SimTime,
    ) -> Result<(Vec<Bytes>, SimTime)> {
        if ranges.is_empty() {
            return Ok((Vec::new(), now));
        }
        let windows = self.slice_windows(path, ranges)?;
        let plan = crate::sieve::SievePlan::build(ranges, max_gap);
        let mut t = now;
        for &(_, len) in &plan.windows {
            let mut stats = self.stats.lock();
            stats.bytes_read += len as u64;
            stats.read_ops += 1;
            drop(stats);
            t += lead;
            t = self.charge_read(path, len, client, t);
        }
        Ok((windows, t))
    }

    /// Flatten `path` and slice one zero-copy window per requested range,
    /// in input order (shared by the per-range and sieved read paths; no
    /// timing or stats).
    fn slice_windows(&self, path: &str, ranges: &[(usize, usize)]) -> Result<Vec<Bytes>> {
        let mut files = self.files.lock();
        let f = files
            .get_mut(path)
            .ok_or_else(|| RocError::Storage(format!("read: no such file '{path}'")))?;
        let data = f.data.image();
        let eof = data.len();
        let mut out = Vec::with_capacity(ranges.len());
        for &(offset, len) in ranges {
            if offset + len > eof {
                return Err(RocError::Storage(format!(
                    "read: range {offset}..{} beyond EOF {eof} in '{path}'",
                    offset + len,
                )));
            }
            out.push(data.slice(offset..offset + len));
        }
        Ok(out)
    }

    /// Read `len` bytes at `offset` as a zero-copy window (same virtual
    /// time and stats as [`SharedFs::read`], no copy).
    pub fn read_shared(
        &self,
        path: &str,
        offset: usize,
        len: usize,
        client: u64,
        now: SimTime,
    ) -> Result<(Bytes, SimTime)> {
        let (mut windows, end) = self.read_shared_multi(path, &[(offset, len)], 0.0, client, now)?;
        Ok((windows.pop().expect("one range in, one window out"), end))
    }

    /// Read `len` bytes at `offset`. Returns the bytes and completion time.
    ///
    /// Owned-`Vec` compatibility wrapper over [`SharedFs::read_shared`]:
    /// the copy happens at this legacy boundary only, so there is a single
    /// charging/stats path for all reads.
    pub fn read(
        &self,
        path: &str,
        offset: usize,
        len: usize,
        client: u64,
        now: SimTime,
    ) -> Result<(Vec<u8>, SimTime)> {
        let (window, end) = self.read_shared(path, offset, len, client, now)?;
        Ok((window.to_vec(), end))
    }

    /// Read a whole file.
    pub fn read_all(&self, path: &str, client: u64, now: SimTime) -> Result<(Vec<u8>, SimTime)> {
        let len = self.file_size(path)?;
        self.read(path, 0, len, client, now)
    }

    /// Read a whole file as a zero-copy window.
    pub fn read_all_shared(&self, path: &str, client: u64, now: SimTime) -> Result<(Bytes, SimTime)> {
        let len = self.file_size(path)?;
        self.read_shared(path, 0, len, client, now)
    }

    /// Size of a file in bytes (metadata operation, no time charged).
    pub fn file_size(&self, path: &str) -> Result<usize> {
        self.files
            .lock()
            .get(path)
            .map(|f| f.data.len())
            .ok_or_else(|| RocError::Storage(format!("stat: no such file '{path}'")))
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// All file paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let files = self.files.lock();
        let mut out: Vec<String> = files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Delete a file, releasing its quota charge. Outstanding shared
    /// windows keep their bytes.
    pub fn delete(&self, path: &str) -> Result<()> {
        {
            let mut files = self.files.lock();
            let old = files
                .remove(path)
                .ok_or_else(|| RocError::Storage(format!("delete: no such file '{path}'")))?;
            self.ledger.lock().release(old.tenant, old.charged);
        }
        // Hygiene only: the generation check already rejects stale entries
        // (a recreated file gets a fresh generation, never a reused one).
        self.meta_cache.lock().retain(|(_, p), _| p != path);
        Ok(())
    }

    /// Store a parsed-metadata value (e.g. a decoded SDF trailer + index)
    /// for `path`. Entries are keyed by `client` so a hit depends only on
    /// that client's own deterministic history — never on how the host
    /// interleaves other ranks' opens — and are validated against the
    /// file's mutation generation, so any write, truncate, or delete +
    /// recreate of the path invalidates them.
    pub fn cache_put(&self, path: &str, client: u64, value: CacheValue) {
        let generation = match self.files.lock().get(path) {
            Some(f) => f.generation,
            None => return,
        };
        self.meta_cache.lock().insert((client, path.to_string()), (generation, value));
    }

    /// Fetch this client's cached metadata for `path`, if still valid
    /// (see [`SharedFs::cache_put`]). Stale entries are dropped.
    pub fn cache_get(&self, path: &str, client: u64) -> Option<CacheValue> {
        let current = self.files.lock().get(path).map(|f| f.generation);
        let key = (client, path.to_string());
        let mut cache = self.meta_cache.lock();
        match (current, cache.get(&key)) {
            (Some(generation), Some((g, v))) if *g == generation => Some(Arc::clone(v)),
            (_, Some(_)) => {
                cache.remove(&key);
                None
            }
            _ => None,
        }
    }

    /// Number of files currently stored.
    pub fn n_files(&self) -> usize {
        self.files.lock().len()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> FsStats {
        *self.stats.lock()
    }

    /// Diagnostics: per-server (latest write completion, accumulated write
    /// service time).
    pub fn server_times(&self) -> Vec<(SimTime, SimTime)> {
        self.servers
            .iter()
            .map(|s| {
                let s = s.lock();
                (s.last_completion, s.busy_time)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_round_trip() {
        let fs = SharedFs::ideal();
        fs.create("a.sdf", 0, 0.0);
        fs.append("a.sdf", b"hello ", 0, 0.0).unwrap();
        fs.append("a.sdf", b"world", 0, 0.0).unwrap();
        let (data, _t) = fs.read_all("a.sdf", 0, 0.0).unwrap();
        assert_eq!(data, b"hello world");
        assert_eq!(fs.file_size("a.sdf").unwrap(), 11);
    }

    #[test]
    fn write_at_extends_and_overwrites() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.write_at("f", 4, b"abcd", 0, 0.0).unwrap();
        assert_eq!(fs.file_size("f").unwrap(), 8);
        fs.write_at("f", 0, b"XY", 0, 0.0).unwrap();
        let (data, _) = fs.read_all("f", 0, 0.0).unwrap();
        assert_eq!(&data[..2], b"XY");
        assert_eq!(&data[4..], b"abcd");
    }

    #[test]
    fn missing_file_errors() {
        let fs = SharedFs::ideal();
        assert!(fs.append("nope", b"x", 0, 0.0).is_err());
        assert!(fs.read("nope", 0, 1, 0, 0.0).is_err());
        assert!(fs.file_size("nope").is_err());
        assert!(fs.delete("nope").is_err());
        assert!(fs.close("nope", 0, 0.0).is_err());
        assert!(!fs.exists("nope"));
    }

    #[test]
    fn read_beyond_eof_errors() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        assert!(fs.read("f", 2, 5, 0, 0.0).is_err());
        assert!(fs.read("f", 0, 3, 0, 0.0).is_ok());
    }

    #[test]
    fn create_truncates() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"data", 0, 0.0).unwrap();
        fs.create("f", 0, 1.0);
        assert_eq!(fs.file_size("f").unwrap(), 0);
    }

    #[test]
    fn list_filters_and_sorts() {
        let fs = SharedFs::ideal();
        for p in ["b/2", "a/1", "b/1"] {
            fs.create(p, 0, 0.0);
        }
        assert_eq!(fs.list("b/"), vec!["b/1".to_string(), "b/2".to_string()]);
        assert_eq!(fs.list("").len(), 3);
        assert_eq!(fs.n_files(), 3);
        fs.delete("b/1").unwrap();
        assert_eq!(fs.n_files(), 2);
    }

    #[test]
    fn concurrent_writes_share_the_server() {
        // Two clients writing at the same virtual instant each see ~2x the
        // solo service time (fair sharing + thrash), and the result does
        // not depend on which op reached the file system first.
        let solo = {
            let fs = SharedFs::turing();
            fs.create("x", 1, 0.0);
            fs.append("x", &vec![0u8; 1 << 20], 1, 0.0).unwrap()
        };
        let fs = SharedFs::turing();
        fs.create("x", 1, 0.0);
        fs.declare_writers(2);
        let e1 = fs.append("x", &vec![0u8; 1 << 20], 1, 0.0).unwrap();
        let e2 = fs.append("x", &vec![0u8; 1 << 20], 2, 0.0).unwrap();
        assert!((e1 - e2).abs() < 1e-9, "order-independent: {e1} vs {e2}");
        assert!(e1 > 1.9 * solo, "shared write {e1} not ~2x solo {solo}");
        assert!(e1 < 4.0 * solo, "shared write {e1} unreasonably slow");
    }

    #[test]
    fn reads_do_not_serialize() {
        let fs = SharedFs::turing();
        fs.create("x", 0, 0.0);
        fs.append("x", &vec![0u8; 1 << 20], 0, 0.0).unwrap();
        let (_, r1) = fs.read_all("x", 1, 100.0).unwrap();
        let (_, r2) = fs.read_all("x", 2, 100.0).unwrap();
        let single = r1 - 100.0;
        let second = r2 - 100.0;
        // Both reads overlap; the second is slightly slower (contention)
        // but nowhere near serialized.
        assert!(second < single * 1.5);
    }

    #[test]
    fn contention_grows_write_time_per_byte() {
        let fs = SharedFs::turing();
        fs.create("solo", 0, 0.0);
        let solo = fs.append("solo", &vec![0u8; 1 << 20], 0, 0.0).unwrap();
        // Same write with 31 other recently-active writers: the
        // activity-window heuristic alone (no hint) must slow it well
        // beyond the solo service time.
        let fs2 = SharedFs::turing();
        fs2.create("busy", 0, 0.0);
        for c in 1..32u64 {
            fs2.append("busy", &vec![0u8; 1024], c, 0.0).unwrap();
        }
        let t0 = 0.5; // still within the activity window
        let busy_end = fs2.append("busy", &vec![0u8; 1 << 20], 0, t0).unwrap();
        assert!(busy_end - t0 > solo * 2.0);
    }

    #[test]
    fn multi_server_fs_spreads_files() {
        let fs = SharedFs::frost();
        assert_eq!(fs.n_servers(), 2);
        // With many files, both servers should own some.
        let mut owners = std::collections::HashSet::new();
        for i in 0..32 {
            owners.insert(fs.server_of(&format!("file{i}.sdf")));
        }
        assert_eq!(owners.len(), 2);
    }

    #[test]
    fn quota_rejects_writes_when_full() {
        let fs = SharedFs::ideal();
        fs.set_quota(100);
        fs.create("f", 0, 0.0);
        fs.append("f", &[0u8; 60], 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 60);
        // Next write would exceed the aggregate cap — the store is full,
        // so this is a plain storage error with no tenant attribution.
        let err = fs.append("f", &[0u8; 60], 0, 0.0).unwrap_err();
        assert!(
            matches!(&err, RocError::Storage(m) if m.contains("disk full")),
            "expected disk-full storage error, got {err:?}"
        );
        // Small writes still fit; reads unaffected.
        fs.append("f", &[0u8; 40], 0, 0.0).unwrap();
        assert!(fs.read_all("f", 0, 0.0).is_ok());
        // Deleting frees space.
        fs.delete("f").unwrap();
        fs.create("g", 0, 0.0);
        fs.append("g", &[0u8; 90], 0, 0.0).unwrap();
    }

    #[test]
    fn append_segments_matches_flat_append() {
        use rocio_core::Segment;
        let a = SharedFs::ideal();
        let b = SharedFs::ideal();
        a.create("f", 0, 0.0);
        b.create("f", 0, 0.0);
        let segs = [
            Segment::Owned(b"head".to_vec()),
            Segment::Shared(bytes::Bytes::from(b"payload".to_vec())),
            Segment::Owned(b"tail".to_vec()),
        ];
        let flat = rocio_core::segments_to_vec(&segs);
        let t_seg = a.append_segments("f", &segs, 0, 0.0).unwrap();
        let t_flat = b.append("f", &flat, 0, 0.0).unwrap();
        // Identical bytes, identical modelled cost, one logical write op.
        assert_eq!(t_seg, t_flat);
        assert_eq!(a.read_all("f", 0, 0.0).unwrap().0, flat);
        let s = a.stats();
        assert_eq!(s.bytes_written, flat.len() as u64);
        assert_eq!(s.write_ops, 1);
    }

    #[test]
    fn shared_read_matches_owned_read() {
        // Same bytes, same virtual cost, same stats — the shared window
        // differs from the owned read only in what the host allocates.
        let a = SharedFs::turing();
        let b = SharedFs::turing();
        for fs in [&a, &b] {
            fs.create("f", 0, 0.0);
            fs.append("f", &(0..4096).map(|i| i as u8).collect::<Vec<_>>(), 0, 0.0).unwrap();
        }
        let (owned, t_owned) = a.read("f", 128, 1024, 1, 5.0).unwrap();
        let (shared, t_shared) = b.read_shared("f", 128, 1024, 1, 5.0).unwrap();
        assert_eq!(shared.as_slice(), owned.as_slice());
        assert_eq!(t_shared, t_owned);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn read_shared_multi_matches_chained_reads() {
        // The coalesced batch must be cost- and stats-identical to issuing
        // the same ranges one by one with the lead charged before each.
        let a = SharedFs::turing();
        let b = SharedFs::turing();
        for fs in [&a, &b] {
            fs.create("f", 0, 0.0);
            fs.append("f", &vec![9u8; 2048], 0, 0.0).unwrap();
        }
        let ranges = [(0usize, 100usize), (100, 400), (500, 1000)];
        let lead = 0.25;
        let (windows, t_multi) = a.read_shared_multi("f", &ranges, lead, 3, 2.0).unwrap();
        let mut t = 2.0;
        for (&(off, len), w) in ranges.iter().zip(&windows) {
            let (d, e) = b.read("f", off, len, 3, t + lead).unwrap();
            assert_eq!(w.as_slice(), d.as_slice());
            t = e;
        }
        assert_eq!(t_multi, t);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().read_ops, ranges.len() as u64);
    }

    #[test]
    fn read_multi_empty_range_list_is_a_no_op() {
        let fs = SharedFs::turing();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abc", 0, 0.0).unwrap();
        let before = fs.stats();
        let (windows, t) = fs.read_shared_multi("f", &[], 0.5, 0, 7.0).unwrap();
        assert!(windows.is_empty());
        assert_eq!(t, 7.0);
        assert_eq!(fs.stats(), before);
        // An empty list never touches the file — not even to check it exists.
        let (w2, t2) = fs.read_shared_multi("nope", &[], 0.5, 0, 7.0).unwrap();
        assert!(w2.is_empty() && t2 == 7.0);
    }

    #[test]
    fn read_multi_zero_length_ranges_yield_empty_windows_free() {
        let fs = SharedFs::turing();
        fs.create("f", 0, 0.0);
        fs.append("f", &[7u8; 64], 0, 0.0).unwrap();
        let before = fs.stats();
        let (windows, t) =
            fs.read_shared_multi("f", &[(0, 0), (10, 0), (64, 0)], 0.5, 0, 3.0).unwrap();
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|w| w.is_empty()));
        assert_eq!(t, 3.0, "zero-length ranges charge no lead and no read");
        assert_eq!(fs.stats(), before);
        // Beyond EOF is still an error, zero-length or not.
        assert!(fs.read_shared_multi("f", &[(65, 0)], 0.0, 0, 3.0).is_err());
        // Mixed with a real range, only the real range is charged.
        let (ws, _) = fs.read_shared_multi("f", &[(0, 0), (4, 8)], 0.0, 0, 3.0).unwrap();
        assert_eq!(ws[1].len(), 8);
        assert_eq!(fs.stats().read_ops, before.read_ops + 1);
        assert_eq!(fs.stats().bytes_read, before.bytes_read + 8);
    }

    #[test]
    fn read_multi_duplicate_ranges_charge_once_overlaps_charge_each() {
        let fs = SharedFs::turing();
        fs.create("f", 0, 0.0);
        fs.append("f", &[5u8; 128], 0, 0.0).unwrap();
        let before = fs.stats();
        // Exact duplicates: three windows out, one charge.
        let (windows, _) =
            fs.read_shared_multi("f", &[(8, 16), (8, 16), (8, 16)], 0.0, 0, 1.0).unwrap();
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|w| w.as_slice() == windows[0].as_slice()));
        assert_eq!(fs.stats().read_ops, before.read_ops + 1);
        assert_eq!(fs.stats().bytes_read, before.bytes_read + 16);
        // Overlapping-but-distinct ranges are distinct requests.
        let mid = fs.stats();
        let (ws, _) = fs.read_shared_multi("f", &[(0, 32), (16, 32)], 0.0, 0, 2.0).unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(fs.stats().read_ops, mid.read_ops + 2);
        assert_eq!(fs.stats().bytes_read, mid.bytes_read + 64);
    }

    #[test]
    fn read_sieved_is_byte_identical_and_charges_per_window() {
        // 16-byte pieces every 64 bytes: per-range pays a seek each; the
        // sieve reads one covering window (48-byte holes <= max_gap).
        let per = SharedFs::turing();
        let sieve = SharedFs::turing();
        let image: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for fs in [&per, &sieve] {
            fs.create("f", 0, 0.0);
            fs.append("f", &image, 0, 0.0).unwrap();
        }
        let ranges: Vec<_> = (0..32).map(|i| (i * 64, 16)).collect();
        let (w_per, t_per) = per.read_shared_multi("f", &ranges, 0.0, 1, 10.0).unwrap();
        let (w_sieve, t_sieve) = sieve.read_sieved("f", &ranges, 0.0, 64, 1, 10.0).unwrap();
        for (a, b) in w_per.iter().zip(&w_sieve) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let plan = crate::sieve::SievePlan::build(&ranges, 64);
        assert_eq!(plan.n_windows(), 1);
        assert_eq!(per.stats().read_ops, ranges.len() as u64);
        assert_eq!(sieve.stats().read_ops, plan.n_windows() as u64);
        assert_eq!(sieve.stats().bytes_read, plan.total_bytes as u64);
        assert!(
            t_sieve - 10.0 < (t_per - 10.0) / 2.0,
            "sieve {:.6}s not ≥2x faster than per-range {:.6}s",
            t_sieve - 10.0,
            t_per - 10.0
        );
        // Sparse request (holes > max_gap): the sieve degenerates to
        // per-range and must be cost-identical to read_shared_multi.
        let sparse: Vec<_> = (0..8).map(|i| (i * 512, 16)).collect();
        let a = SharedFs::turing();
        let b = SharedFs::turing();
        for fs in [&a, &b] {
            fs.create("f", 0, 0.0);
            fs.append("f", &image, 0, 0.0).unwrap();
        }
        let (wa, ta) = a.read_shared_multi("f", &sparse, 0.25, 1, 0.0).unwrap();
        let (wb, tb) = b.read_sieved("f", &sparse, 0.25, 16, 1, 0.0).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn shared_window_outlives_mutation_and_delete() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"old-bytes", 0, 0.0).unwrap();
        let (w, _) = fs.read_shared("f", 0, 9, 0, 0.0).unwrap();
        // Mutation adds or replaces parts; the window pins the old one.
        fs.append("f", b"+new", 0, 1.0).unwrap();
        let (now, _) = fs.read_all("f", 0, 2.0).unwrap();
        assert_eq!(now, b"old-bytes+new");
        fs.delete("f").unwrap();
        assert_eq!(w.as_slice(), b"old-bytes");
    }

    #[test]
    fn metadata_cache_is_per_client_and_generation_checked() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"v1", 0, 0.0).unwrap();
        assert!(fs.cache_get("f", 7).is_none());
        fs.cache_put("f", 7, Arc::new(1u32));
        let hit = fs.cache_get("f", 7).expect("fresh entry hits");
        assert_eq!(*hit.downcast::<u32>().unwrap(), 1);
        // Other clients never see each other's entries (determinism).
        assert!(fs.cache_get("f", 8).is_none());
        // Any mutation invalidates.
        fs.append("f", b"v2", 0, 0.0).unwrap();
        assert!(fs.cache_get("f", 7).is_none());
        // Delete + recreate must not resurrect an entry either.
        fs.cache_put("f", 7, Arc::new(2u32));
        fs.delete("f").unwrap();
        fs.create("f", 0, 1.0);
        assert!(fs.cache_get("f", 7).is_none());
        // Caching a missing path is a no-op.
        fs.cache_put("ghost", 7, Arc::new(3u32));
        assert!(fs.cache_get("ghost", 7).is_none());
    }

    #[test]
    fn quota_counts_frozen_files() {
        let fs = SharedFs::ideal();
        fs.set_quota(100);
        fs.create("f", 0, 0.0);
        fs.append("f", &[0u8; 60], 0, 0.0).unwrap();
        fs.read_shared("f", 0, 60, 0, 0.0).unwrap(); // flattens
        assert_eq!(fs.used_bytes(), 60);
        assert!(fs.append("f", &[0u8; 60], 0, 0.0).is_err());
        fs.append("f", &[0u8; 40], 0, 0.0).unwrap(); // append after a flatten still fits
        assert_eq!(fs.used_bytes(), 100);
    }

    #[test]
    fn tenant_ledger_isolates_quotas() {
        let fs = SharedFs::ideal();
        fs.bind_tenant("t0001/", TenantId(1));
        fs.bind_tenant("t0002/", TenantId(2));
        fs.set_tenant_quota(TenantId(1), 100);
        fs.create("t0001/a", 0, 0.0);
        fs.create("t0002/a", 0, 0.0);
        fs.create("free", 0, 0.0);
        fs.append("t0001/a", &[0u8; 80], 0, 0.0).unwrap();
        // Tenant 1 hits its ceiling; the error names the tenant.
        let err = fs.append("t0001/a", &[0u8; 40], 0, 0.0).unwrap_err();
        match &err {
            RocError::Service(se) => {
                assert_eq!(se.tenant, TenantId(1));
                assert!(matches!(
                    se.kind,
                    ServiceErrorKind::QuotaExceeded { limit: 100, used: 80, requested: 40 }
                ));
            }
            other => panic!("expected Service error, got {other:?}"),
        }
        // Tenant 2 and the solo tenant are unaffected.
        fs.append("t0002/a", &[0u8; 512], 0, 0.0).unwrap();
        fs.append("free", &[0u8; 512], 0, 0.0).unwrap();
        assert_eq!(fs.tenant_used(TenantId(1)), 80);
        assert_eq!(fs.tenant_used(TenantId(2)), 512);
        assert_eq!(fs.tenant_used(TenantId::SOLO), 512);
        assert_eq!(fs.used_bytes(), 80 + 512 + 512);
        // Deleting tenant 1's file releases its charge; writes fit again.
        fs.delete("t0001/a").unwrap();
        assert_eq!(fs.tenant_used(TenantId(1)), 0);
        fs.create("t0001/b", 0, 1.0);
        fs.append("t0001/b", &[0u8; 100], 0, 1.0).unwrap();
    }

    #[test]
    fn tenant_binding_longest_prefix_wins() {
        let fs = SharedFs::ideal();
        fs.bind_tenant("out/", TenantId(1));
        fs.bind_tenant("out/deep/", TenantId(2));
        assert_eq!(fs.tenant_of("out/x"), TenantId(1));
        assert_eq!(fs.tenant_of("out/deep/x"), TenantId(2));
        assert_eq!(fs.tenant_of("elsewhere"), TenantId::SOLO);
        fs.unbind_tenant("out/deep/");
        assert_eq!(fs.tenant_of("out/deep/x"), TenantId(1));
    }

    #[test]
    fn write_at_charges_growth_only() {
        let fs = SharedFs::ideal();
        fs.set_quota(100);
        fs.create("f", 0, 0.0);
        fs.append("f", &[0u8; 90], 0, 0.0).unwrap();
        // Overwrites are free; only extension past EOF consumes quota.
        fs.write_at("f", 0, &[1u8; 90], 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 90);
        fs.write_at("f", 85, &[2u8; 10], 0, 0.0).unwrap();
        assert_eq!(fs.used_bytes(), 95);
        let err = fs.write_at("f", 90, &[3u8; 20], 0, 0.0).unwrap_err();
        assert!(
            matches!(&err, RocError::Storage(m) if m.contains("disk full")),
            "{err:?}"
        );
        // Rejection mutated nothing.
        assert_eq!(fs.used_bytes(), 95);
        assert_eq!(fs.file_size("f").unwrap(), 95);
    }

    #[test]
    fn quota_check_and_charge_is_atomic_under_contention() {
        // 16 threads race 10-byte appends against a 50-byte quota:
        // exactly 5 must win, regardless of interleaving. Before the
        // ledger, check (sum under one lock acquisition) and charge
        // (mutation under a later one) could both pass and overshoot.
        for round in 0..8 {
            let fs = Arc::new(SharedFs::ideal());
            fs.set_quota(50);
            fs.create("f", 0, 0.0);
            let wins: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..16)
                    .map(|c| {
                        let fs = Arc::clone(&fs);
                        s.spawn(move || fs.append("f", &[c as u8; 10], c, 0.0).is_ok())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            let n_ok = wins.iter().filter(|&&w| w).count();
            assert_eq!(n_ok, 5, "round {round}: {n_ok} writes won against a 5-write quota");
            assert_eq!(fs.used_bytes(), 50);
            assert_eq!(fs.file_size("f").unwrap(), 50);
        }
    }

    #[test]
    fn stats_accumulate() {
        let fs = SharedFs::ideal();
        fs.create("f", 0, 0.0);
        fs.append("f", b"abcd", 0, 0.0).unwrap();
        fs.read("f", 0, 2, 0, 0.0).unwrap();
        let s = fs.stats();
        assert_eq!(s.files_created, 1);
        assert_eq!(s.bytes_written, 4);
        assert_eq!(s.bytes_read, 2);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_ops, 1);
    }
}
