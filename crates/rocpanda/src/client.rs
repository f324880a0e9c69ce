//! The Rocpanda client side: the [`IoService`] the simulation sees.

use std::collections::HashSet;

use rocio_core::{
    segments_len, Result, RocError, Segment, ServiceErrorKind, SnapshotId, TenantId,
};
use rocnet::Comm;
use rocsdf::SegmentPool;

use crate::config::RocpandaConfig;
use crate::net::PandaNet;
use crate::wire::{self, tag, BlockMsg, ReadReq, WriteReq};
use roccom::{AttrSelector, IoService, Windows};

/// A Rocpanda compute client.
///
/// `write_attribute` ships this process's blocks to its assigned server
/// and returns as soon as the server has *buffered* them (active
/// buffering): "the clients return to computation when all the output data
/// are buffered at the servers" (§6.1). One ACK per block provides flow
/// control, so a slow or busy server back-pressures its clients — the
/// handshaking cost the paper observes on Turing.
pub struct PandaClient<'a> {
    world: &'a Comm,
    /// Data-plane transport to the servers (raw, or reliable when
    /// `cfg.faulty_net` is set). Every protocol message goes through here.
    net: PandaNet<'a>,
    client_comm: Comm,
    cfg: RocpandaConfig,
    /// The tenant this client writes as (solo for `init`-era sessions).
    tenant: TenantId,
    my_server: usize,
    server_ranks: Vec<usize>,
    visible_io: f64,
    finalized: bool,
    /// Reusable staging buffers for the scatter-gather block encoder —
    /// steady-state snapshots allocate no fresh header buffers.
    pool: SegmentPool,
    segs: Vec<Segment>,
}

impl<'a> PandaClient<'a> {
    pub(crate) fn new(
        world: &'a Comm,
        client_comm: Comm,
        cfg: RocpandaConfig,
        tenant: TenantId,
        my_server: usize,
        server_ranks: Vec<usize>,
    ) -> Self {
        PandaClient {
            world,
            net: PandaNet::new(world, cfg.faulty_net.is_some()),
            client_comm,
            cfg,
            tenant,
            my_server,
            server_ranks,
            visible_io: 0.0,
            finalized: false,
            pool: SegmentPool::new(),
            segs: Vec::new(),
        }
    }

    /// The client sub-communicator. "When existing simulation codes are
    /// adapted to use Rocpanda, all the instances of `MPI_COMM_WORLD` need
    /// to be replaced by the client communicator returned by the Rocpanda
    /// initialization routine" (§4.2).
    pub fn client_comm(&self) -> &Comm {
        &self.client_comm
    }

    /// World rank of this client's assigned server.
    pub fn server_rank(&self) -> usize {
        self.my_server
    }

    /// The tenant this client writes as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Total visible I/O time this rank has spent in output calls.
    pub fn visible_io(&self) -> f64 {
        self.visible_io
    }
}

impl IoService for PandaClient<'_> {
    fn service_name(&self) -> &'static str {
        "rocpanda"
    }

    fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let t_enter = self.world.now();
        let window = windows.window(&sel.window)?;
        let blocks = roccom::convert::window_to_blocks(window, &sel.attr)?;
        // Announce (collective: even a pane-less client announces, so the
        // server knows when a file is complete).
        let req = WriteReq {
            snap,
            window: sel.window.clone(),
            n_blocks: blocks.len() as u32,
        };
        self.net.send(self.my_server, tag::WRITE_REQ, &req.encode())?;
        let window = self.cfg.ack_window.max(1);
        let mut in_flight = 0usize;
        for block in blocks {
            let msg = BlockMsg {
                snap,
                window: sel.window.clone(),
                block,
            };
            // Scatter-gather encode into pooled staging buffers; each run
            // of them is copied exactly once, into a message part inside
            // send_segments, so the buffers go straight back to the pool.
            self.segs.clear();
            msg.encode_segments(&mut self.pool, &mut self.segs);
            // Client-side packing cost (same total bytes as before).
            self.world
                .advance(segments_len(&self.segs) as f64 / self.cfg.client_pack_bw);
            // Flow control: at most `window` unacknowledged blocks.
            while in_flight >= window {
                self.net.recv(Some(self.my_server), Some(tag::ACK))?;
                in_flight -= 1;
            }
            self.net.send_segments(self.my_server, tag::BLOCK, &self.segs)?;
            self.pool.recycle(&mut self.segs);
            in_flight += 1;
        }
        while in_flight > 0 {
            self.net.recv(Some(self.my_server), Some(tag::ACK))?;
            in_flight -= 1;
        }
        self.net.recv(Some(self.my_server), Some(tag::DONE))?;
        self.visible_io += self.world.now() - t_enter;
        Ok(())
    }

    fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        let wanted: Vec<u64> = windows
            .window(&sel.window)?
            .pane_ids()
            .iter()
            .map(|b| b.0)
            .collect();
        let req = ReadReq {
            snap,
            window: sel.window.clone(),
            ids: wanted.clone(),
        };
        // Collective: every client asks every server; the files may have
        // been written by a run with a different server count.
        let payload = req.encode();
        for &s in &self.server_ranks {
            self.net.send(s, tag::READ_REQ, &payload)?;
        }
        let t_read0 = self.world.now();
        let mut dones = 0usize;
        let mut expected: u64 = 0;
        let mut got: u64 = 0;
        let mut seen: HashSet<u64> = HashSet::new();
        let mut server_err: Option<RocError> = None;
        while dones < self.server_ranks.len() || got < expected {
            let msg = self.net.recv(None, None)?;
            match msg.tag {
                tag::READ_BLOCK => {
                    // Zero-copy decode: payloads stay windows into the
                    // message until apply_block installs them typed.
                    let bm = BlockMsg::decode_shared(&msg.payload.bytes())?;
                    if !seen.insert(bm.block.id.0) {
                        return Err(RocError::Corrupt(format!(
                            "restart: block {} delivered twice",
                            bm.block.id
                        )));
                    }
                    roccom::convert::apply_block(windows.window_mut(&sel.window)?, &bm.block)?;
                    got += 1;
                }
                tag::READ_BATCH => {
                    // A server's whole cache-served share in one message.
                    for bm in wire::decode_read_batch_shared(&msg.payload.bytes())? {
                        if !seen.insert(bm.block.id.0) {
                            return Err(RocError::Corrupt(format!(
                                "restart: block {} delivered twice",
                                bm.block.id
                            )));
                        }
                        roccom::convert::apply_block(windows.window_mut(&sel.window)?, &bm.block)?;
                        got += 1;
                    }
                }
                tag::READ_DONE => {
                    expected += wire::decode_read_done(&msg.payload)? as u64;
                    dones += 1;
                }
                tag::READ_ERR => {
                    // The server's scan failed; it reports instead of
                    // shipping. Keep draining so every server's terminal
                    // message is consumed, then surface the first error.
                    let text = String::from_utf8_lossy(&msg.payload).into_owned();
                    server_err.get_or_insert(RocError::Storage(format!(
                        "restart failed at server rank {}: {text}",
                        msg.src
                    )));
                    dones += 1;
                }
                other => {
                    return Err(RocError::Comm(format!(
                        "panda client: unexpected tag {other:#x} during restart"
                    )))
                }
            }
        }
        if rocobs::enabled() {
            rocobs::record(
                rocobs::SpanCategory::RestartRead,
                "read_attribute",
                t_read0,
                self.world.now(),
                &format!("window={} blocks={got}", sel.window),
            );
        }
        if let Some(e) = server_err {
            return Err(e);
        }
        if got != wanted.len() as u64 {
            return Err(RocError::NotFound(format!(
                "restart: wanted {} blocks of '{}', received {}",
                wanted.len(),
                sel.window,
                got
            )));
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.net.send(self.my_server, tag::SYNC, &[])?;
        let ack = self.net.recv(Some(self.my_server), Some(tag::SYNC_ACK))?;
        // The ack carries the server's disk-durability watermark — or the
        // tenant's sticky drain failure (e.g. a quota rejection during a
        // background drain), surfaced here as a structured service error.
        match wire::decode_sync_ack(&ack.payload)? {
            Ok(watermark) => {
                self.world.clock().merge(watermark);
                Ok(())
            }
            Err(text) => Err(rocio_core::ServiceError::err(
                self.tenant,
                ServiceErrorKind::Drain(text),
            )),
        }
    }

    fn retire(&mut self, snap: SnapshotId) -> Result<()> {
        // One client per server group requests the deletion; everyone
        // synchronizes so no client proceeds while files vanish.
        self.client_comm.barrier()?;
        if self.client_comm.rank() == 0 {
            for &s in &self.server_ranks {
                self.net.send(s, tag::RETIRE, &wire::encode_retire(snap))?;
                self.net.recv(Some(s), Some(tag::RETIRE_ACK))?;
            }
        }
        self.client_comm.barrier()?;
        Ok(())
    }

    fn finalize(&mut self) -> Result<()> {
        if self.finalized {
            return Ok(());
        }
        self.finalized = true;
        // Collective: wait for every client to finish writing BEFORE any
        // sync reaches a server (a premature flush would interleave disk
        // drains with another client's in-flight blocks), then sync, then
        // one client delivers the shutdowns. A drain error from the sync
        // (e.g. a quota-rejected snapshot) must not abort teardown — the
        // shutdowns still go out so the servers exit, and the error is
        // surfaced after.
        self.client_comm.barrier()?;
        let sync_result = self.sync();
        self.client_comm.barrier()?;
        if self.client_comm.rank() == 0 {
            for &s in &self.server_ranks {
                self.net.send(s, tag::SHUTDOWN, &[])?;
            }
        }
        // On a degraded fabric, hold the rank until every frame it sent is
        // acknowledged — in particular the SHUTDOWNs, which have no
        // application-level reply to prove their delivery.
        self.net.drain();
        sync_result
    }
}

#[cfg(test)]
mod tests {
    use crate::{init, Role, RocpandaConfig};
    use rocio_core::{ArrayData, BlockId, DType, SnapshotId};
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;
    use roccom::{AttrSelector, AttrSpec, IoService, PaneMesh, Windows};
    use rocstore::SharedFs;

    fn build_windows(client_index: usize, n_panes: usize) -> Windows {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
        for i in 0..n_panes {
            let id = BlockId((client_index * 100 + i) as u64);
            w.register_pane(
                id,
                PaneMesh::Structured {
                    dims: [3, 3, 3],
                    origin: [0.0; 3],
                    spacing: [1.0; 3],
                },
            )
            .unwrap();
            w.pane_mut(id)
                .unwrap()
                .set_data("pressure", ArrayData::F64(vec![id.0 as f64; 27]))
                .unwrap();
        }
        ws
    }

    fn sum_pressure(ws: &Windows) -> f64 {
        ws.window("fluid")
            .unwrap()
            .panes()
            .map(|p| p.data("pressure").unwrap().as_f64().unwrap().iter().sum::<f64>())
            .sum()
    }

    /// 4 clients + 2 servers: write a snapshot, verify files, restart.
    #[test]
    fn collective_write_and_restart() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        let servers = [0usize, 3];
        let sums = run_ranks(6, ClusterSpec::ideal(6), |comm| {
            let role = init(&comm, &fs, RocpandaConfig::default(), &servers).unwrap();
            match role {
                Role::Server(mut s) => {
                    s.run().unwrap();
                    -1.0
                }
                Role::Client { io: mut c, comm: app } => {
                    let idx = app.rank();
                    let ws = build_windows(idx, 2);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let sum = sum_pressure(&ws);
                    c.finalize().unwrap();
                    sum
                }
            }
        });
        // One file per server (factor-of-2 reduction vs 4 clients).
        assert_eq!(fs.list("out/").len(), 2);
        let written_sum: f64 = sums.iter().filter(|&&s| s >= 0.0).sum();

        // Restart with the same distribution.
        let restored = run_ranks(6, ClusterSpec::ideal(6), |comm| {
            let role = init(&comm, &fs, RocpandaConfig::default(), &servers).unwrap();
            match role {
                Role::Server(mut s) => {
                    s.run().unwrap();
                    -1.0
                }
                Role::Client { io: mut c, comm: app } => {
                    let idx = app.rank();
                    let mut ws = build_windows(idx, 2);
                    for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                        for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                            *x = -7.0;
                        }
                    }
                    c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let sum = sum_pressure(&ws);
                    c.finalize().unwrap();
                    sum
                }
            }
        });
        let restored_sum: f64 = sums_of(&restored);
        assert_eq!(written_sum, restored_sum);
    }

    /// Sum of the client results (servers report -1.0).
    fn sums_of(out: &[f64]) -> f64 {
        out.iter().filter(|&&s| s >= 0.0).sum()
    }

    /// One write+restart cycle: on `fabric` when given (with `faulty_net`
    /// set and reliability-layer faults injected), else on a clean fabric.
    /// Returns (file name → bytes, restored pressure sum).
    fn write_restart_cycle(
        fabric: Option<&std::sync::Arc<rocnet::Fabric>>,
        faulty: Option<rocnet::FaultSpec>,
    ) -> (std::collections::BTreeMap<String, Vec<u8>>, f64) {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(7, 0);
        let servers = [0usize, 3];
        let cfg = RocpandaConfig {
            faulty_net: faulty,
            ..Default::default()
        };
        let job = |comm: rocnet::Comm| {
            let role = init(&comm, &fs, cfg.clone(), &servers).unwrap();
            match role {
                Role::Server(mut s) => {
                    s.run().unwrap();
                    -1.0
                }
                Role::Client { io: mut c, comm: app } => {
                    let idx = app.rank();
                    let mut ws = build_windows(idx, 2);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    c.sync().unwrap();
                    for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                        for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                            *x = -7.0;
                        }
                    }
                    c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let sum = sum_pressure(&ws);
                    c.finalize().unwrap();
                    sum
                }
            }
        };
        let out = match fabric {
            Some(f) => rocnet::harness::run_on_fabric(f, &job),
            None => run_ranks(6, ClusterSpec::ideal(6), job),
        };
        let sum = sums_of(&out);
        let files = fs
            .list("out/")
            .into_iter()
            .map(|p| {
                let (bytes, _) = fs.read_all(&p, u64::MAX, 0.0).unwrap();
                (p, bytes)
            })
            .collect();
        (files, sum)
    }

    /// The tentpole end-to-end property at unit scale: with the fabric
    /// dropping, duplicating and reordering reliability-layer frames, the
    /// full write → sync → restart → shutdown cycle completes and the SDF
    /// files are byte-identical to a clean-fabric run.
    #[test]
    fn chaotic_fabric_round_trip_is_byte_identical() {
        let (clean_files, clean_sum) = write_restart_cycle(None, None);
        for seed in [1u64, 2, 3] {
            let spec = rocnet::FaultSpec::chaos(seed, 0.10);
            let fabric =
                std::sync::Arc::new(rocnet::Fabric::new(ClusterSpec::ideal(6)));
            fabric.set_fault_injector(std::sync::Arc::new(rocnet::RelOnly(spec)));
            let (files, sum) = write_restart_cycle(Some(&fabric), Some(spec));
            assert!(
                fabric.fault_stats().total() > 0,
                "seed {seed}: the injector never fired"
            );
            assert_eq!(sum, clean_sum, "seed {seed}: restart restored wrong data");
            assert_eq!(files, clean_files, "seed {seed}: files differ from clean run");
        }
    }

    /// Declaring the fabric faulty without installing an injector (the
    /// reliability layer runs, nothing is actually faulted) changes no
    /// output byte — the protocol rides inside DATA frames unmodified.
    #[test]
    fn reliability_layer_alone_changes_no_output_byte() {
        let (clean_files, clean_sum) = write_restart_cycle(None, None);
        let spec = rocnet::FaultSpec::none(9);
        let (files, sum) = write_restart_cycle(None, Some(spec));
        assert_eq!(sum, clean_sum);
        assert_eq!(files, clean_files);
    }

    /// Restart with a different server count and a different block
    /// distribution than the writing run (§4.1's flexibility claims).
    #[test]
    fn restart_with_different_servers_and_distribution() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(50, 1);
        // Write: 4 clients + 2 servers.
        run_ranks(6, ClusterSpec::ideal(6), |comm| {
            match init(&comm, &fs, RocpandaConfig::default(), &[0, 3]).unwrap() {
                Role::Server(mut s) => {
                    s.run().unwrap();
                }
                Role::Client { io: mut c, comm: app } => {
                    let ws = build_windows(app.rank(), 2);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    c.finalize().unwrap();
                }
            }
        });
        // Restart: 2 clients + 1 server; each new client owns two old
        // clients' blocks.
        let ok = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            match init(&comm, &fs, RocpandaConfig::default(), &[0]).unwrap() {
                Role::Server(mut s) => {
                    s.run().unwrap();
                    true
                }
                Role::Client { io: mut c, comm: app } => {
                    let me = app.rank();
                    let mut ws = Windows::new();
                    let w = ws.create_window("fluid").unwrap();
                    w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
                    for old in [me * 2, me * 2 + 1] {
                        for i in 0..2usize {
                            w.register_pane(
                                BlockId((old * 100 + i) as u64),
                                PaneMesh::Structured {
                                    dims: [3, 3, 3],
                                    origin: [0.0; 3],
                                    spacing: [1.0; 3],
                                },
                            )
                            .unwrap();
                        }
                    }
                    c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let ok = ws.window("fluid").unwrap().panes().all(|p| {
                        p.data("pressure")
                            .unwrap()
                            .as_f64()
                            .unwrap()
                            .iter()
                            .all(|&x| x == p.id.0 as f64)
                    });
                    c.finalize().unwrap();
                    ok
                }
            }
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Active buffering hides the write cost: on a slow file system the
    /// client's visible time must be far below the actual write time.
    #[test]
    fn active_buffering_hides_write_cost() {
        let snap = SnapshotId::new(0, 0);
        let visible_with = run_panda(true, snap);
        let visible_without = run_panda(false, snap);
        assert!(
            visible_with < visible_without / 3.0,
            "buffered {visible_with} not << unbuffered {visible_without}"
        );
    }

    fn run_panda(active_buffering: bool, snap: SnapshotId) -> f64 {
        let fs = SharedFs::turing();
        let cfg = RocpandaConfig {
            active_buffering,
            ..Default::default()
        };
        let out = run_ranks(3, ClusterSpec::turing(3), move |comm| {
            match init(&comm, &fs, cfg.clone(), &[0]).unwrap() {
                Role::Server(mut s) => {
                    s.run().unwrap();
                    -1.0
                }
                Role::Client { io: mut c, comm: app } => {
                    // Large blocks so disk time dominates protocol overhead.
                    let mut ws = Windows::new();
                    let w = ws.create_window("fluid").unwrap();
                    w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
                    for i in 0..8u64 {
                        w.register_pane(
                            BlockId(app.rank() as u64 * 100 + i),
                            PaneMesh::Structured {
                                dims: [20, 20, 20],
                                origin: [0.0; 3],
                                spacing: [1.0; 3],
                            },
                        )
                        .unwrap();
                    }
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let v = c.visible_io();
                    c.finalize().unwrap();
                    v
                }
            }
        });
        out.into_iter().filter(|&v| v >= 0.0).fold(0.0f64, f64::max)
    }

    /// sync() waits for buffered data to be durable.
    #[test]
    fn sync_flushes_buffers() {
        let fs = SharedFs::turing();
        let snap = SnapshotId::new(0, 0);
        run_ranks(2, ClusterSpec::turing(2), |comm| {
            match init(&comm, &fs, RocpandaConfig::default(), &[0]).unwrap() {
                Role::Server(mut s) => {
                    let stats = s.run().unwrap();
                    assert_eq!(stats.blocks_written, stats.blocks_buffered);
                    assert!(stats.files_finished >= 1);
                }
                Role::Client { io: mut c, comm: _app } => {
                    let ws = build_windows(0, 8);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let before = comm.now();
                    c.sync().unwrap();
                    assert!(comm.now() > before, "sync must cost time on a slow FS");
                    c.finalize().unwrap();
                }
            }
        });
        // After shutdown, the file must be complete and readable.
        let files = fs.list("out/");
        assert_eq!(files.len(), 1);
        let (r, _) = rocsdf::SdfFileReader::open(
            &fs,
            &files[0],
            rocsdf::LibraryModel::hdf4(),
            0,
            0.0,
        )
        .unwrap();
        assert_eq!(r.block_ids().len(), 8);
    }

    /// Tiny buffer capacity forces graceful overflow, and nothing is lost.
    /// The wide ACK window lets every block be legitimately in flight at
    /// once — with the default window of 1 the per-block handshake paces
    /// the client to the server's writes and the buffer can never fill.
    #[test]
    fn buffer_overflow_writes_through() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        let cfg = RocpandaConfig {
            buffer_capacity: 4096, // a couple of blocks at most
            ack_window: 64,
            ..Default::default()
        };
        let stats = run_ranks(2, ClusterSpec::ideal(2), move |comm| {
            match init(&comm, &fs, cfg.clone(), &[0]).unwrap() {
                Role::Server(mut s) => {
                    let st = s.run().unwrap();
                    Some(st)
                }
                Role::Client { io: mut c, comm: _app } => {
                    let ws = build_windows(0, 12);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    c.finalize().unwrap();
                    None
                }
            }
        });
        let st = stats[0].unwrap();
        assert!(st.buffer_overflows > 0, "tiny buffer must overflow");
        assert_eq!(st.blocks_written, 12);
        assert_eq!(st.files_finished, 1);
    }

    /// Buffer occupancy returns to zero once the queue drains: intake and
    /// drain account the same (wire) size per block. The capacity holds
    /// exactly one snapshot's blocks and every snapshot is synced, so the
    /// buffer can never legitimately overflow — with intake counting wire
    /// bytes but drain subtracting encoded bytes, the residue grew by a
    /// few hundred bytes per snapshot until every snapshot overflowed.
    #[test]
    fn synced_snapshots_never_overflow_a_one_snapshot_buffer() {
        const N_SNAPS: u64 = 40;
        const N_PANES: usize = 8;
        let ws = build_windows(0, N_PANES);
        let sel = AttrSelector::all("fluid");
        let blocks =
            roccom::convert::window_to_blocks(ws.window("fluid").unwrap(), &sel.attr).unwrap();
        let snapshot_wire_bytes: usize = blocks
            .into_iter()
            .map(|block| {
                let msg = crate::wire::BlockMsg {
                    snap: SnapshotId::new(0, 0),
                    window: "fluid".into(),
                    block,
                };
                msg.encode().len()
            })
            .sum();
        let fs = SharedFs::ideal();
        let cfg = RocpandaConfig {
            buffer_capacity: snapshot_wire_bytes,
            ack_window: 1,
            ..Default::default()
        };
        let stats = run_ranks(2, ClusterSpec::ideal(2), move |comm| {
            match init(&comm, &fs, cfg.clone(), &[0]).unwrap() {
                Role::Server(mut s) => Some(s.run().unwrap()),
                Role::Client { io: mut c, comm: _app } => {
                    for step in 0..N_SNAPS {
                        let snap = SnapshotId::new(step, 0);
                        c.write_attribute(&ws, &sel, snap).unwrap();
                        c.sync().unwrap();
                    }
                    c.finalize().unwrap();
                    None
                }
            }
        });
        let st = stats[0].unwrap();
        assert_eq!(st.blocks_written, N_SNAPS * N_PANES as u64);
        assert_eq!(st.buffer_overflows, 0, "occupancy drifted past a one-snapshot buffer");
    }

    /// Non-divisible client:server ratios: the client→server assignment
    /// must agree with the servers' own group partition (regression for a
    /// deadlock found by the protocol property test), including the
    /// degenerate more-servers-than-clients case where some groups are
    /// empty.
    #[test]
    fn uneven_and_empty_server_groups_round_trip() {
        for (n_clients, server_ranks) in [
            (3usize, vec![3usize, 4]),    // 3 clients, 2 servers (3/2 uneven)
            (1, vec![1, 2]),              // 1 client, 2 servers (one group empty)
            (5, vec![5, 6, 7]),           // 5 clients, 3 servers
        ] {
            let fs = SharedFs::ideal();
            let snap = SnapshotId::new(0, 0);
            let total = n_clients + server_ranks.len();
            let sr = server_ranks.clone();
            let ok = run_ranks(total, ClusterSpec::ideal(total), move |comm| {
                match init(&comm, &fs, RocpandaConfig::default(), &sr).unwrap() {
                    Role::Server(mut s) => {
                        s.run().unwrap();
                        true
                    }
                    Role::Client { io: mut c, comm: app } => {
                        let mut ws = build_windows(app.rank(), 2);
                        c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                            for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                                *x = -3.0;
                            }
                        }
                        c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                        let ok = ws.window("fluid").unwrap().panes().all(|p| {
                            p.data("pressure")
                                .unwrap()
                                .as_f64()
                                .unwrap()
                                .iter()
                                .all(|&x| x == p.id.0 as f64)
                        });
                        c.finalize().unwrap();
                        ok
                    }
                }
            });
            assert!(ok.iter().all(|&b| b), "{n_clients} clients failed");
        }
    }

    /// With the snapshot read cache on, an in-run restart is served
    /// entirely from the servers' buffered block handles: values come
    /// back exact and the file system sees zero read traffic — across
    /// uneven and empty server groups (the empty group votes "yes"
    /// vacuously and ships nothing).
    #[test]
    fn read_cache_serves_restart_without_touching_disk() {
        for (n_clients, server_ranks) in [
            (4usize, vec![0usize, 3]),
            (1, vec![1, 2]), // one server group is empty
        ] {
            let fs = SharedFs::ideal();
            let snap = SnapshotId::new(10, 0);
            let total = n_clients + server_ranks.len();
            let sr = server_ranks.clone();
            let cfg = RocpandaConfig {
                read_cache: true,
                ..Default::default()
            };
            let fs_ref = &fs;
            let results = run_ranks(total, ClusterSpec::ideal(total), move |comm| {
                match init(&comm, fs_ref, cfg.clone(), &sr).unwrap() {
                    Role::Server(mut s) => {
                        let stats = s.run().unwrap();
                        (f64::NAN, stats.restart_blocks_sent as f64)
                    }
                    Role::Client { io: mut c, comm: app } => {
                        let mut ws = build_windows(app.rank(), 2);
                        c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                        let written = sum_pressure(&ws);
                        for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                            for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                                *x = -3.0;
                            }
                        }
                        c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                        let restored = sum_pressure(&ws);
                        c.finalize().unwrap();
                        (written, restored)
                    }
                }
            });
            for (written, restored) in results.iter().filter(|(w, _)| !w.is_nan()) {
                assert_eq!(written, restored);
            }
            let shipped: f64 = results.iter().filter(|(w, _)| w.is_nan()).map(|(_, n)| n).sum();
            assert_eq!(shipped, (n_clients * 2) as f64, "{n_clients} clients");
            // The whole restart came out of server memory.
            assert_eq!(fs.stats().bytes_read, 0);
            assert_eq!(fs.stats().read_ops, 0);
        }
    }

    /// `read_cache` is read-your-writes only: a restart in a fresh server
    /// session finds empty caches, the vote fails, and the ordinary disk
    /// path serves the data.
    #[test]
    fn cold_restart_falls_back_to_the_disk_path() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(20, 0);
        let cfg = RocpandaConfig {
            read_cache: true,
            ..Default::default()
        };
        let write_cfg = cfg.clone();
        let fs_ref = &fs;
        run_ranks(6, ClusterSpec::ideal(6), move |comm| {
            match init(&comm, fs_ref, write_cfg.clone(), &[0, 3]).unwrap() {
                Role::Server(mut s) => {
                    s.run().unwrap();
                }
                Role::Client { io: mut c, comm: app } => {
                    let ws = build_windows(app.rank(), 2);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    c.finalize().unwrap();
                }
            }
        });
        let ok = run_ranks(6, ClusterSpec::ideal(6), move |comm| {
            match init(&comm, fs_ref, cfg.clone(), &[0, 3]).unwrap() {
                Role::Server(mut s) => {
                    s.run().unwrap();
                    true
                }
                Role::Client { io: mut c, comm: app } => {
                    let mut ws = build_windows(app.rank(), 2);
                    for pane in ws.window_mut("fluid").unwrap().panes_mut() {
                        for x in pane.data_mut("pressure").unwrap().as_f64_mut().unwrap() {
                            *x = -3.0;
                        }
                    }
                    c.read_attribute(&mut ws, &AttrSelector::all("fluid"), snap).unwrap();
                    let ok = ws.window("fluid").unwrap().panes().all(|p| {
                        p.data("pressure")
                            .unwrap()
                            .as_f64()
                            .unwrap()
                            .iter()
                            .all(|&x| x == p.id.0 as f64)
                    });
                    c.finalize().unwrap();
                    ok
                }
            }
        });
        assert!(ok.iter().all(|&b| b));
        assert!(fs.stats().bytes_read > 0, "cold restart must hit the disk");
    }

    /// Clients with zero panes still participate collectively.
    #[test]
    fn empty_client_participates() {
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        run_ranks(3, ClusterSpec::ideal(3), |comm| {
            match init(&comm, &fs, RocpandaConfig::default(), &[0]).unwrap() {
                Role::Server(mut s) => {
                    s.run().unwrap();
                }
                Role::Client { io: mut c, comm: app } => {
                    let n_panes = if app.rank() == 0 { 3 } else { 0 };
                    let ws = build_windows(c.client_comm().rank(), n_panes);
                    c.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
                    c.finalize().unwrap();
                }
            }
        });
        assert_eq!(fs.list("out/").len(), 1);
    }
}
