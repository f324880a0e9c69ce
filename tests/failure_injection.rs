//! Failure injection: corrupted and missing snapshot files must surface
//! clean errors, never bad data or hangs on the error-free paths.

use std::sync::Arc;

use genx_repro::core::{snapshot_file_name, ArrayData, BlockId, DType, SnapshotId};
use genx_repro::roccom::{AttrSpec, IoService, PaneMesh, Windows};
use genx_repro::rocnet::cluster::ClusterSpec;
use genx_repro::rocnet::run_ranks;
use genx_repro::rocsdf::{describe, LibraryModel, SdfFileReader};
use genx_repro::rocstore::SharedFs;
use genx_repro::rochdf::{Rochdf, RochdfConfig};

fn write_one_snapshot(fs: &SharedFs) -> SnapshotId {
    let snap = SnapshotId::new(10, 1);
    run_ranks(1, ClusterSpec::ideal(1), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.register_pane(
            BlockId(3),
            PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        w.pane_mut(BlockId(3))
            .unwrap()
            .set_data("p", ArrayData::F64(vec![7.0; 8]))
            .unwrap();
        let mut io = Rochdf::new(fs, &comm, RochdfConfig::default());
        io.write_attribute(&ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap)
            .unwrap();
    });
    snap
}

#[test]
fn corrupted_trailer_fails_open_cleanly() {
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs);
    let path = format!("out/{}", snapshot_file_name("fluid", snap, 0));
    // Flip bytes in the trailer (index offset + magic).
    let len = fs.file_size(&path).unwrap();
    fs.write_at(&path, len - 6, b"XXXX", 0, 0.0).unwrap();
    let err = SdfFileReader::open(&fs, &path, LibraryModel::hdf4(), 0, 0.0);
    assert!(err.is_err());
    // The sequential inspector still recovers the record prefix.
    let (bytes, _) = fs.read_all(&path, 0, 0.0).unwrap();
    let desc = describe(&bytes).unwrap();
    assert_eq!(desc.datasets.len(), 3); // meta + nc + p
}

#[test]
fn corrupted_payload_fails_block_read() {
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs);
    let path = format!("out/{}", snapshot_file_name("fluid", snap, 0));
    // Smash the middle of the file (inside the records region) with a
    // pattern that cannot be a valid record marker.
    fs.write_at(&path, 40, &[0xAB; 12], 0, 0.0).unwrap();
    let opened = SdfFileReader::open(&fs, &path, LibraryModel::hdf4(), 0, 0.0);
    match opened {
        Err(_) => {} // index region shifted — fine
        Ok((r, t)) => {
            // The record CRC catches damage even when the structure still
            // parses: at least one dataset read must fail, and no read may
            // return silently-wrong bytes.
            let mut any_err = false;
            for name in r.dataset_names() {
                if r.read_dataset(name, t).is_err() {
                    any_err = true;
                }
            }
            assert!(any_err, "corruption must be detected by the CRC");
        }
    }
}

#[test]
fn restart_missing_block_is_reported() {
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs);
    run_ranks(1, ClusterSpec::ideal(1), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        // Ask for a block that was never written.
        w.register_pane(
            BlockId(99),
            PaneMesh::Structured {
                dims: [1, 1, 1],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
        let err = io.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap);
        assert!(matches!(err, Err(genx_repro::core::RocError::NotFound(_))));
    });
}

#[test]
fn schema_evolution_reads_old_snapshots() {
    // "The data management and I/O implementation need to shield
    // developers from updates" (§3.2): a snapshot written under an old
    // schema restarts into a window that has since gained an attribute —
    // the new attribute keeps its initial values.
    let fs = SharedFs::ideal();
    let snap = write_one_snapshot(&fs); // schema v1: just "p"
    run_ranks(1, ClusterSpec::ideal(1), |comm| {
        let mut ws = Windows::new();
        let w = ws.create_window("fluid").unwrap();
        w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
        w.declare_attr(AttrSpec::element("q_new", DType::F64, 1)).unwrap(); // added in v2
        w.register_pane(
            BlockId(3),
            PaneMesh::Structured {
                dims: [2, 2, 2],
                origin: [0.0; 3],
                spacing: [1.0; 3],
            },
        )
        .unwrap();
        let mut io = Rochdf::new(&fs, &comm, RochdfConfig::default());
        io.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap)
            .unwrap();
        let w = ws.window("fluid").unwrap();
        let pane = w.pane(BlockId(3)).unwrap();
        assert_eq!(pane.data("p").unwrap().as_f64().unwrap(), &[7.0; 8]);
        // The attribute unknown to the old file stays zero-initialized.
        assert_eq!(pane.data("q_new").unwrap().as_f64().unwrap(), &[0.0; 8]);
    });
}

// ---------------------------------------------------------------------
// Rocpanda path: a damaged snapshot must surface a clean error through
// the server→client restart protocol — never a hang. The server reports
// its scan failure with READ_ERR and stays alive, so `finalize` (and the
// run itself) still completes on every rank.
// ---------------------------------------------------------------------

use genx_repro::rocpanda::{init as panda_init, Role, RocpandaConfig};

fn panda_windows(idx: usize, n_panes: usize) -> Windows {
    let mut ws = Windows::new();
    let w = ws.create_window("fluid").unwrap();
    w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
    for i in 0..n_panes {
        let id = BlockId((idx * 100 + i) as u64);
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
            .set_data("p", ArrayData::F64(vec![id.0 as f64; 27]))
            .unwrap();
    }
    ws
}

/// 2 clients + the given servers write one snapshot through Rocpanda.
fn write_panda_snapshot(fs: &SharedFs, servers: &[usize]) -> SnapshotId {
    let snap = SnapshotId::new(20, 2);
    let total = 2 + servers.len();
    let sv = servers.to_vec();
    run_ranks(total, ClusterSpec::ideal(total), move |comm| {
        match panda_init(&comm, fs, RocpandaConfig::default(), &sv).unwrap() {
            Role::Server(mut s) => {
                s.run().unwrap();
            }
            Role::Client { io: mut c, comm: app } => {
                let ws = panda_windows(app.rank(), 2);
                c.write_attribute(&ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap)
                    .unwrap();
                c.finalize().unwrap();
            }
        }
    });
    snap
}

/// Restart the same population. Returns one entry per client: `None` if
/// `read_attribute` succeeded, `Some(error text)` if it failed. The run
/// itself must complete — servers keep serving after a failed restart, so
/// `finalize` is still collective and nobody hangs.
fn panda_restart(fs: &SharedFs, servers: &[usize], snap: SnapshotId) -> Vec<String> {
    let total = 2 + servers.len();
    let sv = servers.to_vec();
    let out = run_ranks(total, ClusterSpec::ideal(total), move |comm| {
        match panda_init(&comm, fs, RocpandaConfig::default(), &sv).unwrap() {
            Role::Server(mut s) => {
                s.run().unwrap();
                None
            }
            Role::Client { io: mut c, comm: app } => {
                let mut ws = panda_windows(app.rank(), 2);
                let res =
                    c.read_attribute(&mut ws, &genx_repro::roccom::AttrSelector::all("fluid"), snap);
                c.finalize().unwrap();
                Some(res.err().map(|e| e.to_string()).unwrap_or_default())
            }
        }
    });
    out.into_iter().flatten().collect()
}

#[test]
fn panda_restart_truncated_file_errors_cleanly() {
    let fs = SharedFs::ideal();
    let snap = write_panda_snapshot(&fs, &[0]);
    let files = fs.list("out/");
    assert_eq!(files.len(), 1);
    // Chop the trailer (and then some) off the snapshot file.
    let (bytes, _) = fs.read_all(&files[0], 0, 0.0).unwrap();
    fs.create(&files[0], 0, 0.0);
    fs.write_at(&files[0], 0, &bytes[..bytes.len() - 10], 0, 0.0).unwrap();
    let errs = panda_restart(&fs, &[0], snap);
    assert_eq!(errs.len(), 2);
    for e in errs {
        assert!(
            e.contains("restart failed at server"),
            "client must see a clean server error, got '{e}'"
        );
    }
}

#[test]
fn panda_restart_corrupted_checksum_errors_cleanly() {
    let fs = SharedFs::ideal();
    // Two servers: only one scans the damaged file, yet both must pass the
    // pre-scan barrier and every client must still get a terminal message.
    let snap = write_panda_snapshot(&fs, &[0, 3]);
    let files = fs.list("out/");
    assert_eq!(files.len(), 2);
    // Round-robin assignment: server 0 scans files[0]. Smash the middle of
    // the records region so either the record structure or its CRC breaks.
    let mid = fs.file_size(&files[0]).unwrap() / 2;
    fs.write_at(&files[0], mid, &[0xAB; 32], 0, 0.0).unwrap();
    let errs = panda_restart(&fs, &[0, 3], snap);
    assert_eq!(errs.len(), 2);
    for e in errs {
        assert!(
            e.contains("restart failed at server"),
            "client must see a clean server error, got '{e}'"
        );
    }
}

#[test]
fn panda_restart_missing_files_errors_cleanly() {
    let fs = SharedFs::ideal();
    let snap = write_panda_snapshot(&fs, &[0]);
    for f in fs.list("out/") {
        fs.delete(&f).unwrap();
    }
    let errs = panda_restart(&fs, &[0], snap);
    assert_eq!(errs.len(), 2);
    for e in errs {
        assert!(e.contains("restart failed at server"), "got '{e}'");
    }
}

#[test]
fn disk_full_surfaces_as_storage_error() {
    use genx_repro::genx::{run_genx, GenxConfig, IoChoice, WorkloadKind};
    let fs = Arc::new(SharedFs::ideal());
    fs.set_quota(512 * 1024); // far less than one snapshot
    let mut cfg = GenxConfig::new(
        "disk-full",
        WorkloadKind::LabScale {
            seed: 1,
            scale: 0.05,
        },
        IoChoice::Rochdf,
    );
    cfg.steps = 2;
    cfg.snapshot_every = 2;
    // Single rank: the failure path has no collective partner to strand.
    let err = run_genx(ClusterSpec::ideal(1), &fs, &cfg);
    match err {
        Err(genx_repro::core::RocError::Storage(msg)) => {
            assert!(msg.contains("disk full"), "{msg}")
        }
        other => panic!("expected Storage(disk full), got {other:?}"),
    }
}

// --- two-phase collective restart ------------------------------------------

/// Run `f` on a helper thread and fail if it has not returned within
/// `secs`: a collective that strands a rank must fail the test, not wedge
/// the suite.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || tx.send(f()).is_ok());
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(v) => {
            worker.join().expect("worker exits after sending");
            v
        }
        // A hung worker cannot be joined; failing the test is the point.
        Err(RecvTimeoutError::Timeout) => panic!("two-phase restart hung for {secs} s"),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("the worker either sends or panics"),
        },
    }
}

/// The marker value every element of block `id` holds.
fn tp_marker(id: u64) -> f64 {
    1000.25 + id as f64
}

/// Four writer files of two blocks each (ids 0..8), written directly.
fn write_tp_snapshot(fs: &SharedFs) -> (String, Vec<String>) {
    use genx_repro::core::{DataBlock, Dataset};
    use genx_repro::rocsdf::SdfFileWriter;
    let cfg = RochdfConfig::default();
    let snap = SnapshotId::new(0, 0);
    for w in 0..4u64 {
        let path = cfg.path("fluid", snap, w as usize);
        let (mut fw, mut t) = SdfFileWriter::create(fs, &path, cfg.lib, w, 0.0).unwrap();
        for b in 0..2 {
            let id = w * 2 + b;
            let block = DataBlock::new(BlockId(id), "fluid")
                .with_dataset(Dataset::vector("p", vec![tp_marker(id); 16]));
            t = fw.append_block(&block, t).unwrap();
        }
        fw.finish(t).unwrap();
    }
    let prefix = cfg.prefix("fluid", snap);
    let files = fs.list(&prefix);
    assert_eq!(files.len(), 4);
    (prefix, files)
}

/// One two-phase restore of the 8 blocks onto 3 ranks (round-robin by id)
/// with 2 aggregators, under a watchdog. Per rank: the restored block ids
/// and marker checks, or the error.
fn tp_restore(
    fs: &Arc<SharedFs>,
    prefix: &str,
) -> Vec<Result<Vec<u64>, genx_repro::core::RocError>> {
    let (fs, prefix) = (Arc::clone(fs), prefix.to_string());
    with_watchdog(60, move || {
        run_ranks(3, ClusterSpec::ideal(3), |comm| {
            let want: Vec<BlockId> =
                (0..8u64).filter(|id| *id as usize % 3 == comm.rank()).map(BlockId).collect();
            let (blocks, _) = genx_repro::rochdf::read_partitioned(
                &fs,
                &comm,
                LibraryModel::hdf4(),
                &prefix,
                &want,
                2,
            )?;
            for b in &blocks {
                let v = b.dataset("p").unwrap().data.to_typed().unwrap();
                assert!(v.as_f64().unwrap().iter().all(|&x| x == tp_marker(b.id.0)));
            }
            Ok(blocks.iter().map(|b| b.id.0).collect())
        })
    })
}

/// Flip one bit of the first payload element of block `id` in `path`.
/// `rewrite_image` starts a new file generation, like any real rewrite.
fn flip_payload_bit(fs: &SharedFs, path: &str, id: u64) {
    fs.rewrite_image(path, |v| {
        let at = v
            .windows(8)
            .position(|w| w == tp_marker(id).to_le_bytes())
            .expect("marker present in the file");
        v[at] ^= 0x01;
    })
    .unwrap();
}

fn assert_every_rank_corrupt(
    out: &[Result<Vec<u64>, genx_repro::core::RocError>],
    path: &str,
) {
    assert_eq!(out.len(), 3);
    for (r, res) in out.iter().enumerate() {
        match res {
            Err(genx_repro::core::RocError::Corrupt(m)) => {
                assert!(m.contains(path), "rank {r}: error must name '{path}': {m}")
            }
            other => panic!("rank {r}: expected Corrupt naming '{path}', got {other:?}"),
        }
    }
}

#[test]
fn two_phase_corrupt_header_fails_every_rank_without_hanging() {
    let fs = Arc::new(SharedFs::ideal());
    let (prefix, files) = write_tp_snapshot(&fs);
    // files[0] belongs to aggregator 0: its open fails on the bad magic.
    fs.rewrite_image(&files[0], |v| v[0] ^= 0xFF).unwrap();
    assert_every_rank_corrupt(&tp_restore(&fs, &prefix), &files[0]);
}

#[test]
fn two_phase_corrupt_payload_fails_every_rank_cold() {
    let fs = Arc::new(SharedFs::ideal());
    let (prefix, files) = write_tp_snapshot(&fs);
    // files[1] (blocks 2 and 3) belongs to aggregator 1; the record
    // structure still parses, only the payload CRC catches the damage.
    flip_payload_bit(&fs, &files[1], 3);
    assert_every_rank_corrupt(&tp_restore(&fs, &prefix), &files[1]);
}

#[test]
fn two_phase_corrupt_payload_fails_after_a_warm_restore() {
    let fs = Arc::new(SharedFs::ideal());
    let (prefix, files) = write_tp_snapshot(&fs);
    // A clean restore marks every record verified for this generation.
    let clean = tp_restore(&fs, &prefix);
    let ids: Vec<Vec<u64>> = clean.into_iter().map(Result::unwrap).collect();
    assert_eq!(ids, vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
    // The rewrite starts a new generation: the old flags must not mask it.
    flip_payload_bit(&fs, &files[2], 4);
    assert_every_rank_corrupt(&tp_restore(&fs, &prefix), &files[2]);
    // Repairing the file (another generation) restores cleanly again:
    // the failed collective left nothing behind.
    fs.rewrite_image(&files[2], |v| {
        let mut bad = tp_marker(4).to_le_bytes();
        bad[0] ^= 0x01;
        let at = v.windows(8).position(|w| w == bad).expect("damaged marker present");
        v[at] ^= 0x01;
    })
    .unwrap();
    assert!(tp_restore(&fs, &prefix).iter().all(Result::is_ok));
}
