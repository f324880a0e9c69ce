//! Two-phase collective restart reads.
//!
//! The individual restart path has every rank hunt down its own blocks;
//! when the reading partition does not match the written layout, each
//! reader's accesses interleave with every other reader's and the file is
//! effectively re-read once per rank. Two-phase collective I/O ("Optimizing
//! Noncontiguous Accesses in MPI-IO", Thakur, Gropp, Lusk) fixes the access
//! pattern instead: a few **I/O-aggregator** ranks each read one contiguous
//! file domain exactly once (phase one), then redistribute the raw record
//! bytes over the network to whichever rank asked for them (phase two).
//!
//! Phase two copies no record byte and checksums each one once. The
//! aggregator's [`SdfFileReader::read_blocks_raw`] returns windows into
//! the frozen file image and verifies each record's payload CRC the first
//! time this file generation's record is read. It ships each block as a
//! scatter-gather list (a small header plus those windows), which
//! [`Comm::send_segments`] delivers as message parts by refcount. The
//! receiver decodes straight from the parts with `verify_crc = false`,
//! since the fabric is trusted. The records are self-describing, so no
//! re-encode happens on either side. The one copy of the restore is
//! `apply_block` writing the payload into the pane's typed buffer.
//!
//! Everything is deterministic: wanted-id lists travel through an
//! `allgather` (collective, virtual-ordered), files are assigned to
//! aggregators round-robin over the sorted listing, and receivers drain
//! messages in the fabric's virtual order. Restarting onto a *different*
//! rank count than the snapshot was written with needs no special casing —
//! the wanted lists describe the new partition and the aggregators route
//! accordingly.
//!
//! Failures do not strand anyone: an aggregator that cannot open or read a
//! file stops reading, still sends every peer its completion notice with
//! the error attached, and drains like everyone else. Every rank then
//! returns a `Corrupt` or `Storage` error naming the file.

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use rocio_core::{BlockId, DataBlock, Result, RocError, Segment, SimTime};
use rocnet::Comm;
use rocsdf::format::{block_prefix, decode_dataset_shared_with, parse_block_meta};
use rocsdf::{LibraryModel, SdfFileReader};
use rocstore::SharedFs;

use crate::config::RochdfConfig;
use roccom::{AttrSelector, Windows};

/// Tag of one redistributed block (header + raw record segments).
pub const TAG_TP_BLOCK: u32 = 0x0070_0001;
/// Tag of an aggregator's per-receiver completion notice: the number of
/// blocks it sent that receiver, then its error, if it failed.
pub const TAG_TP_DONE: u32 = 0x0070_0002;

/// Who wants each block: the phase-zero exchange.
type WantMap = BTreeMap<BlockId, Vec<usize>>;

/// Collective partitioned read: every rank of `comm` calls this with its
/// own `wanted` block ids; the first `n_aggregators` ranks read the
/// snapshot files under `prefix` (round-robin, one contiguous domain read
/// per file) and redistribute, and every rank returns with exactly the
/// blocks it asked for, sorted by id. Errors — a wanted block in no file,
/// an unreadable or corrupt file, a bad message — are reported after the
/// drain, so no rank is left waiting and no message is left queued.
pub fn read_partitioned(
    fs: &SharedFs,
    comm: &Comm,
    lib: LibraryModel,
    prefix: &str,
    wanted: &[BlockId],
    n_aggregators: usize,
) -> Result<(Vec<DataBlock>, SimTime)> {
    let size = comm.size();
    let rank = comm.rank();
    let n_agg = n_aggregators.clamp(1, size);

    // Phase zero: everyone learns who wants what (collective — every rank
    // participates even with an empty wanted list).
    let mut enc = Vec::with_capacity(wanted.len() * 8);
    for id in wanted {
        enc.extend_from_slice(&id.0.to_le_bytes());
    }
    let all = comm.allgather(&enc)?;
    let mut want_of = WantMap::new();
    for (r, bytes) in all.iter().enumerate() {
        for chunk in bytes.chunks_exact(8) {
            let id = BlockId(u64::from_le_bytes(chunk.try_into().map_err(|_| {
                RocError::Comm("two-phase: short id chunk".into())
            })?));
            want_of.entry(id).or_default().push(r);
        }
    }

    // Every rank checks the listing so a missing snapshot fails the whole
    // collective instead of stranding non-aggregators in their drain.
    let files = fs.list(prefix);
    if files.is_empty() {
        return Err(RocError::Storage(format!(
            "restart: no snapshot files under '{prefix}'"
        )));
    }

    let mut got: Vec<DataBlock> = Vec::new();
    let mut failure: Option<RocError> = None;
    let mut received: u64 = 0;
    let mut expected: u64 = 0;
    let mut dones = 0usize;
    let expect_dones = n_agg - usize::from(rank < n_agg);

    if rank < n_agg {
        // Phase one: read owned file domains; phase two: route each block
        // to its requesters. A failure stops this aggregator's reading but
        // not its notices, which carry the error to every peer.
        fs.declare_readers(n_agg);
        let client = comm.global_rank() as u64;
        let mut sent = vec![0u64; size];
        let mut now = comm.now();
        for path in files.iter().skip(rank).step_by(n_agg) {
            let step = SdfFileReader::open(fs, path, lib, client, now).and_then(|(reader, t)| {
                route_file(comm, &reader, &want_of, t, &mut got, &mut sent)
            });
            match step {
                Ok(t) => now = t,
                Err(e) => {
                    failure = Some(aggregator_error(rank, path, e));
                    break;
                }
            }
        }
        comm.clock().merge(now);
        for (dst, &n) in sent.iter().enumerate() {
            if dst != rank {
                comm.send(dst, TAG_TP_DONE, &encode_done(n, failure.as_ref()))?;
            }
        }
    }

    // Drain: all completion notices, plus every block they promise.
    while dones < expect_dones || received < expected {
        let msg = comm.recv(None, None)?;
        match msg.tag {
            TAG_TP_DONE => {
                let (n, err) = decode_done(&msg.payload)?;
                dones += 1;
                expected += n;
                if let Some(e) = err {
                    failure.get_or_insert(e);
                }
            }
            TAG_TP_BLOCK => {
                received += 1;
                match decode_block_msg(msg.payload.parts()) {
                    Ok(block) => got.push(block),
                    Err(e) => {
                        failure.get_or_insert(e);
                    }
                }
            }
            other => {
                return Err(RocError::Comm(format!(
                    "two-phase: unexpected tag {other:#x} during drain"
                )));
            }
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }

    let have: HashSet<BlockId> = got.iter().map(|b| b.id).collect();
    let mut missing: Vec<u64> =
        wanted.iter().filter(|id| !have.contains(id)).map(|id| id.0).collect();
    if !missing.is_empty() {
        missing.sort_unstable();
        return Err(RocError::NotFound(format!(
            "two-phase restart: blocks {missing:?} not found under '{prefix}'"
        )));
    }
    got.sort_by_key(|b| b.id);
    Ok((got, comm.now()))
}

/// One aggregator file, opened at `now`: read the wanted blocks' records
/// in one domain read (CRC-verified there) and route each block to its
/// requesters, keeping this rank's own. Returns the virtual completion
/// time of the reads; `sent` counts blocks shipped per destination.
fn route_file(
    comm: &Comm,
    reader: &SdfFileReader<'_>,
    want_of: &WantMap,
    now: SimTime,
    got: &mut Vec<DataBlock>,
    sent: &mut [u64],
) -> Result<SimTime> {
    let present: Vec<BlockId> = reader
        .block_ids()
        .into_iter()
        .filter(|id| want_of.contains_key(id))
        .collect();
    if present.is_empty() {
        return Ok(now);
    }
    let (raw, now) = reader.read_blocks_raw(&present, now)?;
    // Sends are eager, so no receive interleaving is needed for progress.
    comm.clock().merge(now);
    for (id, records) in &raw {
        for &dst in &want_of[id] {
            if dst == comm.rank() {
                got.push(decode_block(*id, records)?);
            } else {
                comm.send_segments(dst, TAG_TP_BLOCK, &encode_block(*id, records))?;
                sent[dst] += 1;
            }
        }
    }
    Ok(now)
}

/// An aggregator failure as every rank reports it: `Corrupt` stays
/// `Corrupt`, anything else becomes `Storage`, and the message names the
/// file.
fn aggregator_error(rank: usize, path: &str, e: RocError) -> RocError {
    let at = format!("two-phase restart: aggregator {rank} failed on '{path}'");
    match e {
        RocError::Corrupt(m) => RocError::Corrupt(format!("{at}: {m}")),
        other => RocError::Storage(format!("{at}: {other}")),
    }
}

/// Completion notice: `[u64 blocks sent]`, then for a failed aggregator
/// `[u8 kind]` (1 = corrupt, 2 = storage) and the UTF-8 error message.
fn encode_done(sent: u64, failure: Option<&RocError>) -> Vec<u8> {
    let mut out = sent.to_le_bytes().to_vec();
    match failure {
        None => {}
        Some(RocError::Corrupt(m)) => {
            out.push(1);
            out.extend_from_slice(m.as_bytes());
        }
        Some(other) => {
            out.push(2);
            let m = match other {
                RocError::Storage(m) => m.clone(),
                e => e.to_string(),
            };
            out.extend_from_slice(m.as_bytes());
        }
    }
    out
}

fn decode_done(payload: &[u8]) -> Result<(u64, Option<RocError>)> {
    let malformed = || RocError::Comm("two-phase: malformed done notice".into());
    let n = u64::from_le_bytes(
        payload.get(..8).ok_or_else(malformed)?.try_into().map_err(|_| malformed())?,
    );
    let err = match payload.get(8..) {
        None | Some([]) => None,
        Some([kind, text @ ..]) => {
            let m = String::from_utf8_lossy(text).into_owned();
            Some(match kind {
                1 => RocError::Corrupt(m),
                2 => RocError::Storage(m),
                _ => return Err(malformed()),
            })
        }
    };
    Ok((n, err))
}

/// Two-phase variant of the restart read: collective over `comm`, applying
/// the redistributed blocks to the selector's window. Returns this rank's
/// virtual completion time.
pub fn read_attribute_two_phase(
    fs: &SharedFs,
    comm: &Comm,
    cfg: &RochdfConfig,
    windows: &mut Windows,
    sel: &AttrSelector,
    snap: rocio_core::SnapshotId,
) -> Result<SimTime> {
    let wanted: Vec<BlockId> = windows.window(&sel.window)?.pane_ids();
    let prefix = cfg.prefix(&sel.window, snap);
    let (blocks, t) = read_partitioned(
        fs,
        comm,
        cfg.lib,
        &prefix,
        &wanted,
        cfg.read_aggregators,
    )?;
    for block in &blocks {
        roccom::convert::apply_block(windows.window_mut(&sel.window)?, block)?;
    }
    Ok(t)
}

/// Wire image of one redistributed block: `[u64 id][u32 n][u64 len]*n`
/// followed by the raw record bytes, meta record first. The records ride
/// as shared segments — windows into the aggregator's frozen file image.
fn encode_block(id: BlockId, records: &[Bytes]) -> Vec<Segment> {
    let mut header = Vec::with_capacity(12 + records.len() * 8);
    header.extend_from_slice(&id.0.to_le_bytes());
    header.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        header.extend_from_slice(&(r.len() as u64).to_le_bytes());
    }
    let mut segs = Vec::with_capacity(1 + records.len());
    segs.push(Segment::Owned(header));
    segs.extend(records.iter().cloned().map(Segment::Shared));
    segs
}

/// A cursor over a message's parts read as one byte stream. A take that
/// lies within one part is a zero-copy window (the normal case: the
/// header is one part and each record another); one that straddles parts
/// is copied, so any split of the same bytes decodes identically.
struct PartsCursor<'a> {
    parts: &'a [Bytes],
    part: usize,
    pos: usize,
    left: usize,
}

impl<'a> PartsCursor<'a> {
    fn new(parts: &'a [Bytes]) -> Self {
        let left = parts.iter().map(Bytes::len).sum();
        PartsCursor { parts, part: 0, pos: 0, left }
    }

    fn take(&mut self, n: usize) -> Result<Bytes> {
        if n > self.left {
            return Err(truncated());
        }
        self.left -= n;
        while self.parts.get(self.part).is_some_and(|p| self.pos == p.len()) {
            self.part += 1;
            self.pos = 0;
        }
        if let Some(cur) = self.parts.get(self.part).filter(|p| self.pos + n <= p.len()) {
            self.pos += n;
            return Ok(cur.slice(self.pos - n..self.pos));
        }
        // Straddles parts; `left` guarantees the parts hold `n` more bytes.
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let cur = &self.parts[self.part];
            let k = (n - out.len()).min(cur.len() - self.pos);
            out.extend_from_slice(&cur[self.pos..self.pos + k]);
            self.pos += k;
            if self.pos == cur.len() {
                self.part += 1;
                self.pos = 0;
            }
        }
        Ok(Bytes::from(out))
    }

    fn take_le<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?.as_ref().try_into().map_err(|_| truncated())
    }
}

fn truncated() -> RocError {
    RocError::Comm("two-phase: truncated block message".into())
}

fn decode_block_msg(parts: &[Bytes]) -> Result<DataBlock> {
    let mut cur = PartsCursor::new(parts);
    let id = BlockId(u64::from_le_bytes(cur.take_le()?));
    let n = u32::from_le_bytes(cur.take_le()?) as usize;
    if n.saturating_mul(8) > cur.left {
        return Err(truncated());
    }
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        lens.push(u64::from_le_bytes(cur.take_le()?) as usize);
    }
    let mut records = Vec::with_capacity(n);
    for len in lens {
        records.push(cur.take(len)?);
    }
    if cur.left != 0 {
        return Err(RocError::Comm("two-phase: trailing bytes in block message".into()));
    }
    decode_block(id, &records)
}

/// Decode a block from its raw record images (meta first). The payload
/// CRCs are not recomputed: [`SdfFileReader::read_blocks_raw`] verified
/// these exact bytes in the current file generation before they left the
/// aggregator.
fn decode_block(id: BlockId, records: &[Bytes]) -> Result<DataBlock> {
    let meta = records
        .first()
        .ok_or_else(|| RocError::Corrupt(format!("two-phase: block {id} with no records")))?;
    let meta = decode_dataset_shared_with(meta, &mut 0, false)?;
    let (got_id, window, attrs) = parse_block_meta(&meta)?;
    if got_id != id {
        return Err(RocError::Corrupt(format!(
            "two-phase: block meta id {got_id} != shipped {id}"
        )));
    }
    let prefix = block_prefix(id);
    let mut block = DataBlock::new(id, window);
    block.attrs = attrs;
    for rec in &records[1..] {
        let mut ds = decode_dataset_shared_with(rec, &mut 0, false)?;
        ds.name = ds
            .name
            .strip_prefix(&prefix)
            .ok_or_else(|| {
                RocError::Corrupt(format!(
                    "two-phase: record '{}' outside block {id}",
                    ds.name
                ))
            })?
            .to_string();
        block.push_dataset(ds)?;
    }
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{DType, Dataset, SnapshotId};
    use rocnet::cluster::ClusterSpec;
    use rocnet::run_ranks;
    use rocsdf::SdfFileWriter;

    fn write_snapshot(fs: &SharedFs, n_writers: usize, blocks_per: usize) -> Vec<DataBlock> {
        let cfg = RochdfConfig::default();
        let snap = SnapshotId::new(0, 0);
        let mut all = Vec::new();
        for w in 0..n_writers {
            let path = cfg.path("fluid", snap, w);
            let (mut fw, mut t) = SdfFileWriter::create(fs, &path, cfg.lib, w as u64, 0.0).unwrap();
            for b in 0..blocks_per {
                let id = BlockId((w * blocks_per + b) as u64);
                let block = DataBlock::new(id, "fluid").with_dataset(
                    Dataset::vector("pressure", vec![id.0 as f64 + 0.5; 32])
                        .with_attr("units", "Pa"),
                );
                t = fw.append_block(&block, t).unwrap();
                all.push(block);
            }
            fw.finish(t).unwrap();
        }
        all
    }

    #[test]
    fn partitioned_read_redistributes_onto_fewer_ranks() {
        // Written by 6 writers, read back by 3 ranks with a shuffled
        // partition (round-robin by id, nothing like the written layout).
        let fs = SharedFs::turing();
        let all = write_snapshot(&fs, 6, 4);
        let cfg = RochdfConfig::default();
        let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
        let want: Vec<Vec<BlockId>> = (0..3)
            .map(|r| all.iter().map(|b| b.id).filter(|id| id.0 as usize % 3 == r).collect())
            .collect();
        let blocks = {
            run_ranks(3, ClusterSpec::turing(3), |comm| {
                let (blocks, t) = read_partitioned(
                    &fs,
                    &comm,
                    LibraryModel::hdf4(),
                    &prefix,
                    &want[comm.rank()],
                    2,
                )
                .unwrap();
                assert!(t > 0.0);
                blocks
            })
        };
        for (r, got) in blocks.iter().enumerate() {
            let mut expect: Vec<DataBlock> = all
                .iter()
                .filter(|b| b.id.0 as usize % 3 == r)
                .cloned()
                .collect();
            expect.sort_by_key(|b| b.id);
            assert_eq!(got, &expect, "rank {r}");
        }
    }

    #[test]
    fn single_rank_single_aggregator_reads_locally() {
        let fs = SharedFs::ideal();
        let all = write_snapshot(&fs, 2, 3);
        let cfg = RochdfConfig::default();
        let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
        let ids: Vec<BlockId> = all.iter().map(|b| b.id).collect();
        let out = run_ranks(1, ClusterSpec::ideal(1), |comm| {
            read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &ids, 8).unwrap().0
        });
        assert_eq!(out[0].len(), all.len());
    }

    #[test]
    fn missing_block_errors_on_the_wanting_rank_only() {
        let fs = SharedFs::ideal();
        write_snapshot(&fs, 2, 2);
        let cfg = RochdfConfig::default();
        let prefix = cfg.prefix("fluid", SnapshotId::new(0, 0));
        let out = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let want = if comm.rank() == 0 {
                vec![BlockId(0), BlockId(999)]
            } else {
                vec![BlockId(1)]
            };
            read_partitioned(&fs, &comm, LibraryModel::hdf4(), &prefix, &want, 2).is_err()
        });
        assert!(out[0], "rank 0 wanted a ghost block");
        assert!(!out[1], "rank 1's read must succeed");
    }

    #[test]
    fn missing_snapshot_fails_every_rank_without_hanging() {
        let fs = SharedFs::ideal();
        let out = run_ranks(3, ClusterSpec::ideal(3), |comm| {
            read_partitioned(
                &fs,
                &comm,
                LibraryModel::hdf4(),
                "out/nothing_here",
                &[BlockId(comm.rank() as u64)],
                2,
            )
            .is_err()
        });
        assert!(out.iter().all(|&e| e));
    }

    #[test]
    fn block_message_round_trips_and_rejects_garbage() {
        let block = DataBlock::new(BlockId(7), "fluid")
            .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]).with_attr("units", "Pa"))
            .with_attr("material", "gas");
        // Encode the block's records the way a file stores them.
        let fs = SharedFs::ideal();
        let (mut w, t) =
            SdfFileWriter::create(&fs, "one.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "one.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let (raw, _) = r.read_blocks_raw(&[BlockId(7)], t).unwrap();
        let records = &raw[0].1;
        let segs = encode_block(BlockId(7), records);
        // On the wire: the header is one part, each record its own part
        // sharing the file image's buffer.
        let payload = rocnet::Payload::from_segments(&segs);
        let parts = payload.parts().to_vec();
        assert_eq!(parts.len(), 1 + records.len());
        assert_eq!(parts[1].as_ptr(), records[0].as_ptr());
        assert_eq!(decode_block_msg(&parts).unwrap(), block);
        // Any other split of the same bytes decodes identically.
        let image = Bytes::from(rocio_core::segments_to_vec(&segs));
        assert_eq!(decode_block_msg(std::slice::from_ref(&image)).unwrap(), block);
        let chunks: Vec<Bytes> = (0..image.len())
            .step_by(5)
            .map(|at| image.slice(at..(at + 5).min(image.len())))
            .collect();
        assert_eq!(decode_block_msg(&chunks).unwrap(), block);
        // Truncated headers are rejected, never panic.
        let header = &parts[0];
        for cut in [0, 4, 11, 12, header.len() - 1] {
            let mut cut_parts = vec![header.slice(..cut)];
            if cut >= 12 {
                cut_parts.extend(parts[1..].iter().cloned());
            }
            assert!(decode_block_msg(&cut_parts).is_err(), "header cut at {cut}");
        }
        assert!(decode_block_msg(&[]).is_err());
        // Length fields that disagree with the parts are rejected: a
        // record claimed one byte longer or shorter, a missing record
        // part, a trailing extra part, and a huge record count.
        for delta in [1i64, -1] {
            let mut h = header.to_vec();
            let at = 12;
            let len = u64::from_le_bytes(h[at..at + 8].try_into().unwrap());
            h[at..at + 8].copy_from_slice(&((len as i64 + delta) as u64).to_le_bytes());
            let mut bad = vec![Bytes::from(h)];
            bad.extend(parts[1..].iter().cloned());
            assert!(decode_block_msg(&bad).is_err(), "length off by {delta}");
        }
        assert!(decode_block_msg(&parts[..parts.len() - 1]).is_err(), "missing record");
        let mut extra = parts.clone();
        extra.push(Bytes::from(vec![0u8]));
        assert!(decode_block_msg(&extra).is_err(), "trailing part");
        let mut huge = header.to_vec();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_block_msg(&[Bytes::from(huge)]).is_err(), "record count");
    }

    #[test]
    fn attribute_read_via_two_phase_restores_windows() {
        use roccom::{AttrSpec, PaneMesh};
        let fs = SharedFs::ideal();
        let snap = SnapshotId::new(0, 0);
        // Write with 4 ranks through the normal writer.
        run_ranks(4, ClusterSpec::ideal(4), {
            |comm| {
                let mut ws = Windows::new();
                let w = ws.create_window("fluid").unwrap();
                w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
                for i in 0..2usize {
                    let id = BlockId((comm.rank() * 100 + i) as u64);
                    w.register_pane(
                        id,
                        PaneMesh::Structured {
                            dims: [2 + i, 2, 2],
                            origin: [i as f64, 0.0, 0.0],
                            spacing: [0.5; 3],
                        },
                    )
                    .unwrap();
                    let n = w.pane(id).unwrap().data("pressure").unwrap().len();
                    w.pane_mut(id)
                        .unwrap()
                        .set_data("pressure", rocio_core::ArrayData::F64(vec![3.0 + id.0 as f64; n]))
                        .unwrap();
                }
                let mut io = crate::Rochdf::new(&fs, &comm, RochdfConfig::default());
                use roccom::IoService;
                io.write_attribute(&ws, &AttrSelector::all("fluid"), snap).unwrap();
            }
        });
        // Restart with 2 ranks via the two-phase path.
        let ok = run_ranks(2, ClusterSpec::ideal(2), |comm| {
            let mut ws = Windows::new();
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("pressure", DType::F64, 1)).unwrap();
            for old in [comm.rank() * 2, comm.rank() * 2 + 1] {
                for i in 0..2usize {
                    let id = BlockId((old * 100 + i) as u64);
                    w.register_pane(
                        id,
                        PaneMesh::Structured {
                            dims: [2 + i, 2, 2],
                            origin: [i as f64, 0.0, 0.0],
                            spacing: [0.5; 3],
                        },
                    )
                    .unwrap();
                }
            }
            let cfg = RochdfConfig { read_aggregators: 2, ..Default::default() };
            read_attribute_two_phase(
                &fs,
                &comm,
                &cfg,
                &mut ws,
                &AttrSelector::all("fluid"),
                snap,
            )
            .unwrap();
            let w = ws.window("fluid").unwrap();
            let restored = w.panes().all(|p| {
                let v = p.data("pressure").unwrap().as_f64().unwrap();
                v.iter().all(|&x| x == 3.0 + p.id.0 as f64)
            });
            restored
        });
        assert!(ok.iter().all(|&b| b));
    }
}
