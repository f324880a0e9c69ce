//! `hostperf`: **wall-clock host throughput** of the write data path,
//! before vs after the zero-copy refactor, on a Fig. 3(a)-scale block
//! set (128 compute ranks, one snapshot).
//!
//! Two pipelines move the same snapshot through encode → transport →
//! drain:
//!
//! * **legacy** reconstructs the pre-zero-copy path: clone-and-rename
//!   every dataset, contiguous encode into a fresh buffer, copy the
//!   payload into the envelope at send, typed (deep-copy) decode on the
//!   server, re-encode each record into a fresh buffer at drain, one
//!   store write per record.
//! * **zero_copy** is the shipped path: scatter-gather encode into
//!   pooled staging buffers with shared payloads, one copy of the owned
//!   runs in `send_segments`, `decode_shared` payload windows into the message
//!   bytes, pooled drain through `SdfFileWriter::append_block` with one
//!   scatter-gather store write per block.
//!
//! This measures *host* cost (memcpy + allocator traffic) only. The
//! simulation's virtual-time results are unchanged by construction —
//! both forms produce byte-identical wire images (asserted here at
//! setup) — see DESIGN.md §4 "Host data path".
//!
//! ```text
//! cargo run --release -p bench --bin hostperf [--quick] [--out BENCH_PR3.json]
//! ```
//!
//! The CI smoke step runs `--quick`: it gates on "the pipelines run and
//! agree", not on a throughput ratio (shared runners are too noisy for
//! that); the committed `BENCH_PR3.json` is regenerated in full mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{black_box, Criterion};
use rocio_core::{
    segments_to_vec, ArrayData, AttrValue, BlockId, DataBlock, Dataset, DType, Segment,
    SnapshotId,
};
use rocpanda::wire::BlockMsg;
use rocsdf::format::{block_meta_dataset, block_prefix, crc32, encode_dataset_into, CRC_ATTR};
use rocsdf::{LibraryModel, SdfFileWriter, SegmentPool};
use rocstore::SharedFs;

/// Allocator wrapper counting calls and bytes, so the report shows the
/// allocator-traffic side of the win, not just seconds.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_stats() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Deterministic pseudo-field so payload bytes are not constant.
fn field(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000_000) as f64 / 1e3
        })
        .collect()
}

/// One rank's snapshot block: pressure + velocity + temperature, sized
/// like the Fig. 3(a) cylinder workload's per-rank share.
fn make_block(rank: usize, cells: usize, shared: bool) -> DataBlock {
    let mk = |name: &str, data: Vec<f64>| {
        let ds = Dataset::vector(name, data);
        if shared {
            // The zero-copy application keeps snapshot payloads in
            // wire-ready shared buffers: one LE conversion at creation,
            // refcounted handles everywhere after.
            let mut le = Vec::with_capacity(ds.data.len() * 8);
            ds.data.to_le_bytes(&mut le);
            let data = ArrayData::from_le_shared(DType::F64, ds.data.len(), le.into())
                .expect("shared field");
            Dataset::new(ds.name, ds.shape, data).expect("shared dataset")
        } else {
            ds
        }
    };
    DataBlock::new(BlockId(rank as u64), "fluid")
        .with_dataset(mk("pressure", field(cells, rank as u64)))
        .with_dataset(mk("velocity", field(3 * cells, 7 + rank as u64)))
        .with_dataset(mk("temperature", field(cells, 131 + rank as u64)))
        .with_attr("rank", rank as i64)
}

fn msg_of(block: &DataBlock) -> BlockMsg {
    BlockMsg {
        snap: SnapshotId::new(4, 0),
        window: "fluid".into(),
        block: block.clone(),
    }
}

/// The seed's `BlockMsg::encode`: routing header, then clone-and-rename
/// each dataset and contiguous-encode it into a fresh buffer.
fn legacy_encode(msg: &BlockMsg) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&msg.snap.step.to_le_bytes());
    out.extend_from_slice(&msg.snap.ordinal.to_le_bytes());
    out.extend_from_slice(&(msg.window.len() as u16).to_le_bytes());
    out.extend_from_slice(msg.window.as_bytes());
    out.extend_from_slice(&(1 + msg.block.datasets.len() as u32).to_le_bytes());
    encode_dataset_into(&block_meta_dataset(&msg.block), None, None, &mut out);
    let prefix = block_prefix(msg.block.id);
    for ds in &msg.block.datasets {
        let mut renamed = ds.clone();
        renamed.name = format!("{prefix}{}", ds.name);
        encode_dataset_into(&renamed, None, None, &mut out);
    }
    out
}

/// The seed's `with_crc`: deep-copy the dataset, re-materialize the LE
/// payload into a scratch buffer, checksum it, attach the attribute.
fn legacy_with_crc(ds: &Dataset) -> Dataset {
    let mut out = ds.clone();
    let mut payload = Vec::new();
    ds.data.to_le_bytes(&mut payload);
    out.attrs
        .insert(CRC_ATTR.to_string(), AttrValue::Int(crc32(&payload) as i64));
    out
}

#[derive(Default, serde::Serialize)]
struct StageSeconds {
    encode: f64,
    transport: f64,
    drain: f64,
}

#[derive(serde::Serialize)]
struct PipelineReport {
    seconds: f64,
    bytes_per_s: f64,
    mb_per_s: f64,
    alloc_calls: u64,
    alloc_bytes: u64,
    stages: StageSeconds,
}

fn report(bytes: u64, secs: f64, allocs: (u64, u64), stages: StageSeconds) -> PipelineReport {
    PipelineReport {
        seconds: secs,
        bytes_per_s: bytes as f64 / secs,
        mb_per_s: bytes as f64 / secs / 1e6,
        alloc_calls: allocs.0,
        alloc_bytes: allocs.1,
        stages,
    }
}

/// Legacy pipeline over one snapshot. Returns wire bytes moved.
fn legacy_pass(msgs: &[BlockMsg], fs: &SharedFs, file: &str, stages: &mut StageSeconds) -> u64 {
    let mut wire_bytes = 0u64;
    fs.create(file, 0, 0.0);
    for msg in msgs {
        let t0 = Instant::now();
        let payload = legacy_encode(msg);
        stages.encode += t0.elapsed().as_secs_f64();

        // Seed transport: `send(&payload)` copied the borrowed slice
        // into the envelope.
        let t1 = Instant::now();
        let envelope = payload.to_vec();
        stages.transport += t1.elapsed().as_secs_f64();
        wire_bytes += envelope.len() as u64;

        // Seed server: typed decode (deep copy), buffer, then re-encode
        // every record into a fresh buffer and write each separately.
        let t2 = Instant::now();
        let dec = BlockMsg::decode(&envelope).expect("legacy decode");
        let prefix = block_prefix(dec.block.id);
        let mut buf = Vec::new();
        encode_dataset_into(
            &legacy_with_crc(&block_meta_dataset(&dec.block)),
            None,
            None,
            &mut buf,
        );
        fs.append(file, &buf, 0, 0.0).expect("legacy meta write");
        for ds in &dec.block.datasets {
            let mut renamed = ds.clone();
            renamed.name = format!("{prefix}{}", ds.name);
            let mut buf = Vec::new();
            encode_dataset_into(&legacy_with_crc(&renamed), None, None, &mut buf);
            fs.append(file, &buf, 0, 0.0).expect("legacy record write");
        }
        stages.drain += t2.elapsed().as_secs_f64();
    }
    wire_bytes
}

/// Zero-copy pipeline over one snapshot. Returns wire bytes moved.
fn zero_copy_pass(
    msgs: &[BlockMsg],
    fs: &SharedFs,
    file: &str,
    stages: &mut StageSeconds,
) -> u64 {
    let mut wire_bytes = 0u64;
    let mut pool = SegmentPool::new();
    let mut segs: Vec<Segment> = Vec::new();
    let (mut writer, _) =
        SdfFileWriter::create(fs, file, LibraryModel::hdf4(), 0, 0.0).expect("create");
    for msg in msgs {
        let t0 = Instant::now();
        segs.clear();
        msg.encode_segments(&mut pool, &mut segs);
        stages.encode += t0.elapsed().as_secs_f64();

        // `send_segments` copies a run of owned segments into one message
        // part (typed panes encode to owned segments only, so this is the
        // whole image); the receiver's Message shares it by refcount.
        let t1 = Instant::now();
        let wire: bytes::Bytes = segments_to_vec(&segs).into();
        pool.recycle(&mut segs);
        stages.transport += t1.elapsed().as_secs_f64();
        wire_bytes += wire.len() as u64;

        // Server: shared decode (payload windows into `wire`), buffer,
        // pooled scatter-gather drain — one store write per block.
        let t2 = Instant::now();
        let dec = BlockMsg::decode_shared(&wire).expect("shared decode");
        writer.append_block(&dec.block, 0.0).expect("drain block");
        stages.drain += t2.elapsed().as_secs_f64();
    }
    writer.finish(0.0).expect("finish");
    wire_bytes
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR3.json".into());

    // Fig. 3(a) 128-compute-rank configuration: one block per rank.
    let (ranks, cells, passes) = if quick { (16, 1024, 1) } else { (128, 8192, 3) };

    eprintln!("hostperf: building {ranks}-rank snapshot ({cells} cells/field)...");
    let typed: Vec<BlockMsg> = (0..ranks).map(|r| msg_of(&make_block(r, cells, false))).collect();
    let shared: Vec<BlockMsg> = (0..ranks).map(|r| msg_of(&make_block(r, cells, true))).collect();

    // Byte-identity gate: both encoders must produce the same wire image
    // (this is what keeps rocsched's canonical snapshot identity intact).
    for (t, s) in typed.iter().zip(&shared) {
        let legacy = legacy_encode(t);
        let mut pool = SegmentPool::new();
        let mut segs = Vec::new();
        s.encode_segments(&mut pool, &mut segs);
        assert_eq!(
            legacy,
            segments_to_vec(&segs),
            "wire image must be byte-identical across encoders"
        );
    }
    eprintln!("hostperf: wire images byte-identical across encoders");

    let mut legacy_secs = 0.0;
    let mut legacy_stages = StageSeconds::default();
    let mut legacy_bytes = 0u64;
    let mut zero_secs = 0.0;
    let mut zero_stages = StageSeconds::default();
    let mut zero_bytes = 0u64;

    let mut c = Criterion::new();
    let mut group = c.benchmark_group("hostperf");
    group.bench_function("legacy", |b| {
        b.iter(|| {
            for p in 0..passes {
                let fs = SharedFs::ideal();
                let t = Instant::now();
                legacy_bytes +=
                    legacy_pass(&typed, &fs, &format!("legacy-{p}.sdf"), &mut legacy_stages);
                legacy_secs += t.elapsed().as_secs_f64();
                black_box(&fs);
            }
        })
    });
    let legacy_allocs = alloc_stats();
    group.bench_function("zero_copy", |b| {
        b.iter(|| {
            for p in 0..passes {
                let fs = SharedFs::ideal();
                let t = Instant::now();
                zero_bytes +=
                    zero_copy_pass(&shared, &fs, &format!("zero-{p}.sdf"), &mut zero_stages);
                zero_secs += t.elapsed().as_secs_f64();
                black_box(&fs);
            }
        })
    });
    group.finish();
    let zero_allocs = alloc_stats();

    let legacy_alloc_delta = legacy_allocs;
    let zero_alloc_delta = (
        zero_allocs.0 - legacy_allocs.0,
        zero_allocs.1 - legacy_allocs.1,
    );

    assert_eq!(legacy_bytes, zero_bytes, "pipelines must move the same bytes");

    let legacy_rep = report(legacy_bytes, legacy_secs, legacy_alloc_delta, legacy_stages);
    let zero_rep = report(zero_bytes, zero_secs, zero_alloc_delta, zero_stages);
    let speedup = zero_rep.bytes_per_s / legacy_rep.bytes_per_s;

    eprintln!(
        "legacy:    {:>8.1} MB/s  ({} allocs, {} alloc bytes)",
        legacy_rep.mb_per_s, legacy_rep.alloc_calls, legacy_rep.alloc_bytes
    );
    eprintln!(
        "zero-copy: {:>8.1} MB/s  ({} allocs, {} alloc bytes)",
        zero_rep.mb_per_s, zero_rep.alloc_calls, zero_rep.alloc_bytes
    );
    eprintln!("speedup: {speedup:.2}x host throughput");

    #[derive(serde::Serialize)]
    struct Config {
        quick: bool,
        ranks: usize,
        cells_per_field: usize,
        passes: usize,
        wire_bytes_total: u64,
    }
    #[derive(serde::Serialize)]
    struct Doc {
        bench: &'static str,
        config: Config,
        legacy: PipelineReport,
        zero_copy: PipelineReport,
        speedup_host_throughput: f64,
        wire_byte_identity: bool,
    }
    let doc = Doc {
        bench: "hostperf (PR3 zero-copy data path gate)",
        config: Config {
            quick,
            ranks,
            cells_per_field: cells,
            passes,
            wire_bytes_total: legacy_bytes,
        },
        legacy: legacy_rep,
        zero_copy: zero_rep,
        speedup_host_throughput: speedup,
        wire_byte_identity: true,
    };
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    if !quick && speedup < 2.0 {
        eprintln!("WARNING: speedup below the 2x gate");
        std::process::exit(1);
    }
}
