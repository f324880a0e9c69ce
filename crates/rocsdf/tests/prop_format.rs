//! Property tests: SDF files round-trip arbitrary block collections and
//! stay self-describing; the inspector agrees with the reader.

use proptest::prelude::*;
use rocio_core::{ArrayData, AttrValue, BlockId, DataBlock, Dataset};
use rocsdf::format::{crc32, crc32_update};
use rocsdf::{describe, LibraryModel, SdfFileReader, SdfFileWriter};
use rocstore::SharedFs;

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        any::<f64>().prop_map(AttrValue::Float),
        "[ -~]{0,12}".prop_map(AttrValue::Str),
        prop::collection::vec(any::<i64>(), 0..4).prop_map(AttrValue::IntVec),
        prop::collection::vec(any::<f64>(), 0..4).prop_map(AttrValue::FloatVec),
    ]
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        "[A-Za-z_][A-Za-z0-9_/]{0,16}",
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..64).prop_map(ArrayData::U8),
            prop::collection::vec(any::<i32>(), 0..48).prop_map(ArrayData::I32),
            prop::collection::vec(any::<i64>(), 0..32).prop_map(ArrayData::I64),
            prop::collection::vec(any::<f32>(), 0..48).prop_map(ArrayData::F32),
            prop::collection::vec(any::<f64>(), 0..32).prop_map(ArrayData::F64),
        ],
        prop::collection::vec(("[ -~]{1,10}", arb_attr_value()), 0..5),
    )
        .prop_map(|(name, data, attrs)| {
            let mut ds = Dataset::vector(name, vec![0u8; 0]);
            ds.shape = vec![data.len()];
            ds.data = data;
            ds.attrs = attrs.into_iter().collect();
            ds
        })
}

fn arb_block(id: u64) -> impl Strategy<Value = DataBlock> {
    (
        prop::collection::vec(
            (
                "[a-z][a-z0-9_]{0,8}",
                prop_oneof![
                    prop::collection::vec(any::<f64>(), 1..32).prop_map(ArrayData::F64),
                    prop::collection::vec(any::<i32>(), 1..32).prop_map(ArrayData::I32),
                ],
            ),
            1..5,
        ),
        prop::collection::vec(("[a-z]{1,6}", any::<i64>()), 0..3),
    )
        .prop_map(move |(datasets, attrs)| {
            let mut b = DataBlock::new(BlockId(id), "fluid");
            for (name, data) in datasets {
                if b.dataset(&name).is_err() {
                    let mut ds = Dataset::vector(name, vec![0u8; 0]);
                    ds.shape = vec![data.len()];
                    ds.data = data;
                    b.push_dataset(ds).unwrap();
                }
            }
            for (k, v) in attrs {
                b.attrs.insert(k, v.into());
            }
            b
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn file_round_trips_arbitrary_blocks(
        blocks in prop::collection::vec(any::<u8>(), 1..6)
            .prop_flat_map(|ids| {
                let uniq: Vec<u64> = {
                    let mut v: Vec<u64> = ids.iter().map(|&b| b as u64).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                uniq.into_iter().map(arb_block).collect::<Vec<_>>()
            })
    ) {
        let fs = SharedFs::ideal();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "prop.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        for b in &blocks {
            t = w.append_block(b, t).unwrap();
        }
        w.finish(t).unwrap();

        let (r, t) = SdfFileReader::open(&fs, "prop.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        prop_assert_eq!(r.block_ids().len(), blocks.len());
        let (read, _) = r.read_all_blocks(t).unwrap();
        for (a, b) in blocks.iter().zip(&read) {
            prop_assert_eq!(
                rocio_core::Checksum::of_block(a),
                rocio_core::Checksum::of_block(b)
            );
        }

        // Self-describing: the stand-alone inspector sees the same
        // structure without the index.
        let (bytes, _) = fs.read_all("prop.sdf", 0, 0.0).unwrap();
        let desc = describe(&bytes).unwrap();
        prop_assert!(desc.index_present);
        prop_assert_eq!(desc.blocks.len(), blocks.len());
        let n_datasets: usize = blocks.iter().map(|b| b.datasets.len() + 1).sum();
        prop_assert_eq!(desc.datasets.len(), n_datasets);
    }

    #[test]
    fn truncated_files_never_panic(
        len in 0usize..200,
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let fs = SharedFs::ideal();
        let (mut w, t) =
            SdfFileWriter::create(&fs, "t.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w
            .append_dataset(&Dataset::vector("d", vec![1.0f64; 16]), t)
            .unwrap();
        w.finish(t).unwrap();
        let (mut bytes, _) = fs.read_all("t.sdf", 0, 0.0).unwrap();
        bytes.truncate(len.min(bytes.len()));
        bytes.extend(junk);
        let _ = describe(&bytes); // must not panic, may Err
    }

    #[test]
    fn segment_encode_matches_contiguous_encode(
        ds in arb_dataset(),
        rename in prop_oneof![
            Just(None),
            "[a-z]{1,8}/[a-z]{1,8}".prop_map(Some),
        ],
        with_crc in any::<bool>(),
    ) {
        // The scatter-gather encoder, concatenated, must be byte-identical
        // to the legacy contiguous encoder for arbitrary datasets, attrs,
        // rename overrides and checksum injection — for both typed and
        // shared payload representations.
        let crc = with_crc.then(|| rocsdf::payload_crc32(&ds));
        let mut flat = Vec::new();
        rocsdf::encode_dataset_into(&ds, rename.as_deref(), crc, &mut flat);

        let mut segs = Vec::new();
        rocsdf::encode_dataset_segments(&ds, rename.as_deref(), crc, Vec::new(), &mut segs);
        prop_assert_eq!(&rocio_core::segments_to_vec(&segs), &flat);

        // Same dataset with its payload in wire (shared) form.
        let mut le = Vec::new();
        ds.data.to_le_bytes(&mut le);
        let shared_data = ArrayData::from_le_shared(
            ds.dtype(), ds.len(), bytes::Bytes::from(le)).unwrap();
        let mut shared = Dataset::new(ds.name.clone(), ds.shape.clone(), shared_data).unwrap();
        shared.attrs = ds.attrs.clone();
        let mut segs = Vec::new();
        rocsdf::encode_dataset_segments(&shared, rename.as_deref(), crc, Vec::new(), &mut segs);
        prop_assert_eq!(&rocio_core::segments_to_vec(&segs), &flat);

        // And the plain encoder equals the baseline layout when nothing is
        // overridden.
        if rename.is_none() && crc.is_none() {
            prop_assert_eq!(&rocsdf::encode_dataset(&ds), &flat);
        }
    }

    #[test]
    fn shared_decode_round_trips_after_source_drop(ds in arb_dataset()) {
        // Strip any attr colliding with the reserved checksum key.
        let mut ds = ds;
        ds.attrs.remove("__crc32__");
        let crc = rocsdf::payload_crc32(&ds);
        let mut flat = Vec::new();
        rocsdf::encode_dataset_into(&ds, None, Some(crc), &mut flat);
        let src = bytes::Bytes::from(flat);
        let extra_handle = src.clone();
        let mut pos = 0;
        let dec = rocsdf::decode_dataset_shared(&src, &mut pos).unwrap();
        prop_assert_eq!(pos, src.len());
        // Drop every other handle to the source allocation: the decoded
        // zero-copy view must keep the payload alive (refcount
        // correctness).
        drop(src);
        drop(extra_handle);
        prop_assert_eq!(&dec, &ds);
        prop_assert_eq!(&rocsdf::encode_dataset(&dec), &rocsdf::encode_dataset(&ds));
    }

    #[test]
    fn cost_models_monotone(n1 in 0usize..5000, n2 in 0usize..5000) {
        let (lo, hi) = (n1.min(n2), n1.max(n2));
        for m in [LibraryModel::hdf4(), LibraryModel::hdf5()] {
            prop_assert!(m.lookup_cost(hi) >= m.lookup_cost(lo));
            prop_assert!(m.create_cost(hi) >= m.create_cost(lo));
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_on_random_buffers(
        data in prop::collection::vec(any::<u8>(), 0..65_536),
    ) {
        prop_assert_eq!(crc32(&data), bitwise_crc32(&data), "len {}", data.len());
    }

    #[test]
    fn crc32_streamed_in_random_splits_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..12_000),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let crc = split_at_cuts(&data, &cuts)
            .iter()
            .fold(0, |crc, piece| crc32_update(crc, piece));
        prop_assert_eq!(crc, crc32(&data));
    }

    #[test]
    fn payload_crc32_is_the_crc_of_the_le_bytes(data in prop_oneof![
        prop::collection::vec(any::<i32>(), 0..3000).prop_map(ArrayData::I32),
        prop::collection::vec(any::<i64>(), 0..1500).prop_map(ArrayData::I64),
        prop::collection::vec(any::<f32>(), 0..3000).prop_map(ArrayData::F32),
        prop::collection::vec(any::<f64>(), 0..1500).prop_map(ArrayData::F64),
    ]) {
        // Typed payloads stream through several stack chunks; the shared
        // form of the same payload is checksummed in one piece.
        let mut le = Vec::new();
        data.to_le_bytes(&mut le);
        let want = crc32(&le);
        let shared = ArrayData::from_le_shared(data.dtype(), data.len(), bytes::Bytes::from(le)).unwrap();
        for payload in [data, shared] {
            let ds = Dataset::new("x", vec![payload.len()], payload).unwrap();
            prop_assert_eq!(rocsdf::payload_crc32(&ds), want);
        }
    }
}

/// Bit-at-a-time CRC-32 (ISO-HDLC): the definition the table-driven
/// kernels must reproduce.
fn bitwise_crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// `data` cut at the given (sorted, possibly repeated) positions.
fn split_at_cuts<'a>(data: &'a [u8], cuts: &[prop::sample::Index]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
    at.sort_unstable();
    let mut pieces = Vec::new();
    let mut start = 0;
    for end in at.into_iter().chain([data.len()]) {
        pieces.push(&data[start..end]);
        start = end;
    }
    pieces
}
