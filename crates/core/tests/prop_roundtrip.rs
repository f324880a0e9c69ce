//! Property tests: every core encoding round-trips for arbitrary values,
//! and checksums detect any content change.

use proptest::prelude::*;
use rocio_core::checksum::Hasher;
use rocio_core::{ArrayData, AttrValue, BlockId, Checksum, DType, DataBlock, Dataset};

fn arb_array() -> impl Strategy<Value = ArrayData> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(ArrayData::U8),
        prop::collection::vec(any::<i32>(), 0..64).prop_map(ArrayData::I32),
        prop::collection::vec(any::<i64>(), 0..64).prop_map(ArrayData::I64),
        prop::collection::vec(any::<f32>(), 0..64).prop_map(ArrayData::F32),
        prop::collection::vec(any::<f64>(), 0..64).prop_map(ArrayData::F64),
    ]
}

fn arb_attr() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        any::<f64>().prop_map(AttrValue::Float),
        "[a-zA-Z0-9 _./-]{0,24}".prop_map(AttrValue::Str),
        prop::collection::vec(any::<i64>(), 0..8).prop_map(AttrValue::IntVec),
        prop::collection::vec(any::<f64>(), 0..8).prop_map(AttrValue::FloatVec),
    ]
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        "[a-z][a-z0-9_/]{0,16}",
        arb_array(),
        prop::collection::vec(("[a-z]{1,8}", arb_attr()), 0..4),
    )
        .prop_map(|(name, data, attrs)| {
            let mut ds = Dataset::vector(name, vec![0u8; 0]);
            ds.shape = vec![data.len()];
            ds.data = data;
            for (k, v) in attrs {
                ds.attrs.insert(k, v);
            }
            ds
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn array_le_bytes_round_trip(a in arb_array()) {
        let mut buf = Vec::new();
        a.to_le_bytes(&mut buf);
        prop_assert_eq!(buf.len(), a.byte_len());
        let b = ArrayData::from_le_bytes(a.dtype(), a.len(), &buf).unwrap();
        // Bit-exact comparison (NaN-safe): re-encode and compare bytes.
        let mut buf2 = Vec::new();
        b.to_le_bytes(&mut buf2);
        prop_assert_eq!(buf, buf2);
    }

    #[test]
    fn attr_value_round_trip(v in arb_attr()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(buf.len(), v.encoded_size());
        let mut pos = 0;
        let w = AttrValue::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        let mut buf2 = Vec::new();
        w.encode(&mut buf2);
        prop_assert_eq!(buf, buf2);
    }

    #[test]
    fn dtype_tags_total(tag in any::<u8>()) {
        match DType::from_tag(tag) {
            Ok(d) => prop_assert_eq!(d.tag(), tag),
            Err(_) => prop_assert!(tag > 4),
        }
    }

    #[test]
    fn checksum_detects_payload_flip(
        data in prop::collection::vec(any::<u8>(), 1..128),
        flip in any::<prop::sample::Index>(),
    ) {
        let a = Checksum::of_bytes(&data);
        let mut mutated = data.clone();
        let i = flip.index(mutated.len());
        mutated[i] ^= 0x01;
        prop_assert_ne!(a, Checksum::of_bytes(&mutated));
    }

    #[test]
    fn block_checksum_stable_and_sensitive(ds in arb_dataset(), id in 0u64..1000) {
        let block = DataBlock::new(BlockId(id), "w");
        let block = {
            let mut b = block;
            b.push_dataset(ds).ok();
            b
        };
        let c1 = Checksum::of_block(&block);
        let c2 = Checksum::of_block(&block.clone());
        prop_assert_eq!(c1, c2);
        let mut renamed = block.clone();
        renamed.window = "other".into();
        prop_assert_ne!(c1, Checksum::of_block(&renamed));
    }

    #[test]
    fn hasher_digest_is_independent_of_how_input_is_split(
        data in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        at.sort_unstable();
        let mut h = Hasher::new();
        let mut start = 0;
        for end in at.into_iter().chain([data.len()]) {
            h.update(&data[start..end]);
            start = end;
        }
        prop_assert_eq!(h.finish(), Checksum::of_bytes(&data));
    }

    #[test]
    fn equal_blocks_have_equal_checksums(
        a in arb_special_array(),
        b in arb_special_array(),
        a_shared in any::<bool>(),
        b_shared in any::<bool>(),
    ) {
        // Small value alphabets (with ±0 and NaN) make equal pairs common;
        // typed and shared forms of each payload are both compared.
        let block = |data: ArrayData, shared: bool| {
            let data = if shared { shared_form(&data) } else { data };
            let ds = Dataset::new("x", vec![data.len()], data).unwrap();
            DataBlock::new(BlockId(1), "w").with_dataset(ds)
        };
        let (x, y) = (block(a.clone(), a_shared), block(b, b_shared));
        prop_assert!(x == x.clone(), "equality must be reflexive (NaN payloads too)");
        if x == y {
            prop_assert_eq!(Checksum::of_block(&x), Checksum::of_block(&y));
        }
        // Every payload equals its own shared form, under both checksums.
        let (t, s) = (block(a.clone(), false), block(a, true));
        prop_assert_eq!(&t, &s);
        prop_assert_eq!(&s, &t);
        prop_assert_eq!(Checksum::of_block(&t), Checksum::of_block(&s));
    }
}

/// Arrays of every dtype drawn from tiny alphabets, floats including ±0
/// and NaN; lengths reach past one typed encode chunk.
fn arb_special_array() -> impl Strategy<Value = ArrayData> {
    let f64s = prop_oneof![Just(0.0f64), Just(-0.0), Just(f64::NAN), Just(1.0)];
    let f32s = prop_oneof![Just(0.0f32), Just(-0.0), Just(f32::NAN), Just(1.0)];
    let n = 0..1100usize;
    prop_oneof![
        prop::collection::vec(0u8..2, 0..3).prop_map(ArrayData::U8),
        prop::collection::vec(0i32..2, 0..3).prop_map(ArrayData::I32),
        prop::collection::vec(0i64..2, 0..3).prop_map(ArrayData::I64),
        prop::collection::vec(f32s, 0..3).prop_map(ArrayData::F32),
        prop::collection::vec(f64s, 0..3).prop_map(ArrayData::F64),
        n.clone().prop_map(|n| ArrayData::F64(vec![-0.0; n])),
        n.prop_map(|n| ArrayData::I32((0..n as i32).collect())),
    ]
}

fn shared_form(a: &ArrayData) -> ArrayData {
    let mut le = Vec::new();
    a.to_le_bytes(&mut le);
    ArrayData::from_le_shared(a.dtype(), a.len(), bytes::Bytes::from(le)).unwrap()
}
