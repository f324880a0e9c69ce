//! Property tests: the simulated file system stores exactly what a
//! reference model says it should, and server time ledgers are monotone.

use bytes::Bytes;
use proptest::prelude::*;
use rocio_core::Segment;
use rocstore::SharedFs;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Append(u8, Vec<u8>),
    WriteAt(u8, u8, Vec<u8>),
    Delete(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Create),
        (0u8..4, prop::collection::vec(any::<u8>(), 0..32)).prop_map(|(f, d)| Op::Append(f, d)),
        (0u8..4, 0u8..48, prop::collection::vec(any::<u8>(), 1..16))
            .prop_map(|(f, o, d)| Op::WriteAt(f, o, d)),
        (0u8..4).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contents_match_reference_model(ops in prop::collection::vec(arb_op(), 1..40)) {
        let fs = SharedFs::ideal();
        let mut reference: HashMap<String, Vec<u8>> = HashMap::new();
        let mut now = 0.0;
        for op in &ops {
            match op {
                Op::Create(f) => {
                    let path = format!("f{f}");
                    now = fs.create(&path, 0, now);
                    reference.insert(path, Vec::new());
                }
                Op::Append(f, data) => {
                    let path = format!("f{f}");
                    let r = fs.append(&path, data, 0, now);
                    match reference.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            v.extend_from_slice(data);
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::WriteAt(f, off, data) => {
                    let path = format!("f{f}");
                    let r = fs.write_at(&path, *off as usize, data, 0, now);
                    match reference.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            let end = *off as usize + data.len();
                            if v.len() < end {
                                v.resize(end, 0);
                            }
                            v[*off as usize..end].copy_from_slice(data);
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
                Op::Delete(f) => {
                    let path = format!("f{f}");
                    let r = fs.delete(&path);
                    prop_assert_eq!(r.is_ok(), reference.remove(&path).is_some());
                }
            }
        }
        prop_assert_eq!(fs.n_files(), reference.len());
        for (path, expect) in &reference {
            let (data, _) = fs.read_all(path, 0, now).unwrap();
            prop_assert_eq!(&data, expect);
        }
    }

    #[test]
    fn chained_write_completions_are_monotone(
        sizes in prop::collection::vec(1usize..100_000, 1..30),
        start in 0.0f64..10.0,
    ) {
        // A writer chaining ops (next issued at the previous completion)
        // sees strictly advancing completions, regardless of sizes.
        let fs = SharedFs::turing();
        let mut now = fs.create("chain", 0, start);
        prop_assert!(now >= start);
        for &sz in &sizes {
            let t = fs.append("chain", &vec![0u8; sz], 0, now).unwrap();
            prop_assert!(t > now, "completion did not advance: {t} <= {now}");
            now = t;
        }
    }

    #[test]
    fn write_time_is_order_independent(
        sizes in prop::collection::vec(1usize..100_000, 2..10),
    ) {
        // The same set of ops issued at the same virtual instant yields
        // the same completion per op no matter the submission order —
        // the determinism property that motivated processor sharing.
        let forward = {
            let fs = SharedFs::turing();
            fs.create("f", 0, 0.0);
            fs.declare_writers(sizes.len());
            sizes
                .iter()
                .enumerate()
                .map(|(c, &sz)| fs.append("f", &vec![0u8; sz], c as u64, 1.0).unwrap())
                .collect::<Vec<_>>()
        };
        let backward = {
            let fs = SharedFs::turing();
            fs.create("f", 0, 0.0);
            fs.declare_writers(sizes.len());
            let mut ends: Vec<(usize, f64)> = sizes
                .iter()
                .enumerate()
                .rev()
                .map(|(c, &sz)| (c, fs.append("f", &vec![0u8; sz], c as u64, 1.0).unwrap()))
                .collect();
            ends.sort_by_key(|&(c, _)| c);
            ends.into_iter().map(|(_, t)| t).collect::<Vec<_>>()
        };
        for (a, b) in forward.iter().zip(&backward) {
            prop_assert!((a - b).abs() < 1e-9, "order dependence: {a} vs {b}");
        }
    }

    #[test]
    fn shared_reads_match_owned_reads_and_outlive_the_file(
        data in prop::collection::vec(any::<u8>(), 1..256),
        offsets in prop::collection::vec((0usize..256, 0usize..64), 1..10),
        mutate_after in any::<bool>(),
    ) {
        // Shared windows must equal the owned reads byte-for-byte, at the
        // same virtual cost, and keep their bytes after the file is
        // mutated or deleted out from under them.
        let fs = SharedFs::frost();
        fs.create("r", 0, 0.0);
        fs.append("r", &data, 0, 0.0).unwrap();
        let mut windows = Vec::new();
        for &(off, len) in &offsets {
            let off = off % data.len();
            let len = len.min(data.len() - off);
            let (owned, t_owned) = fs.read("r", off, len, 1, 1.0).unwrap();
            let (shared, t_shared) = fs.read_shared("r", off, len, 1, t_owned).unwrap();
            prop_assert_eq!(shared.as_slice(), &owned[..]);
            prop_assert!((t_shared - t_owned - (t_owned - 1.0)).abs() < 1e-12,
                "shared read charged differently from owned read");
            windows.push((off, len, shared));
        }
        if mutate_after {
            fs.append("r", b"overwritten!", 0, 9.0).unwrap();
        }
        fs.delete("r").unwrap();
        for (off, len, w) in windows {
            prop_assert_eq!(w.as_slice(), &data[off..off + len]);
        }
    }

    #[test]
    fn reads_never_mutate(
        data in prop::collection::vec(any::<u8>(), 1..256),
        offsets in prop::collection::vec((0usize..256, 0usize..64), 1..10),
    ) {
        let fs = SharedFs::frost();
        fs.create("r", 0, 0.0);
        fs.append("r", &data, 0, 0.0).unwrap();
        for (off, len) in offsets {
            let off = off % data.len();
            let len = len.min(data.len() - off);
            let (got, _) = fs.read("r", off, len, 1, 1.0).unwrap();
            prop_assert_eq!(&got[..], &data[off..off + len]);
        }
        let (full, _) = fs.read_all("r", 2, 2.0).unwrap();
        prop_assert_eq!(full, data);
    }
}

/// One step of the rope-vs-flat comparison.
#[derive(Debug, Clone)]
enum RopeOp {
    Create(u8),
    Append(u8, Vec<u8>),
    /// `(shared?, bytes)` segments; shared ones are windows of one buffer.
    AppendSegments(u8, Vec<(bool, Vec<u8>)>),
    /// Cut points and sort keys: the file is cut at `cuts` (mod its length
    /// + 1) and the pieces are reassembled in key order.
    Reorder(u8, Vec<u16>, Vec<u32>),
    WriteAt(u8, u8, Vec<u8>),
    Read(u8, u16, u16),
    ReadMulti(u8, Vec<(u16, u16)>),
    Delete(u8),
}

fn arb_rope_op() -> impl Strategy<Value = RopeOp> {
    let bytes = |n| prop::collection::vec(any::<u8>(), 0..n);
    prop_oneof![
        (0u8..3).prop_map(RopeOp::Create),
        (0u8..3, bytes(32)).prop_map(|(f, d)| RopeOp::Append(f, d)),
        (
            0u8..3,
            prop::collection::vec((any::<bool>(), bytes(24)), 0..6)
        )
            .prop_map(|(f, s)| RopeOp::AppendSegments(f, s)),
        (
            0u8..3,
            prop::collection::vec(any::<u16>(), 0..6),
            prop::collection::vec(any::<u32>(), 7),
        )
            .prop_map(|(f, c, k)| RopeOp::Reorder(f, c, k)),
        (0u8..3, 0u8..64, prop::collection::vec(any::<u8>(), 1..16))
            .prop_map(|(f, o, d)| RopeOp::WriteAt(f, o, d)),
        (0u8..3, any::<u16>(), any::<u16>()).prop_map(|(f, o, l)| RopeOp::Read(f, o, l)),
        (
            0u8..3,
            prop::collection::vec((any::<u16>(), any::<u16>()), 0..5)
        )
            .prop_map(|(f, r)| RopeOp::ReadMulti(f, r)),
        (0u8..3).prop_map(RopeOp::Delete),
    ]
}

/// Clamp `(offset, len)` into a file of `size` bytes.
fn clamp(size: usize, offset: u16, len: u16) -> (usize, usize) {
    let offset = offset as usize % (size + 1);
    (offset, len as usize % (size - offset + 1))
}

/// A permutation of `0..size` as `(offset, len)` pieces: cut at `cuts`,
/// reassembled in the order of `keys`.
fn permutation(size: usize, cuts: &[u16], keys: &[u32]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c as usize % (size + 1)).collect();
    points.extend([0, size]);
    points.sort_unstable();
    points.dedup();
    let mut pieces: Vec<(u32, (usize, usize))> = points
        .windows(2)
        .enumerate()
        .map(|(i, w)| (keys[i % keys.len()], (w[0], w[1] - w[0])))
        .collect();
    pieces.sort_by_key(|&(k, _)| k);
    pieces.into_iter().map(|(_, r)| r).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rope_matches_flat_model_bytes_times_and_stats(
        ops in prop::collection::vec(arb_rope_op(), 1..48),
    ) {
        // `rope` takes every operation in its native form; `flat` takes the
        // flattened equivalent (appends of the concatenated segments, the
        // permutation applied through `rewrite_image`). Contents must match
        // a plain `Vec` model byte for byte, and both stores must report
        // identical completion times and `FsStats` throughout.
        let rope = SharedFs::frost();
        let flat = SharedFs::frost();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        // Windows handed out along the way, with the bytes they showed.
        let mut windows: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut now = 0.0;
        for (step, op) in ops.iter().enumerate() {
            let client = step as u64 % 3;
            match op {
                RopeOp::Create(f) => {
                    let path = format!("f{f}");
                    let t = rope.create(&path, client, now);
                    prop_assert_eq!(t, flat.create(&path, client, now));
                    now = t;
                    model.insert(path, Vec::new());
                }
                RopeOp::Append(f, data) => {
                    let path = format!("f{f}");
                    let r = rope.append(&path, data, client, now);
                    let r2 = flat.append(&path, data, client, now);
                    match model.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            prop_assert_eq!(now, r2.unwrap());
                            v.extend_from_slice(data);
                        }
                        None => prop_assert!(r.is_err() && r2.is_err()),
                    }
                }
                RopeOp::AppendSegments(f, spec) => {
                    let path = format!("f{f}");
                    let backing: Vec<u8> =
                        spec.iter().filter(|(sh, _)| *sh).flat_map(|(_, d)| d.clone()).collect();
                    let backing = Bytes::from(backing);
                    let mut at = 0;
                    let segs: Vec<Segment> = spec
                        .iter()
                        .map(|(shared, d)| {
                            if *shared {
                                at += d.len();
                                Segment::Shared(backing.slice(at - d.len()..at))
                            } else {
                                Segment::Owned(d.clone())
                            }
                        })
                        .collect();
                    let bytes = rocio_core::segments_to_vec(&segs);
                    let r = rope.append_segments(&path, &segs, client, now);
                    let r2 = flat.append(&path, &bytes, client, now);
                    match model.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            prop_assert_eq!(now, r2.unwrap());
                            v.extend_from_slice(&bytes);
                        }
                        None => prop_assert!(r.is_err() && r2.is_err()),
                    }
                }
                RopeOp::Reorder(f, cuts, keys) => {
                    let path = format!("f{f}");
                    match model.get_mut(&path) {
                        Some(v) => {
                            let ranges = permutation(v.len(), cuts, keys);
                            let permuted: Vec<u8> = ranges
                                .iter()
                                .flat_map(|&(o, l)| v[o..o + l].to_vec())
                                .collect();
                            rope.reorder(&path, &ranges).unwrap();
                            flat.rewrite_image(&path, |img| img.copy_from_slice(&permuted))
                                .unwrap();
                            *v = permuted;
                        }
                        None => prop_assert!(rope.reorder(&path, &[]).is_err()),
                    }
                }
                RopeOp::WriteAt(f, off, data) => {
                    let path = format!("f{f}");
                    let r = rope.write_at(&path, *off as usize, data, client, now);
                    let r2 = flat.write_at(&path, *off as usize, data, client, now);
                    match model.get_mut(&path) {
                        Some(v) => {
                            now = r.unwrap();
                            prop_assert_eq!(now, r2.unwrap());
                            let end = *off as usize + data.len();
                            if v.len() < end {
                                v.resize(end, 0);
                            }
                            v[*off as usize..end].copy_from_slice(data);
                        }
                        None => prop_assert!(r.is_err() && r2.is_err()),
                    }
                }
                RopeOp::Read(f, off, len) => {
                    let path = format!("f{f}");
                    let Some(v) = model.get(&path) else {
                        prop_assert!(rope.read_shared(&path, 0, 0, client, now).is_err());
                        continue;
                    };
                    let (off, len) = clamp(v.len(), *off, *len);
                    let (w, t) = rope.read_shared(&path, off, len, client, now).unwrap();
                    let (w2, t2) = flat.read_shared(&path, off, len, client, now).unwrap();
                    prop_assert_eq!(&w[..], &v[off..off + len]);
                    prop_assert_eq!(&w2[..], &v[off..off + len]);
                    prop_assert_eq!(t, t2);
                    now = t;
                    windows.push((w, v[off..off + len].to_vec()));
                }
                RopeOp::ReadMulti(f, raw) => {
                    let path = format!("f{f}");
                    let Some(v) = model.get(&path) else { continue };
                    let ranges: Vec<(usize, usize)> =
                        raw.iter().map(|&(o, l)| clamp(v.len(), o, l)).collect();
                    let (ws, t) = rope.read_shared_multi(&path, &ranges, 0.001, client, now).unwrap();
                    let (_, t2) = flat.read_shared_multi(&path, &ranges, 0.001, client, now).unwrap();
                    prop_assert_eq!(t, t2);
                    now = t;
                    for (w, &(o, l)) in ws.into_iter().zip(&ranges) {
                        prop_assert_eq!(&w[..], &v[o..o + l]);
                        windows.push((w, v[o..o + l].to_vec()));
                    }
                }
                RopeOp::Delete(f) => {
                    let path = format!("f{f}");
                    let r = rope.delete(&path);
                    prop_assert_eq!(r.is_ok(), flat.delete(&path).is_ok());
                    prop_assert_eq!(r.is_ok(), model.remove(&path).is_some());
                }
            }
            prop_assert_eq!(rope.stats(), flat.stats());
            prop_assert_eq!(rope.used_bytes(), flat.used_bytes());
            prop_assert_eq!(rope.server_times(), flat.server_times());
        }
        prop_assert_eq!(rope.n_files(), model.len());
        for (path, expect) in &model {
            prop_assert_eq!(rope.file_size(path).unwrap(), expect.len());
            let (data, _) = rope.read_all_shared(path, 0, now).unwrap();
            prop_assert_eq!(&data[..], &expect[..]);
        }
        for (w, bytes) in &windows {
            prop_assert_eq!(&w[..], &bytes[..]);
        }
    }
}

/// A file written as three parts: `head` copied, `body` shared from a
/// larger buffer, `tail` copied.
fn three_part_file(fs: &SharedFs, path: &str) -> Vec<u8> {
    fs.create(path, 0, 0.0);
    let big = Bytes::from((0..64u8).collect::<Vec<_>>());
    let segs = [
        Segment::Owned(b"head".to_vec()),
        Segment::Shared(big.slice(8..24)),
        Segment::Owned(b"tail".to_vec()),
    ];
    fs.append_segments(path, &segs, 0, 0.0).unwrap();
    rocio_core::segments_to_vec(&segs)
}

#[test]
fn reorder_rejects_ranges_that_do_not_tile_the_file() {
    let fs = SharedFs::ideal();
    let image = three_part_file(&fs, "f");
    let n = image.len();
    for bad in [
        vec![],                               // covers nothing
        vec![(0, n - 1)],                     // short
        vec![(0, n), (n, 1)],                 // beyond EOF
        vec![(0, 10), (12, n - 12)],          // gap
        vec![(0, 12), (10, n - 10)],          // overlap
        vec![(0, 12), (10, 4), (16, n - 16)], // overlap and gap, right total
        vec![(4, n - 4), (4, n - 4)],         // duplicate, no head
        vec![(0, 4), (4, usize::MAX)],        // length overflows
    ] {
        assert!(fs.reorder("f", &bad).is_err(), "{bad:?} accepted");
    }
    assert!(fs.reorder("missing", &[]).is_err());
    // Rejections leave the file untouched; a true permutation is applied.
    assert_eq!(fs.read_all("f", 0, 0.0).unwrap().0, image);
    fs.reorder("f", &[(4, n - 4), (0, 0), (0, 4)]).unwrap();
    let mut expect = image[4..].to_vec();
    expect.extend_from_slice(&image[..4]);
    assert_eq!(fs.read_all("f", 0, 0.0).unwrap().0, expect);
}

#[test]
fn reorder_charges_nothing() {
    let fs = SharedFs::turing();
    fs.set_quota(1 << 20);
    let image = three_part_file(&fs, "f");
    let (stats, used, servers) = (fs.stats(), fs.used_bytes(), fs.server_times());
    let n = image.len();
    fs.reorder("f", &[(n - 4, 4), (4, n - 8), (0, 4)]).unwrap();
    assert_eq!(fs.stats(), stats);
    assert_eq!(fs.used_bytes(), used);
    assert_eq!(fs.server_times(), servers);
    assert_eq!(fs.file_size("f").unwrap(), n);
}

#[test]
fn reorder_invalidates_cached_metadata() {
    let fs = SharedFs::ideal();
    let image = three_part_file(&fs, "f");
    fs.cache_put("f", 3, Arc::new(7u32));
    assert!(fs.cache_get("f", 3).is_some());
    // Even the identity permutation is a new generation.
    fs.reorder("f", &[(0, image.len())]).unwrap();
    assert!(fs.cache_get("f", 3).is_none());
}

#[test]
fn windows_keep_their_bytes_across_append_reorder_and_delete() {
    let fs = SharedFs::ideal();
    let image = three_part_file(&fs, "f");
    let n = image.len();
    let (whole, _) = fs.read_all_shared("f", 0, 0.0).unwrap();
    let (middle, _) = fs.read_shared("f", 2, n - 4, 0, 0.0).unwrap();
    fs.append("f", b"+more", 0, 1.0).unwrap();
    let (after_append, _) = fs.read_all_shared("f", 0, 2.0).unwrap();
    fs.reorder("f", &[(n, 5), (0, n)]).unwrap();
    let (after_reorder, _) = fs.read_all_shared("f", 0, 3.0).unwrap();
    fs.delete("f").unwrap();
    assert_eq!(&whole[..], &image[..]);
    assert_eq!(&middle[..], &image[2..n - 2]);
    assert_eq!(&after_append[..n], &image[..]);
    assert_eq!(&after_append[n..], b"+more");
    assert_eq!(&after_reorder[..5], b"+more");
    assert_eq!(&after_reorder[5..], &image[..]);
}
