//! Writing SDF files through the storage simulator.

use rocio_core::{DataBlock, Dataset, Result, Segment, SimTime};
use rocstore::SharedFs;

use crate::cost::LibraryModel;
use crate::format::{
    block_meta_dataset, encode_dataset_into, encode_dataset_segments, encode_header, encode_index,
    payload_crc32, IndexEntry,
};

fn overhead_acc(acc: &mut f64, cost: f64) {
    *acc += cost;
}

/// Recycled staging buffers for the drain path, bounded by capacity
/// watermarks.
///
/// Every encoded record needs a small owned buffer for its header bytes
/// (and, for typed payloads, the payload too). The pool hands those out
/// and takes them back after each file-system write, so a server draining
/// thousands of blocks reuses the same allocations instead of churning
/// the allocator. When the total retained capacity exceeds
/// `high_watermark` — e.g. after one unusually large typed payload — the
/// pool trims itself back to `low_watermark` so a burst does not pin
/// memory forever.
#[derive(Debug)]
pub struct SegmentPool {
    bufs: Vec<Vec<u8>>,
    high_watermark: usize,
    low_watermark: usize,
}

impl SegmentPool {
    /// Default watermarks: retain up to 4 MiB of staging capacity, trim
    /// back to 1 MiB after a burst.
    pub fn new() -> Self {
        SegmentPool::with_watermarks(4 << 20, 1 << 20)
    }

    /// A pool with explicit retention bounds (`high >= low`).
    pub fn with_watermarks(high_watermark: usize, low_watermark: usize) -> Self {
        assert!(high_watermark >= low_watermark);
        SegmentPool {
            bufs: Vec::new(),
            high_watermark,
            low_watermark,
        }
    }

    /// Take a cleared staging buffer (recycled when available).
    pub fn take(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Return one buffer to the pool.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.bufs.push(buf);
        self.trim();
    }

    /// Drain a finished segment list, reclaiming its owned buffers and
    /// dropping the shared payload refcounts.
    pub fn recycle(&mut self, segments: &mut Vec<Segment>) {
        for seg in segments.drain(..) {
            match seg {
                Segment::Owned(mut v) => {
                    v.clear();
                    self.bufs.push(v);
                }
                Segment::Shared(_) => {}
            }
        }
        self.trim();
    }

    /// Total buffer capacity currently retained.
    pub fn retained(&self) -> usize {
        self.bufs.iter().map(|b| b.capacity()).sum()
    }

    fn trim(&mut self) {
        if self.retained() > self.high_watermark {
            // Drop the largest buffers first until under the low mark.
            self.bufs.sort_by_key(|b| b.capacity());
            while self.retained() > self.low_watermark {
                if self.bufs.pop().is_none() {
                    break;
                }
            }
        }
    }
}

impl Default for SegmentPool {
    fn default() -> Self {
        SegmentPool::new()
    }
}

/// An open SDF file being written.
///
/// Standalone datasets are appended as individual file-system writes;
/// whole blocks coalesce into one buffered write (see
/// [`SdfFileWriter::append_block`]). Every dataset is charged the
/// library's per-dataset creation overhead; `finish` appends the index +
/// trailer and closes the file.
///
/// Encoding is zero-copy: datasets are staged as scatter-gather segment
/// lists (owned headers from a recycled [`SegmentPool`], shared payload
/// views by refcount) and handed to the file system in one
/// `writev`-style append — no per-block flatten, no `Dataset` clones for
/// renaming, no re-encode to attach checksums. The store keeps the shared
/// views as parts of the file and copies only the headers, and `finish`
/// canonicalizes the record order by re-slicing those parts
/// (`SharedFs::reorder`), so a shared payload is never copied on the way
/// to storage.
pub struct SdfFileWriter<'fs> {
    fs: &'fs SharedFs,
    path: String,
    client: u64,
    lib: LibraryModel,
    entries: Vec<IndexEntry>,
    offset: u64,
    finished: bool,
    pool: SegmentPool,
    segs: Vec<Segment>,
}

impl<'fs> SdfFileWriter<'fs> {
    /// Create `path` on `fs` and write the header. Returns the writer and
    /// the virtual completion time of the create.
    pub fn create(
        fs: &'fs SharedFs,
        path: &str,
        lib: LibraryModel,
        client: u64,
        now: SimTime,
    ) -> Result<(Self, SimTime)> {
        let t_create = fs.create(path, client, now);
        let header = encode_header();
        let t = fs.append(path, &header, client, t_create)?;
        Ok((
            SdfFileWriter {
                fs,
                path: path.to_string(),
                client,
                lib,
                entries: Vec::new(),
                offset: header.len() as u64,
                finished: false,
                pool: SegmentPool::new(),
                segs: Vec::new(),
            },
            t,
        ))
    }

    /// Number of datasets written so far.
    pub fn n_datasets(&self) -> usize {
        self.entries.len()
    }

    /// The file path being written.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Append one dataset. Returns the virtual completion time.
    pub fn append_dataset(&mut self, ds: &Dataset, now: SimTime) -> Result<SimTime> {
        assert!(!self.finished, "append after finish");
        let create_overhead = self.lib.create_cost(self.entries.len());
        let mut buf = self.pool.take();
        encode_dataset_into(ds, None, Some(payload_crc32(ds)), &mut buf);
        let t = self.fs.append(&self.path, &buf, self.client, now + create_overhead)?;
        self.entries.push(IndexEntry {
            name: ds.name.clone(),
            offset: self.offset,
            len: buf.len() as u64,
        });
        self.offset += buf.len() as u64;
        self.pool.put(buf);
        Ok(t)
    }

    /// Append a whole data block: its `__meta__` dataset followed by every
    /// array dataset, names prefixed with the block's group prefix —
    /// "data from different arrays in the same data block stored in
    /// neighboring HDF datasets" (§4).
    ///
    /// All of the block's records go to the file system as one
    /// scatter-gather write (the library's stdio-style coalescing), while
    /// the index still records every dataset individually and per-dataset
    /// creation overhead is still charged. Shared payloads pass through to
    /// the backing store by reference; renaming under the group prefix and
    /// checksum attachment happen during encoding, not by cloning.
    pub fn append_block(&mut self, block: &DataBlock, now: SimTime) -> Result<SimTime> {
        assert!(!self.finished, "append after finish");
        let prefix = crate::format::block_prefix(block.id);
        let mut segs = std::mem::take(&mut self.segs);
        let mut overhead = 0.0;
        let mut batch_len = 0u64;
        let mut stage =
            |ds: &Dataset, name: Option<String>, segs: &mut Vec<Segment>, this: &mut Self| {
                overhead_acc(&mut overhead, this.lib.create_cost(this.entries.len()));
                let before = segs.len();
                let crc = Some(payload_crc32(ds));
                encode_dataset_segments(ds, name.as_deref(), crc, this.pool.take(), segs);
                let len: u64 = segs[before..].iter().map(|s| s.len() as u64).sum();
                this.entries.push(IndexEntry {
                    name: name.unwrap_or_else(|| ds.name.clone()),
                    offset: this.offset + batch_len,
                    len,
                });
                batch_len += len;
            };
        stage(&block_meta_dataset(block), None, &mut segs, self);
        for ds in &block.datasets {
            stage(ds, Some(format!("{prefix}{}", ds.name)), &mut segs, self);
        }
        let t = self
            .fs
            .append_segments(&self.path, &segs, self.client, now + overhead)?;
        self.offset += batch_len;
        self.pool.recycle(&mut segs);
        self.segs = segs;
        Ok(t)
    }

    /// Canonicalize the record layout of an all-blocks file: block groups
    /// sorted by block id, records within each group keeping their order.
    /// Appends land in intake order, which for a multi-client server is a
    /// race artifact (and, on a degraded network, a retransmission
    /// artifact); finished files must not encode it, so equal writes yield
    /// byte-identical files no matter how the fabric interleaved them.
    /// Zero virtual cost and zero copy: every byte was charged when it was
    /// appended, and the permutation — a re-slicing of the stored parts —
    /// models the library placing records at their indexed slots (see
    /// `SharedFs::reorder`). Files containing any non-block record
    /// (standalone datasets) are left untouched.
    fn canonicalize_layout(&mut self) -> Result<()> {
        let mut ids = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let Some(id) = crate::format::parse_block_id(&e.name) else {
                return Ok(());
            };
            ids.push(id.0);
        }
        if ids.is_sorted() {
            return Ok(());
        }
        // A stable sort by block id keeps each block's records in order.
        let mut keyed: Vec<(u64, IndexEntry)> = ids
            .into_iter()
            .zip(std::mem::take(&mut self.entries))
            .collect();
        keyed.sort_by_key(|&(id, _)| id);
        let header_len = encode_header().len() as u64;
        let mut ranges = Vec::with_capacity(keyed.len() + 1);
        ranges.push((0, header_len as usize));
        let mut off = header_len;
        for (_, mut e) in keyed {
            ranges.push((e.offset as usize, e.len as usize));
            e.offset = off;
            off += e.len;
            self.entries.push(e);
        }
        self.fs.reorder(&self.path, &ranges)
    }

    /// Write the index and trailer, close the file. Returns the completion
    /// time. The writer cannot be used afterwards.
    pub fn finish(&mut self, now: SimTime) -> Result<SimTime> {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        self.canonicalize_layout()?;
        let idx = encode_index(&self.entries, self.offset);
        let t = self.fs.append(&self.path, &idx, self.client, now)?;
        self.fs.close(&self.path, self.client, t)
    }
}

impl Drop for SdfFileWriter<'_> {
    fn drop(&mut self) {
        // An unfinished file has no index; readers fall back to scanning.
        // Nothing to clean up — bytes already live in the SharedFs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocio_core::{ArrayData, BlockId};

    fn ds(name: &str, n: usize) -> Dataset {
        Dataset::vector(name, vec![1.5f64; n]).with_attr("units", "m")
    }

    #[test]
    fn writes_header_then_datasets_then_index() {
        let fs = SharedFs::ideal();
        let (mut w, t0) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t1 = w.append_dataset(&ds("a", 4), t0).unwrap();
        let t2 = w.append_dataset(&ds("b", 2), t1).unwrap();
        assert_eq!(w.n_datasets(), 2);
        w.finish(t2).unwrap();
        let (bytes, _) = fs.read_all("f.sdf", 0, 0.0).unwrap();
        crate::format::check_header(&bytes).unwrap();
        let idx_off = crate::format::decode_trailer(&bytes[bytes.len() - 12..]).unwrap();
        let entries =
            crate::format::decode_index(&bytes[idx_off as usize..bytes.len() - 12]).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a");
        // Entries point at decodable records.
        for e in &entries {
            let rec = &bytes[e.offset as usize..(e.offset + e.len) as usize];
            crate::format::decode_dataset(rec, &mut 0).unwrap();
        }
    }

    #[test]
    fn hdf4_create_overhead_grows_with_count() {
        let fs = SharedFs::ideal();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "f.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let mut deltas = Vec::new();
        for i in 0..200 {
            let before = t;
            t = w.append_dataset(&ds(&format!("d{i}"), 1), t).unwrap();
            deltas.push(t - before);
        }
        // On an ideal disk, the cost left is the library overhead, which
        // must grow with the dataset count under HDF4.
        assert!(deltas[199] > deltas[0]);
    }

    #[test]
    fn append_block_prefixes_names_and_writes_meta() {
        let fs = SharedFs::ideal();
        let block = DataBlock::new(BlockId(5), "fluid")
            .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]))
            .with_dataset(Dataset::new("v", vec![2, 3], ArrayData::F64(vec![0.0; 6])).unwrap());
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (bytes, _) = fs.read_all("f.sdf", 0, 0.0).unwrap();
        let idx_off = crate::format::decode_trailer(&bytes[bytes.len() - 12..]).unwrap();
        let entries =
            crate::format::decode_index(&bytes[idx_off as usize..bytes.len() - 12]).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["blk000005/__meta__", "blk000005/p", "blk000005/v"]
        );
    }

    #[test]
    fn shared_payload_block_writes_identical_bytes() {
        // A block whose payloads arrived through the zero-copy wire path
        // must produce the exact file bytes of its typed twin.
        let typed = DataBlock::new(BlockId(3), "fluid")
            .with_dataset(Dataset::vector("p", vec![0.5f64, 1.5, 2.5]).with_attr("units", "Pa"))
            .with_dataset(Dataset::vector("ids", vec![7i32, 8]));
        let mut shared = DataBlock::new(BlockId(3), "fluid");
        for ds in &typed.datasets {
            let mut le = Vec::new();
            ds.data.to_le_bytes(&mut le);
            let mut s = Dataset::new(
                ds.name.clone(),
                ds.shape.clone(),
                ArrayData::from_le_shared(ds.dtype(), ds.len(), bytes::Bytes::from(le)).unwrap(),
            )
            .unwrap();
            s.attrs = ds.attrs.clone();
            shared.push_dataset(s).unwrap();
        }
        let out = |b: &DataBlock, path: &str| {
            let fs = SharedFs::ideal();
            let (mut w, t) = SdfFileWriter::create(&fs, path, LibraryModel::Raw, 0, 0.0).unwrap();
            let t = w.append_block(b, t).unwrap();
            w.finish(t).unwrap();
            fs.read_all(path, 0, 0.0).unwrap().0
        };
        assert_eq!(out(&typed, "a.sdf"), out(&shared, "b.sdf"));
    }

    #[test]
    fn segment_pool_recycles_and_trims() {
        let mut pool = SegmentPool::with_watermarks(1024, 256);
        let mut big = pool.take();
        big.resize(4096, 0);
        pool.put(big);
        assert!(
            pool.retained() <= 256,
            "burst capacity {} must trim below the low watermark",
            pool.retained()
        );
        let mut segs = vec![
            Segment::Owned(vec![1u8; 64]),
            Segment::Shared(bytes::Bytes::from(vec![0u8; 64])),
            Segment::Owned(vec![2u8; 64]),
        ];
        pool.recycle(&mut segs);
        assert!(segs.is_empty());
        assert_eq!(pool.bufs.len(), 2, "owned buffers return to the pool");
        let reused = pool.take();
        assert!(reused.is_empty() && reused.capacity() >= 64);
    }

    #[test]
    #[should_panic(expected = "append after finish")]
    fn append_after_finish_panics() {
        let fs = SharedFs::ideal();
        let (mut w, t) = SdfFileWriter::create(&fs, "f.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.finish(t).unwrap();
        let _ = w.append_dataset(&ds("late", 1), t);
    }

    #[test]
    fn completion_times_are_monotone() {
        let fs = SharedFs::turing();
        let (mut w, mut t) =
            SdfFileWriter::create(&fs, "f.sdf", LibraryModel::hdf4(), 3, 1.0).unwrap();
        assert!(t >= 1.0);
        for i in 0..10 {
            let t2 = w.append_dataset(&ds(&format!("d{i}"), 1000), t).unwrap();
            assert!(t2 > t);
            t = t2;
        }
        let tf = w.finish(t).unwrap();
        assert!(tf > t);
    }
}
