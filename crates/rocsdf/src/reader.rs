//! Reading SDF files through the storage simulator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rocio_core::{BlockId, DataBlock, Dataset, Result, RocError, SimTime};
use rocstore::SharedFs;

use crate::cost::{LibraryModel, ReadCostModel, ReadStrategy};
use crate::format::{
    check_header, decode_dataset, decode_dataset_shared_with, decode_index, decode_trailer,
    parse_block_id, parse_block_meta, verify_record, DatasetHeader, IndexEntry, BLOCK_META,
    HEADER_LEN, TRAILER_LEN,
};

/// The parsed trailer + index of one open, cached in the file system's
/// per-client metadata cache so re-opening an unchanged snapshot file is
/// free: the cache is generation-validated, so any write to the path
/// invalidates it, and per-client keying keeps virtual time deterministic
/// (a hit depends only on this client's own open history).
struct OpenMeta {
    index: Vec<IndexEntry>,
    by_name: BTreeMap<String, usize>,
    /// Per-record: has this record's payload checksum been verified in
    /// this file generation? The cache entry and these flags die together
    /// when the path is rewritten, so a set flag always refers to the
    /// bytes currently frozen in the store — which is what lets warm
    /// shared reads skip the CRC pass (host work only; virtual time is
    /// never affected). Flags are set only after a successful decode.
    verified: Vec<AtomicBool>,
}

/// An open SDF file being read.
///
/// Opening parses the trailing index (two small reads); each dataset access
/// is charged the library's lookup cost — linear in the file's dataset
/// count for HDF4, which is exactly why restart from dataset-dense Rocpanda
/// files is expensive (Table 1).
pub struct SdfFileReader<'fs> {
    fs: &'fs SharedFs,
    path: String,
    client: u64,
    lib: LibraryModel,
    meta: Arc<OpenMeta>,
}

impl<'fs> SdfFileReader<'fs> {
    /// Open `path` and parse its index. Returns the reader and the virtual
    /// completion time of the open.
    ///
    /// A repeat open of an unchanged file by the same client hits the
    /// metadata cache and completes at `now`, re-paying neither the
    /// header/trailer/index reads nor their virtual time.
    pub fn open(
        fs: &'fs SharedFs,
        path: &str,
        lib: LibraryModel,
        client: u64,
        now: SimTime,
    ) -> Result<(Self, SimTime)> {
        if let Some(hit) = fs.cache_get(path, client) {
            if let Ok(meta) = hit.downcast::<OpenMeta>() {
                return Ok((
                    SdfFileReader { fs, path: path.to_string(), client, lib, meta },
                    now,
                ));
            }
        }
        let size = fs.file_size(path)?;
        if size < HEADER_LEN + TRAILER_LEN {
            return Err(RocError::Corrupt(format!("SDF '{path}': too short")));
        }
        let (header, t1) = fs.read_shared(path, 0, HEADER_LEN, client, now)?;
        check_header(&header)?;
        let (trailer, t2) = fs.read_shared(path, size - TRAILER_LEN, TRAILER_LEN, client, t1)?;
        let idx_off = decode_trailer(&trailer)? as usize;
        if idx_off < HEADER_LEN || idx_off > size - TRAILER_LEN {
            return Err(RocError::Corrupt(format!(
                "SDF '{path}': index offset {idx_off} out of range"
            )));
        }
        let (idx_bytes, t3) =
            fs.read_shared(path, idx_off, size - TRAILER_LEN - idx_off, client, t2)?;
        let index = decode_index(&idx_bytes)?;
        let by_name = index
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.clone(), i))
            .collect();
        let verified = std::iter::repeat_with(|| AtomicBool::new(false))
            .take(index.len())
            .collect();
        let meta = Arc::new(OpenMeta { index, by_name, verified });
        fs.cache_put(path, client, Arc::clone(&meta) as rocstore::CacheValue);
        Ok((
            SdfFileReader { fs, path: path.to_string(), client, lib, meta },
            t3,
        ))
    }

    /// Number of datasets in the file.
    pub fn n_datasets(&self) -> usize {
        self.meta.index.len()
    }

    /// Names of all datasets, in file order.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.meta.index.iter().map(|e| e.name.as_str()).collect()
    }

    /// Whether the file contains a dataset of this name.
    pub fn contains(&self, name: &str) -> bool {
        self.meta.by_name.contains_key(name)
    }

    /// Ids of all blocks stored in the file, in first-appearance order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for e in &self.meta.index {
            if let Some(id) = parse_block_id(&e.name) {
                if seen.insert(id) {
                    out.push(id);
                }
            }
        }
        out
    }

    fn entry_idx(&self, name: &str) -> Result<usize> {
        self.meta
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| RocError::NotFound(format!("dataset '{name}' in '{}'", self.path)))
    }

    fn entry(&self, name: &str) -> Result<&IndexEntry> {
        Ok(&self.meta.index[self.entry_idx(name)?])
    }

    /// Run `f` on record `i`, asking it to verify the payload CRC only
    /// the first time this generation's record is touched; the flag is set
    /// after `f` succeeds, so a corrupt record keeps failing.
    fn verified_once<T>(&self, i: usize, f: impl FnOnce(bool) -> Result<T>) -> Result<T> {
        let skip = self.meta.verified[i].load(Ordering::Relaxed);
        let out = f(!skip)?;
        if !skip {
            self.meta.verified[i].store(true, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Decode record `i`'s shared window, paying the payload-CRC pass only
    /// once per file generation (see [`Self::verified_once`]).
    fn decode_shared_verified_once(
        &self,
        i: usize,
        bytes: &bytes::Bytes,
        pos: &mut usize,
    ) -> Result<Dataset> {
        self.verified_once(i, |verify| decode_dataset_shared_with(bytes, pos, verify))
    }

    /// Read one dataset by name. Returns the dataset and completion time.
    pub fn read_dataset(&self, name: &str, now: SimTime) -> Result<(Dataset, SimTime)> {
        let e = self.entry(name)?;
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let (bytes, t) = self.fs.read(
            &self.path,
            e.offset as usize,
            e.len as usize,
            self.client,
            now + lookup,
        )?;
        let ds = decode_dataset(&bytes, &mut 0)?;
        Ok((ds, t))
    }

    /// Read one dataset by name as a zero-copy window: the payload lands
    /// as `ArrayData::Shared` referencing the backing file. Virtual time
    /// and fs stats are identical to [`SdfFileReader::read_dataset`].
    pub fn read_dataset_shared(&self, name: &str, now: SimTime) -> Result<(Dataset, SimTime)> {
        let i = self.entry_idx(name)?;
        let e = &self.meta.index[i];
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let (bytes, t) = self.fs.read_shared(
            &self.path,
            e.offset as usize,
            e.len as usize,
            self.client,
            now + lookup,
        )?;
        let ds = self.decode_shared_verified_once(i, &bytes, &mut 0)?;
        Ok((ds, t))
    }

    /// Read a whole data block (its `__meta__` plus all member datasets),
    /// reconstructing names without the group prefix.
    pub fn read_block(&self, id: BlockId, now: SimTime) -> Result<(DataBlock, SimTime)> {
        let prefix = crate::format::block_prefix(id);
        let meta_name = format!("{prefix}{BLOCK_META}");
        let (meta, mut t) = self.read_dataset(&meta_name, now)?;
        let (got_id, window, attrs) = parse_block_meta(&meta)?;
        if got_id != id {
            return Err(RocError::Corrupt(format!(
                "block meta id {got_id} != requested {id}"
            )));
        }
        let mut block = DataBlock::new(id, window);
        block.attrs = attrs;
        // Member datasets in file order.
        for e in &self.meta.index {
            if let Some(member) = e.name.strip_prefix(&prefix) {
                if member == BLOCK_META {
                    continue;
                }
                let (mut ds, t2) = self.read_dataset(&e.name, t)?;
                t = t2;
                ds.name = member.to_string();
                block.push_dataset(ds)?;
            }
        }
        Ok((block, t))
    }

    /// Read a whole data block as zero-copy windows, **coalescing** the
    /// block's records into one backing-store access when they are laid
    /// out contiguously — which the writer guarantees by appending a
    /// block's `__meta__` + members in a single scatter-gather write. The
    /// virtual time and fs stats are charged per record exactly as
    /// [`SdfFileReader::read_block`] charges them (lookup + read each), so
    /// the two paths are cost-identical by construction; only the host
    /// work differs (one lock/freeze and O(1) carving instead of N+1
    /// separate copies). Non-contiguous layouts fall back to per-record
    /// shared reads in the same order.
    pub fn read_block_shared(&self, id: BlockId, now: SimTime) -> Result<(DataBlock, SimTime)> {
        let prefix = crate::format::block_prefix(id);
        let meta_name = format!("{prefix}{BLOCK_META}");
        // This block's records in file order, with their index positions
        // (the key into the per-record verified-CRC flags).
        let entries: Vec<(usize, &IndexEntry)> = self
            .meta
            .index
            .iter()
            .enumerate()
            .filter(|(_, e)| e.name.starts_with(&prefix))
            .collect();
        let coalescible = entries.first().is_some_and(|(_, e)| e.name == meta_name)
            && entries
                .windows(2)
                .all(|w| w[0].1.offset + w[0].1.len == w[1].1.offset);
        if !coalescible {
            // Fallback: per-record shared reads, charge order identical to
            // read_block (meta first, then members in file order).
            let (meta, mut t) = self.read_dataset_shared(&meta_name, now)?;
            let (got_id, window, attrs) = parse_block_meta(&meta)?;
            if got_id != id {
                return Err(RocError::Corrupt(format!(
                    "block meta id {got_id} != requested {id}"
                )));
            }
            let mut block = DataBlock::new(id, window);
            block.attrs = attrs;
            for e in &self.meta.index {
                if let Some(member) = e.name.strip_prefix(&prefix) {
                    if member == BLOCK_META {
                        continue;
                    }
                    let (mut ds, t2) = self.read_dataset_shared(&e.name, t)?;
                    t = t2;
                    ds.name = member.to_string();
                    block.push_dataset(ds)?;
                }
            }
            return Ok((block, t));
        }
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let ranges: Vec<(usize, usize)> = entries
            .iter()
            .map(|(_, e)| (e.offset as usize, e.len as usize))
            .collect();
        let (windows, t) =
            self.fs
                .read_shared_multi(&self.path, &ranges, lookup, self.client, now)?;
        let meta = self.decode_shared_verified_once(entries[0].0, &windows[0], &mut 0)?;
        let (got_id, window, attrs) = parse_block_meta(&meta)?;
        if got_id != id {
            return Err(RocError::Corrupt(format!(
                "block meta id {got_id} != requested {id}"
            )));
        }
        let mut block = DataBlock::new(id, window);
        block.attrs = attrs;
        for ((i, e), w) in entries[1..].iter().zip(&windows[1..]) {
            let member = e.name.strip_prefix(&prefix).expect("filtered on prefix");
            let mut ds = self.decode_shared_verified_once(*i, w, &mut 0)?;
            ds.name = member.to_string();
            block.push_dataset(ds)?;
        }
        Ok((block, t))
    }

    /// Read a contiguous element range of one dataset without transferring
    /// the whole record — the hyperslab-style partial access
    /// post-processing tools use on large arrays.
    ///
    /// `start..start+n` indexes flat elements; the returned dataset has
    /// shape `[n]` (possibly `[n, ncomp]` flattened away).
    pub fn read_dataset_range(
        &self,
        name: &str,
        start: usize,
        n: usize,
        now: SimTime,
    ) -> Result<(Dataset, SimTime)> {
        let e = self.entry(name)?;
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let (header, mut t) = self.read_record_header(e, now + lookup)?;
        let total_elems: usize = header.shape.iter().product();
        if start + n > total_elems {
            return Err(RocError::Mismatch(format!(
                "range {start}..{} beyond dataset '{name}' ({total_elems} elems)",
                start + n
            )));
        }
        let esize = header.dtype.size();
        let payload_off = e.offset as usize + header.header_len;
        let (bytes, t2) = self.fs.read(
            &self.path,
            payload_off + start * esize,
            n * esize,
            self.client,
            t,
        )?;
        t = t2;
        let data = rocio_core::ArrayData::from_le_bytes(header.dtype, n, &bytes)?;
        Ok((Dataset::new(name, vec![n], data)?, t))
    }

    /// Read a record's header, growing the read until it parses (the
    /// header length is not known until the name/shape/attrs are seen).
    fn read_record_header(
        &self,
        e: &IndexEntry,
        now: SimTime,
    ) -> Result<(DatasetHeader, SimTime)> {
        let mut header_guess = 256usize.min(e.len as usize);
        loop {
            let (bytes, t) = self.fs.read(
                &self.path,
                e.offset as usize,
                header_guess,
                self.client,
                now,
            )?;
            match crate::format::decode_dataset_header(&bytes) {
                Ok(h) => return Ok((h, t)),
                Err(_) if header_guess < e.len as usize => {
                    header_guess = (header_guess * 2).min(e.len as usize);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// The noncontiguous-read cost model for this file's disk (no network
    /// attached: strictly a per-range-vs-sieve decision).
    pub fn read_cost_model(&self) -> ReadCostModel {
        ReadCostModel::from_disk(self.fs.model())
    }

    /// Read a strided hyperslab of one dataset: `count` pieces of
    /// `block` flat elements each, the `i`-th starting at element
    /// `start + i*stride` — the ghost-zone/column-slice access pattern.
    /// The cost model picks data sieving when the inter-piece holes are
    /// dense enough that covering reads beat per-piece seeks, and
    /// per-range otherwise; either way the returned dataset (shape
    /// `[count, block]`) is byte-identical.
    pub fn read_dataset_strided(
        &self,
        name: &str,
        start: usize,
        count: usize,
        block: usize,
        stride: usize,
        now: SimTime,
    ) -> Result<(Dataset, SimTime)> {
        let e = self.entry(name)?;
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let (header, t) = self.read_record_header(e, now + lookup)?;
        let total_elems: usize = header.shape.iter().product();
        if count > 0 {
            let last_end = start + (count - 1) * stride + block;
            if last_end > total_elems {
                return Err(RocError::Mismatch(format!(
                    "strided read ends at {last_end}, beyond dataset '{name}' ({total_elems} elems)"
                )));
            }
        }
        let esize = header.dtype.size();
        let payload_off = e.offset as usize + header.header_len;
        let ranges: Vec<(usize, usize)> = (0..count)
            .map(|i| (payload_off + (start + i * stride) * esize, block * esize))
            .collect();
        let model = self.read_cost_model();
        let (strategy, _, _) = model.choose_local(&ranges);
        let (windows, t2) = match strategy {
            ReadStrategy::Sieve => self.fs.read_sieved(
                &self.path,
                &ranges,
                0.0,
                model.max_gap(),
                self.client,
                t,
            )?,
            _ => self
                .fs
                .read_shared_multi(&self.path, &ranges, 0.0, self.client, t)?,
        };
        let mut buf = Vec::with_capacity(count * block * esize);
        for w in &windows {
            buf.extend_from_slice(w);
        }
        let data = rocio_core::ArrayData::from_le_bytes(header.dtype, count * block, &buf)?;
        Ok((Dataset::new(name, vec![count, block], data)?, t2))
    }

    /// Read a block's `__meta__` plus only the named member datasets —
    /// the attribute-subset restart access ("just the pressure field").
    /// Member names are the unprefixed names used inside the block. The
    /// cost model picks sieving when the skipped members leave dense
    /// holes, per-range otherwise; results are byte-identical to carving
    /// the full [`SdfFileReader::read_block_shared`] down to the subset.
    pub fn read_block_subset(
        &self,
        id: BlockId,
        members: &[&str],
        now: SimTime,
    ) -> Result<(DataBlock, SimTime)> {
        let prefix = crate::format::block_prefix(id);
        let meta_name = format!("{prefix}{BLOCK_META}");
        for m in members {
            if !self.contains(&format!("{prefix}{m}")) {
                return Err(RocError::NotFound(format!(
                    "dataset '{prefix}{m}' in '{}'",
                    self.path
                )));
            }
        }
        // Meta first, then requested members in file order (duplicates in
        // `members` collapse: the index is walked once).
        let mut picks: Vec<usize> = vec![self.entry_idx(&meta_name)?];
        for (i, e) in self.meta.index.iter().enumerate() {
            if let Some(member) = e.name.strip_prefix(&prefix) {
                if member != BLOCK_META && members.contains(&member) {
                    picks.push(i);
                }
            }
        }
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let ranges: Vec<(usize, usize)> = picks
            .iter()
            .map(|&i| {
                let e = &self.meta.index[i];
                (e.offset as usize, e.len as usize)
            })
            .collect();
        let model = self.read_cost_model().with_lookup(lookup);
        let (strategy, _, _) = model.choose_local(&ranges);
        let (windows, t) = match strategy {
            ReadStrategy::Sieve => self.fs.read_sieved(
                &self.path,
                &ranges,
                lookup,
                model.max_gap(),
                self.client,
                now,
            )?,
            _ => self
                .fs
                .read_shared_multi(&self.path, &ranges, lookup, self.client, now)?,
        };
        let meta = self.decode_shared_verified_once(picks[0], &windows[0], &mut 0)?;
        let (got_id, window, attrs) = parse_block_meta(&meta)?;
        if got_id != id {
            return Err(RocError::Corrupt(format!(
                "block meta id {got_id} != requested {id}"
            )));
        }
        let mut block = DataBlock::new(id, window);
        block.attrs = attrs;
        for (&i, w) in picks[1..].iter().zip(&windows[1..]) {
            let e = &self.meta.index[i];
            let member = e.name.strip_prefix(&prefix).expect("filtered on prefix");
            let mut ds = self.decode_shared_verified_once(i, w, &mut 0)?;
            ds.name = member.to_string();
            block.push_dataset(ds)?;
        }
        Ok((block, t))
    }

    /// Read several blocks in one planned batch: the request's record
    /// extents go through the sieve planner together, so blocks that are
    /// near each other in the file share covering reads. Byte-identical
    /// to chaining [`SdfFileReader::read_block_shared`] over `ids`; when
    /// the cost model keeps per-range access the charges are identical
    /// too (one lookup + one read per record, in the same order). Blocks
    /// whose records are interleaved with foreign data fall back to the
    /// per-block path.
    pub fn read_blocks_sieved(
        &self,
        ids: &[BlockId],
        now: SimTime,
    ) -> Result<(Vec<DataBlock>, SimTime)> {
        // Gather each block's records (meta first, members in file order).
        let mut per_block: Vec<(BlockId, String, Vec<usize>)> = Vec::with_capacity(ids.len());
        let mut clean = true;
        for &id in ids {
            let prefix = crate::format::block_prefix(id);
            let meta_name = format!("{prefix}{BLOCK_META}");
            let picks: Vec<usize> = self
                .meta
                .index
                .iter()
                .enumerate()
                .filter(|(_, e)| e.name.starts_with(&prefix))
                .map(|(i, _)| i)
                .collect();
            match picks.first() {
                Some(&first) if self.meta.index[first].name == meta_name => {}
                _ => clean = false,
            }
            per_block.push((id, prefix, picks));
        }
        if !clean {
            let mut t = now;
            let mut out = Vec::with_capacity(ids.len());
            for &id in ids {
                let (b, t2) = self.read_block_shared(id, t)?;
                t = t2;
                out.push(b);
            }
            return Ok((out, t));
        }
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let ranges: Vec<(usize, usize)> = per_block
            .iter()
            .flat_map(|(_, _, picks)| picks.iter())
            .map(|&i| {
                let e = &self.meta.index[i];
                (e.offset as usize, e.len as usize)
            })
            .collect();
        let model = self.read_cost_model().with_lookup(lookup);
        let (strategy, _, _) = model.choose_local(&ranges);
        let (windows, t) = match strategy {
            ReadStrategy::Sieve => self.fs.read_sieved(
                &self.path,
                &ranges,
                lookup,
                model.max_gap(),
                self.client,
                now,
            )?,
            _ => self
                .fs
                .read_shared_multi(&self.path, &ranges, lookup, self.client, now)?,
        };
        let mut out = Vec::with_capacity(ids.len());
        let mut w = 0usize;
        for (id, prefix, picks) in &per_block {
            let meta = self.decode_shared_verified_once(picks[0], &windows[w], &mut 0)?;
            let (got_id, window, attrs) = parse_block_meta(&meta)?;
            if got_id != *id {
                return Err(RocError::Corrupt(format!(
                    "block meta id {got_id} != requested {id}"
                )));
            }
            let mut block = DataBlock::new(*id, window);
            block.attrs = attrs;
            for (&i, win) in picks[1..].iter().zip(&windows[w + 1..]) {
                let e = &self.meta.index[i];
                let member = e.name.strip_prefix(prefix).expect("filtered on prefix");
                let mut ds = self.decode_shared_verified_once(i, win, &mut 0)?;
                ds.name = member.to_string();
                block.push_dataset(ds)?;
            }
            w += picks.len();
            out.push(block);
        }
        Ok((out, t))
    }

    /// Read the raw record images of the given blocks for redistribution:
    /// the two-phase aggregator's phase one. All requested records are
    /// fetched as **one contiguous domain read per hole-cluster** (the
    /// sieve with an unbounded gap: a file domain is read straight
    /// through, holes included, with a single lookup charged per covering
    /// read — positioned raw I/O, not per-record library access). Each
    /// block comes back as its records' zero-copy windows, `__meta__`
    /// first — self-describing bytes ready to ship over the wire.
    ///
    /// This is the integrity boundary of the two-phase path: every
    /// returned record's payload CRC has been checked against the bytes
    /// currently frozen in the store — here, the first time this file
    /// generation's record is read, or earlier by any shared read through
    /// the same cached open (the verified-once flags). Receivers therefore
    /// decode with `verify_crc = false`, like every other wire path.
    #[allow(clippy::type_complexity)]
    pub fn read_blocks_raw(
        &self,
        ids: &[BlockId],
        now: SimTime,
    ) -> Result<(Vec<(BlockId, Vec<bytes::Bytes>)>, SimTime)> {
        let mut per_block: Vec<(BlockId, Vec<usize>)> = Vec::with_capacity(ids.len());
        for &id in ids {
            let prefix = crate::format::block_prefix(id);
            let meta_name = format!("{prefix}{BLOCK_META}");
            let mut picks: Vec<usize> = self
                .meta
                .index
                .iter()
                .enumerate()
                .filter(|(_, e)| e.name.starts_with(&prefix))
                .map(|(i, _)| i)
                .collect();
            // Meta first even when a straggler member was appended before
            // it in file order (raw shipping preserves decode order).
            let meta_at = picks
                .iter()
                .position(|&i| self.meta.index[i].name == meta_name)
                .ok_or_else(|| {
                    RocError::NotFound(format!("block {id} meta in '{}'", self.path))
                })?;
            let meta_idx = picks.remove(meta_at);
            picks.insert(0, meta_idx);
            per_block.push((id, picks));
        }
        let lookup = self.lib.lookup_cost(self.meta.index.len());
        let ranges: Vec<(usize, usize)> = per_block
            .iter()
            .flat_map(|(_, picks)| picks.iter())
            .map(|&i| {
                let e = &self.meta.index[i];
                (e.offset as usize, e.len as usize)
            })
            .collect();
        let (windows, t) =
            self.fs
                .read_sieved(&self.path, &ranges, lookup, usize::MAX, self.client, now)?;
        let mut out = Vec::with_capacity(ids.len());
        let mut w = 0usize;
        for (id, picks) in &per_block {
            let records = &windows[w..w + picks.len()];
            for (&i, rec) in picks.iter().zip(records) {
                self.verified_once(i, |verify| if verify { verify_record(rec) } else { Ok(()) })?;
            }
            out.push((*id, records.to_vec()));
            w += picks.len();
        }
        Ok((out, t))
    }

    /// Read every block in the file.
    pub fn read_all_blocks(&self, now: SimTime) -> Result<(Vec<DataBlock>, SimTime)> {
        let mut t = now;
        let mut out = Vec::new();
        for id in self.block_ids() {
            let (b, t2) = self.read_block(id, t)?;
            t = t2;
            out.push(b);
        }
        Ok((out, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::SdfFileWriter;
    use rocio_core::ArrayData;

    fn write_sample(fs: &SharedFs) -> Vec<DataBlock> {
        let blocks: Vec<DataBlock> = (0..3)
            .map(|i| {
                DataBlock::new(BlockId(i * 7), "fluid")
                    .with_dataset(
                        Dataset::vector("pressure", vec![i as f64; 4 + i as usize])
                            .with_attr("units", "Pa"),
                    )
                    .with_dataset(Dataset::vector("ids", vec![i as i32, 2, 3]))
                    .with_attr("material", "gas")
            })
            .collect();
        let (mut w, mut t) =
            SdfFileWriter::create(fs, "snap.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        for b in &blocks {
            t = w.append_block(b, t).unwrap();
        }
        w.finish(t).unwrap();
        blocks
    }

    #[test]
    fn open_reads_index() {
        let fs = SharedFs::ideal();
        write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert_eq!(r.n_datasets(), 9); // 3 blocks x (meta + 2 datasets)
        assert!(t >= 0.0);
        assert!(r.contains("blk000007/pressure"));
        assert!(!r.contains("nope"));
    }

    #[test]
    fn read_dataset_round_trips() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (ds, _) = r.read_dataset("blk000007/pressure", t).unwrap();
        assert_eq!(ds.data, blocks[1].dataset("pressure").unwrap().data);
        assert_eq!(ds.attrs["units"].as_str().unwrap(), "Pa");
    }

    #[test]
    fn read_block_round_trips_exactly() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        for want in &blocks {
            let (got, _) = r.read_block(want.id, t).unwrap();
            assert_eq!(&got, want, "block {} must round-trip", want.id);
        }
    }

    #[test]
    fn read_all_blocks_in_file_order() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (all, _) = r.read_all_blocks(t).unwrap();
        assert_eq!(all, blocks);
        assert_eq!(
            r.block_ids(),
            vec![BlockId(0), BlockId(7), BlockId(14)]
        );
    }

    #[test]
    fn missing_dataset_is_not_found() {
        let fs = SharedFs::ideal();
        write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert!(matches!(
            r.read_dataset("ghost", t),
            Err(RocError::NotFound(_))
        ));
        assert!(r.read_block(BlockId(999), t).is_err());
    }

    #[test]
    fn corrupt_file_rejected_on_open() {
        let fs = SharedFs::ideal();
        fs.create("bad.sdf", 0, 0.0);
        fs.append("bad.sdf", b"not an sdf file at all....", 0, 0.0)
            .unwrap();
        assert!(SdfFileReader::open(&fs, "bad.sdf", LibraryModel::hdf4(), 0, 0.0).is_err());
        assert!(SdfFileReader::open(&fs, "absent.sdf", LibraryModel::hdf4(), 0, 0.0).is_err());
    }

    #[test]
    fn hdf4_lookup_cost_grows_with_file_density() {
        // Same dataset payloads; a dense file must take longer to read one
        // dataset from than a sparse file, on an ideal disk (pure library
        // overhead).
        let fs = SharedFs::ideal();
        for (path, n) in [("sparse.sdf", 10usize), ("dense.sdf", 500)] {
            let (mut w, mut t) =
                SdfFileWriter::create(&fs, path, LibraryModel::hdf4(), 0, 0.0).unwrap();
            for i in 0..n {
                t = w
                    .append_dataset(&Dataset::vector(format!("d{i}"), vec![0.0f64; 8]), t)
                    .unwrap();
            }
            w.finish(t).unwrap();
        }
        let (rs, t1) = SdfFileReader::open(&fs, "sparse.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let (rd, t2) = SdfFileReader::open(&fs, "dense.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let (_, ts) = rs.read_dataset("d5", t1).unwrap();
        let (_, td) = rd.read_dataset("d5", t2).unwrap();
        assert!(td - t2 > ts - t1, "dense lookup {} <= sparse {}", td - t2, ts - t1);
    }

    #[test]
    fn partial_read_matches_full_read() {
        let fs = SharedFs::ideal();
        let values: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let block = DataBlock::new(BlockId(2), "w")
            .with_dataset(Dataset::vector("series", values.clone()).with_attr("units", "m/s"));
        let (mut w, t) = SdfFileWriter::create(&fs, "p.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "p.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (slice, t2) = r.read_dataset_range("blk000002/series", 100, 50, t).unwrap();
        assert!(t2 > t);
        assert_eq!(slice.data.as_f64().unwrap(), &values[100..150]);
        // Edges.
        let (head, _) = r.read_dataset_range("blk000002/series", 0, 1, t).unwrap();
        assert_eq!(head.data.as_f64().unwrap(), &values[0..1]);
        let (tail, _) = r.read_dataset_range("blk000002/series", 999, 1, t).unwrap();
        assert_eq!(tail.data.as_f64().unwrap(), &values[999..]);
        // Out of range and missing name.
        assert!(r.read_dataset_range("blk000002/series", 990, 20, t).is_err());
        assert!(r.read_dataset_range("ghost", 0, 1, t).is_err());
    }

    #[test]
    fn partial_read_charges_fewer_bytes_than_full() {
        let fs = SharedFs::ideal();
        let block = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::vector("big", vec![1.0f64; 100_000]));
        let (mut w, t) = SdfFileWriter::create(&fs, "q.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let before = fs.stats().bytes_read;
        let (r, _) = SdfFileReader::open(&fs, "q.sdf", LibraryModel::Raw, 1, 0.0).unwrap();
        let after_open = fs.stats().bytes_read;
        r.read_dataset_range("blk000001/big", 50_000, 10, 0.0).unwrap();
        let after_slice = fs.stats().bytes_read;
        // The slice read moved ~ header + 80 bytes, nowhere near 800 KB.
        assert!(after_slice - after_open < 2048, "read {} bytes", after_slice - after_open);
        let _ = before;
    }

    #[test]
    fn shared_block_read_matches_owned_in_bytes_time_and_stats() {
        // The coalesced zero-copy path must be indistinguishable from the
        // legacy path in everything but host allocations: same block
        // values, same completion time, same fs read ops/bytes.
        let fs_a = SharedFs::turing();
        let fs_b = SharedFs::turing();
        let blocks = write_sample(&fs_a);
        write_sample(&fs_b);
        let (ra, ta) = SdfFileReader::open(&fs_a, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (rb, tb) = SdfFileReader::open(&fs_b, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert_eq!(ta, tb);
        for want in &blocks {
            let (owned, t_owned) = ra.read_block(want.id, ta).unwrap();
            let (shared, t_shared) = rb.read_block_shared(want.id, tb).unwrap();
            assert_eq!(&shared, want);
            assert_eq!(shared, owned);
            assert_eq!(t_shared, t_owned, "block {}", want.id);
        }
        assert_eq!(fs_a.stats(), fs_b.stats());
    }

    #[test]
    fn shared_dataset_read_matches_owned() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (owned, t1) = r.read_dataset("blk000007/pressure", t).unwrap();
        let (shared, _) = r.read_dataset_shared("blk000007/pressure", t).unwrap();
        assert_eq!(shared.data, owned.data);
        assert_eq!(shared.data, blocks[1].dataset("pressure").unwrap().data);
        assert_eq!(shared.attrs["units"].as_str().unwrap(), "Pa");
        assert!(t1 > t);
    }

    #[test]
    fn noncontiguous_block_falls_back_and_still_matches_owned() {
        // Append an extra member to a block *after* other data has been
        // written in between: the block's records are no longer one
        // contiguous extent, so the coalesced path must detect it and
        // fall back — with identical results and cost.
        let build = |fs: &SharedFs| {
            let (mut w, mut t) =
                SdfFileWriter::create(fs, "gap.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
            let block = DataBlock::new(BlockId(4), "w")
                .with_dataset(Dataset::vector("a", vec![1.0f64, 2.0]));
            t = w.append_block(&block, t).unwrap();
            t = w
                .append_dataset(&Dataset::vector("unrelated", vec![9i32; 16]), t)
                .unwrap();
            t = w
                .append_dataset(&Dataset::vector("blk000004/late", vec![3.0f64, 4.0]), t)
                .unwrap();
            w.finish(t).unwrap();
        };
        let fs_a = SharedFs::turing();
        let fs_b = SharedFs::turing();
        build(&fs_a);
        build(&fs_b);
        let (ra, ta) = SdfFileReader::open(&fs_a, "gap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (rb, tb) = SdfFileReader::open(&fs_b, "gap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (owned, t_owned) = ra.read_block(BlockId(4), ta).unwrap();
        let (shared, t_shared) = rb.read_block_shared(BlockId(4), tb).unwrap();
        assert_eq!(shared, owned);
        assert_eq!(owned.datasets.len(), 2); // "a" and "late"
        assert_eq!(t_shared, t_owned);
        assert_eq!(fs_a.stats(), fs_b.stats());
    }

    #[test]
    fn repeat_open_hits_the_metadata_cache() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (_, t1) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let read_after_first = fs.stats().bytes_read;
        assert!(t1 > 0.0);
        // Second open by the same client: no reads, no virtual time.
        let (r2, t2) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 5.0).unwrap();
        assert_eq!(t2, 5.0);
        assert_eq!(fs.stats().bytes_read, read_after_first);
        let (got, _) = r2.read_block(blocks[0].id, t2).unwrap();
        assert_eq!(got, blocks[0]);
        // A different client pays for its own open (per-client keying).
        let (_, t3) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 2, 5.0).unwrap();
        assert!(t3 > 5.0);
        assert!(fs.stats().bytes_read > read_after_first);
    }

    #[test]
    fn rewritten_snapshot_invalidates_cached_open() {
        // A new snapshot written to the same path must not be served
        // through the stale cached index.
        let fs = SharedFs::ideal();
        write_sample(&fs);
        let (r1, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert_eq!(r1.n_datasets(), 9);
        drop(r1);
        // Overwrite the path with a different, smaller snapshot.
        let block = DataBlock::new(BlockId(0), "fluid")
            .with_dataset(Dataset::vector("pressure", vec![42.0f64; 3]));
        let (mut w, tw) = SdfFileWriter::create(&fs, "snap.sdf", LibraryModel::hdf4(), 0, t).unwrap();
        let tw = w.append_block(&block, tw).unwrap();
        w.finish(tw).unwrap();
        let before = fs.stats().bytes_read;
        let (r2, t2) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, tw).unwrap();
        assert!(t2 > tw, "stale cache served a rewritten file");
        assert!(fs.stats().bytes_read > before);
        assert_eq!(r2.n_datasets(), 2); // meta + pressure
        let (got, _) = r2.read_block_shared(BlockId(0), t2).unwrap();
        assert_eq!(got, block);
    }

    #[test]
    fn crc_failure_is_sticky_and_rewrite_reverifies() {
        // The verified-once flags must never mask corruption: a bad
        // record fails on every read (the flag is only set after a
        // successful decode), and rewriting a path starts a new
        // generation whose records are verified afresh even though the
        // old image's records had been marked verified.
        let fs = SharedFs::ideal();
        let marker = 1234.5678f64;
        let block = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::vector("v", vec![marker; 8]));
        let (mut w, t) =
            SdfFileWriter::create(&fs, "snap.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (image, _) = fs.read_all("snap.sdf", 0, 0.0).unwrap();
        let at = image
            .windows(8)
            .position(|w| w == marker.to_le_bytes())
            .unwrap();
        let mut bad = image.clone();
        bad[at] ^= 0x01;

        // Corrupt image: every shared read fails, warm or not.
        fs.create("bad.sdf", 0, 0.0);
        fs.append("bad.sdf", &bad, 0, 0.0).unwrap();
        let (r, t1) = SdfFileReader::open(&fs, "bad.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert!(r.read_block_shared(BlockId(1), t1).is_err());
        assert!(r.read_block_shared(BlockId(1), t1).is_err(), "failure must be sticky");
        // The raw two-phase read is an integrity boundary too.
        assert!(r.read_blocks_raw(&[BlockId(1)], t1).is_err());
        assert!(r.read_blocks_raw(&[BlockId(1)], t1).is_err(), "raw failure is sticky");

        // Good image read warm (records now marked verified), then the
        // path is rewritten with the corrupt image: the new generation
        // must verify and fail, not coast on the stale flags.
        let (r, t2) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (first, _) = r.read_block_shared(BlockId(1), t2).unwrap();
        let (warm, _) = r.read_block_shared(BlockId(1), t2).unwrap();
        assert_eq!(first, warm);
        assert_eq!(warm, block);
        drop(r);
        fs.create("snap.sdf", 0, 10.0);
        fs.append("snap.sdf", &bad, 0, 10.0).unwrap();
        let (r, t3) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 10.0).unwrap();
        assert!(r.read_blocks_raw(&[BlockId(1)], t3).is_err());
        assert!(r.read_block_shared(BlockId(1), t3).is_err());
    }

    #[test]
    fn strided_read_matches_manual_gather() {
        // Column slice of a [64, 16] array: 64 pieces of 2 elements with
        // stride 16 — dense holes, so on Turing the sieve path runs; on an
        // ideal disk (max_gap 0) the per-range path runs. Same bytes.
        let values: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let want: Vec<f64> = (0..64)
            .flat_map(|r| values[r * 16 + 3..r * 16 + 5].to_vec())
            .collect();
        for fs in [SharedFs::ideal(), SharedFs::turing()] {
            let block = DataBlock::new(BlockId(1), "w").with_dataset(
                Dataset::new("grid", vec![64, 16], ArrayData::F64(values.clone())).unwrap(),
            );
            let (mut w, t) =
                SdfFileWriter::create(&fs, "s.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
            let t = w.append_block(&block, t).unwrap();
            w.finish(t).unwrap();
            let (r, t) = SdfFileReader::open(&fs, "s.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
            let (ds, t2) = r.read_dataset_strided("blk000001/grid", 3, 64, 2, 16, t).unwrap();
            assert!(t2 > t);
            assert_eq!(ds.shape, vec![64, 2]);
            assert_eq!(ds.data.as_f64().unwrap(), &want[..]);
            // Degenerate and out-of-range cases.
            let (empty, te) = r.read_dataset_strided("blk000001/grid", 0, 0, 2, 16, t).unwrap();
            assert_eq!(empty.shape, vec![0, 2]);
            // Pays lookup + header read, then transfers nothing.
            assert!(te >= t && te < t2);
            assert!(r.read_dataset_strided("blk000001/grid", 3, 64, 14, 16, t).is_err());
            assert!(r.read_dataset_strided("ghost", 0, 1, 1, 1, t).is_err());
        }
    }

    #[test]
    fn strided_sieve_beats_per_piece_reads_on_dense_holes() {
        let fs = SharedFs::turing();
        let values: Vec<f64> = (0..32_768).map(|i| i as f64).collect();
        let block = DataBlock::new(BlockId(1), "w").with_dataset(
            Dataset::new("grid", vec![256, 128], ArrayData::F64(values.clone())).unwrap(),
        );
        let (mut w, t) = SdfFileWriter::create(&fs, "s.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "s.sdf", LibraryModel::Raw, 1, 0.0).unwrap();
        // One 8-element column from each of 256 rows.
        let (ds, t_strided) = r.read_dataset_strided("blk000001/grid", 0, 256, 8, 128, t).unwrap();
        assert_eq!(ds.shape, vec![256, 8]);
        // Naive: one range read per piece.
        let mut t_naive = t;
        for i in 0..256 {
            let (piece, t2) = r.read_dataset_range("blk000001/grid", i * 128, 8, t_naive).unwrap();
            assert_eq!(piece.data.as_f64().unwrap(), &values[i * 128..i * 128 + 8]);
            t_naive = t2;
        }
        assert!(
            (t_strided - t) * 2.0 < t_naive - t,
            "sieved strided read {:.6}s not ≥2x faster than per-piece {:.6}s",
            t_strided - t,
            t_naive - t
        );
    }

    #[test]
    fn block_subset_matches_full_block() {
        let fs = SharedFs::turing();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        for want in &blocks {
            let (sub, t2) = r.read_block_subset(want.id, &["ids"], t).unwrap();
            assert!(t2 > t);
            assert_eq!(sub.id, want.id);
            assert_eq!(sub.attrs, want.attrs);
            assert_eq!(sub.datasets.len(), 1);
            assert_eq!(sub.dataset("ids").unwrap(), want.dataset("ids").unwrap());
            // Full subset == full block.
            let (full, _) = r.read_block_subset(want.id, &["pressure", "ids"], t).unwrap();
            let (whole, _) = r.read_block_shared(want.id, t).unwrap();
            assert_eq!(full, whole);
        }
        assert!(r.read_block_subset(blocks[0].id, &["ghost"], t).is_err());
    }

    #[test]
    fn blocks_sieved_match_chained_shared_reads() {
        let fs_a = SharedFs::turing();
        let fs_b = SharedFs::turing();
        let blocks = write_sample(&fs_a);
        write_sample(&fs_b);
        let ids: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
        let (ra, ta) = SdfFileReader::open(&fs_a, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (rb, tb) = SdfFileReader::open(&fs_b, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (batch, t_batch) = ra.read_blocks_sieved(&ids, ta).unwrap();
        let mut chained = Vec::new();
        let mut t_chain = tb;
        for &id in &ids {
            let (b, t2) = rb.read_block_shared(id, t_chain).unwrap();
            chained.push(b);
            t_chain = t2;
        }
        assert_eq!(batch, chained);
        assert_eq!(batch, blocks);
        // The batch is never slower; with contiguous neighbouring blocks
        // the sieve merges their records into fewer covering reads.
        assert!(t_batch <= t_chain);
        let (none, t_none) = ra.read_blocks_sieved(&[], ta).unwrap();
        assert!(none.is_empty() && t_none == ta);
    }

    #[test]
    fn blocks_raw_round_trip_through_decode() {
        let fs = SharedFs::turing();
        let blocks = write_sample(&fs);
        let ids: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let before = fs.stats();
        let (raw, t2) = r.read_blocks_raw(&ids, t).unwrap();
        assert!(t2 > t);
        // One covering read: all records are contiguous in the file.
        assert_eq!(fs.stats().read_ops, before.read_ops + 1);
        assert_eq!(raw.len(), blocks.len());
        for ((id, records), want) in raw.iter().zip(&blocks) {
            assert_eq!(*id, want.id);
            // Records are self-describing: meta first, then members.
            let meta = crate::format::decode_dataset_shared(&records[0], &mut 0).unwrap();
            let (got_id, window, attrs) = parse_block_meta(&meta).unwrap();
            assert_eq!(got_id, want.id);
            let mut rebuilt = DataBlock::new(got_id, window);
            rebuilt.attrs = attrs;
            let prefix = crate::format::block_prefix(got_id);
            for rec in &records[1..] {
                let mut ds = crate::format::decode_dataset_shared(rec, &mut 0).unwrap();
                ds.name = ds.name.strip_prefix(&prefix).unwrap().to_string();
                rebuilt.push_dataset(ds).unwrap();
            }
            assert_eq!(&rebuilt, want);
        }
    }

    #[test]
    fn big_array_survives() {
        let fs = SharedFs::ideal();
        let big: Vec<f64> = (0..100_000).map(|i| i as f64 * 0.5).collect();
        let block = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::new("v", vec![100, 1000], ArrayData::F64(big)).unwrap());
        let (mut w, t) = SdfFileWriter::create(&fs, "big.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "big.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let (got, _) = r.read_block(BlockId(1), t).unwrap();
        assert_eq!(got, block);
    }
}
