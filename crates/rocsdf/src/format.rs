//! Binary layout of SDF files.
//!
//! ```text
//! file   := header dataset* index trailer
//! header := "RSDF" version:u16 flags:u16
//! dataset:= "DS00" name_len:u16 name dtype:u8 rank:u8 extent:u64{rank}
//!           n_attrs:u16 (key_len:u16 key attr_value)* data_len:u64 data
//! index  := "IDX0" n:u64 (name_len:u16 name offset:u64 len:u64){n}
//! trailer:= index_offset:u64 "RSDF"
//! ```
//!
//! All integers little-endian. A file is self-describing: decoding needs no
//! external schema. The index enables direct per-dataset access; a missing
//! or corrupt index can be recovered by sequential scan (see
//! [`crate::inspect::describe`]).

use bytes::Bytes;
use rocio_core::{
    ArrayData, AttrValue, BlockId, DType, DataBlock, Dataset, Result, RocError, Segment, LE_CHUNK,
};

/// File magic, also used as the trailer sentinel.
pub const MAGIC: &[u8; 4] = b"RSDF";
/// Dataset record marker.
pub const DS_MARKER: &[u8; 4] = b"DS00";
/// Index marker.
pub const IDX_MARKER: &[u8; 4] = b"IDX0";
/// Current format version.
pub const VERSION: u16 = 1;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 8;
/// Size of the fixed trailer in bytes.
pub const TRAILER_LEN: usize = 12;

/// Name of the per-block metadata dataset within a block's group.
pub const BLOCK_META: &str = "__meta__";

/// Reserved attribute carrying the CRC-32 of a dataset's payload.
/// Written by [`crate::writer::SdfFileWriter`], verified and stripped by
/// [`decode_dataset`]. The fabric is trusted, so the checksum is checked
/// where bytes leave storage, never again on the wire: Rocpanda messages
/// do not carry it, and the raw file records the two-phase restart ships
/// do carry it but are verified by the aggregating reader, once per
/// record per file generation ([`crate::SdfFileReader::read_blocks_raw`]),
/// so their receivers decode with `verify_crc = false`.
pub const CRC_ATTR: &str = "__crc32__";

/// Slice-by-8 lookup tables for [`crc32`], generated at compile time
/// from the bitwise definition. `CRC_TABLES[j][b]` advances a CRC whose
/// next input byte is `b` with `j` more bytes following in the same
/// 8-byte group.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Reflected CRC-32 generator polynomial (ISO-HDLC, as used by zlib).
const POLY: u32 = 0xEDB8_8320;

/// Inputs shorter than this take the single-lane loop: below it the lane
/// fold costs more than the parallelism saves.
const LANES_MIN: usize = 1024;

/// `a(x) · b(x) mod P(x)` over GF(2), in the reflected bit order the CRC
/// register uses (bit 31 is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        m >>= 1;
    }
    p
}

/// `X8_POW2[k] = x^(8·2^k) mod P`: the operator that shifts a CRC register
/// past `2^k` zero bytes, for every power of two a `usize` length can hold.
const X8_POW2: [u32; usize::BITS as usize] = {
    let mut t = [0u32; usize::BITS as usize];
    t[0] = 1 << (31 - 8); // x^8
    let mut k = 1;
    while k < t.len() {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8·n) mod P`: multiplying a CRC register by it has the same effect
/// as feeding it `n` zero bytes.
const fn shift_op(mut n: usize) -> u32 {
    let mut op = 1 << 31; // x^0
    let mut k = 0;
    while n != 0 {
        if n & 1 != 0 {
            op = mul_mod_p(X8_POW2[k], op);
        }
        n >>= 1;
        k += 1;
    }
    op
}

/// Advance the raw (uninverted) register by one 8-byte little-endian word.
#[inline(always)]
fn step8(crc: u32, word: u64) -> u32 {
    let lo = crc ^ word as u32;
    let hi = (word >> 32) as u32;
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// Single-lane slice-by-8 over the raw register.
fn update_serial(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, rest) = bytes.as_chunks::<8>();
    for w in words {
        crc = step8(crc, u64::from_le_bytes(*w));
    }
    for &b in rest {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Four interleaved slice-by-8 lanes over consecutive `quarter`-byte
/// slices of `bytes` (`quarter` a multiple of 8, `4 · quarter <= len`),
/// folded with `op = shift_op(quarter)`; the tail takes the single lane.
///
/// The raw register is linear, so `crc(r, A ‖ B) = crc(r, A) · x^(8|B|) ⊕
/// crc(0, B)`: lanes 1–3 start from zero and each fold shifts the running
/// register past one quarter. The four lanes have independent dependency
/// chains, which is what lets them overlap in the pipeline.
fn update_lanes(crc: u32, bytes: &[u8], quarter: usize, op: u32) -> u32 {
    assert_eq!(quarter % 8, 0, "lanes must cover whole 8-byte words");
    let (a, rest) = bytes.split_at(quarter);
    let (b, rest) = rest.split_at(quarter);
    let (c, rest) = rest.split_at(quarter);
    let (d, tail) = rest.split_at(quarter);
    let [a, b, c, d] = [a, b, c, d].map(|q| q.as_chunks::<8>().0);
    let mut l = [crc, 0, 0, 0];
    for (((wa, wb), wc), wd) in a.iter().zip(b).zip(c).zip(d) {
        l[0] = step8(l[0], u64::from_le_bytes(*wa));
        l[1] = step8(l[1], u64::from_le_bytes(*wb));
        l[2] = step8(l[2], u64::from_le_bytes(*wc));
        l[3] = step8(l[3], u64::from_le_bytes(*wd));
    }
    let folded = l[1..]
        .iter()
        .fold(l[0], |acc, &lane| mul_mod_p(op, acc) ^ lane);
    update_serial(folded, tail)
}

/// Advance the raw register over `bytes`, four lanes at a time when long.
fn update_raw(crc: u32, bytes: &[u8]) -> u32 {
    if bytes.len() < LANES_MIN {
        return update_serial(crc, bytes);
    }
    let quarter = (bytes.len() / 4) & !7;
    update_lanes(crc, bytes, quarter, shift_op(quarter))
}

/// CRC-32 (ISO-HDLC, the zlib polynomial) of `bytes`.
///
/// Slice-by-8 tables, run as four independent lanes over equal 8-byte
/// aligned quarters of the input and folded together with a GF(2) shift
/// (`x^(8·len) mod P`, from a compile-time `x^(2^k)` table); inputs under
/// 1 KiB and the tail take the single-lane loop. Byte-identical to the
/// bitwise definition (tested against it below).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continue a CRC-32 over more input: `crc32_update(crc32(a), b)` equals
/// `crc32(a ‖ b)`, so a payload can be checksummed chunk by chunk.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    !update_raw(!crc, bytes)
}

/// CRC-32 of a dataset's canonical little-endian payload bytes.
///
/// Streams [`ArrayData::for_each_le_chunk`]: shared and `u8` payloads are
/// checksummed in place, typed payloads chunk by chunk out of a stack
/// buffer, so no payload is copied to the heap. Every typed chunk but the
/// last is [`LE_CHUNK`] bytes, whose lane fold is a compile-time constant.
/// Encoders inject the result as the `__crc32__` attribute during
/// encoding (see [`encode_dataset_into`]).
pub fn payload_crc32(ds: &Dataset) -> u32 {
    const CHUNK_QUARTER: usize = LE_CHUNK / 4;
    const CHUNK_OP: u32 = shift_op(CHUNK_QUARTER);
    let mut crc = !0;
    ds.data.for_each_le_chunk(|c| {
        crc = if c.len() == LE_CHUNK {
            update_lanes(crc, c, CHUNK_QUARTER, CHUNK_OP)
        } else {
            update_raw(crc, c)
        }
    });
    !crc
}

/// Dataset-name prefix for a block's group of datasets.
pub fn block_prefix(id: BlockId) -> String {
    format!("blk{:06}/", id.0)
}

/// Parse a block id out of a prefixed dataset name.
pub fn parse_block_id(name: &str) -> Option<BlockId> {
    let rest = name.strip_prefix("blk")?;
    let (digits, tail) = rest.split_at(rest.find('/')?);
    if !tail.starts_with('/') {
        return None;
    }
    digits.parse::<u64>().ok().map(BlockId)
}

/// Encode the file header.
pub fn encode_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out
}

/// Validate a file header.
pub fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
        return Err(RocError::Corrupt("SDF: bad magic".into()));
    }
    let version = rocio_core::le::u16(&bytes[4..6], "SDF version")?;
    if version != VERSION {
        return Err(RocError::Corrupt(format!(
            "SDF: unsupported version {version}"
        )));
    }
    Ok(())
}

/// Encode one dataset record (contiguous).
pub fn encode_dataset(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::with_capacity(ds.encoded_size() + 16);
    encode_dataset_into(ds, None, None, &mut out);
    out
}

fn encode_attr_entry(k: &str, v: &AttrValue, out: &mut Vec<u8>) {
    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
    out.extend_from_slice(k.as_bytes());
    v.encode(out);
}

/// Append the record *header* — everything from the `DS00` marker through
/// the `data_len` field, i.e. all bytes before the payload — to `out`.
///
/// `name_override` replaces the dataset's own name (the server re-labels
/// datasets under a block-group prefix without cloning them); `crc`
/// injects a `__crc32__` Int attribute in its sorted position within the
/// attribute table, replacing any existing entry, so the output is
/// byte-identical to encoding a dataset that carried the attribute in its
/// `BTreeMap`.
fn encode_dataset_header_into(
    ds: &Dataset,
    name_override: Option<&str>,
    crc: Option<u32>,
    out: &mut Vec<u8>,
) {
    let name = name_override.unwrap_or(&ds.name);
    out.extend_from_slice(DS_MARKER);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.push(ds.dtype().tag());
    out.push(ds.shape.len() as u8);
    for &e in &ds.shape {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    let crc_attr = crc.map(|c| AttrValue::Int(c as i64));
    let n_attrs = ds.attrs.len()
        + usize::from(crc_attr.is_some() && !ds.attrs.contains_key(CRC_ATTR));
    out.extend_from_slice(&(n_attrs as u16).to_le_bytes());
    let mut pending = crc_attr.as_ref();
    for (k, v) in &ds.attrs {
        if let Some(c) = pending {
            if k.as_str() >= CRC_ATTR {
                encode_attr_entry(CRC_ATTR, c, out);
                pending = None;
                if k == CRC_ATTR {
                    continue; // replaced by the computed checksum
                }
            }
        }
        encode_attr_entry(k, v, out);
    }
    if let Some(c) = pending {
        encode_attr_entry(CRC_ATTR, c, out);
    }
    out.extend_from_slice(&(ds.byte_len() as u64).to_le_bytes());
}

/// Contiguous encode into a caller-supplied buffer, with optional rename
/// and checksum injection — the fallback for callers that need one flat
/// run of bytes. Produces exactly the bytes of [`encode_dataset`] on a
/// dataset renamed to `name_override` with `crc` in its attribute map,
/// without materializing that dataset.
pub fn encode_dataset_into(
    ds: &Dataset,
    name_override: Option<&str>,
    crc: Option<u32>,
    out: &mut Vec<u8>,
) {
    encode_dataset_header_into(ds, name_override, crc, out);
    ds.data.to_le_bytes(out);
}

/// Scatter-gather encode: appends an `IoSlice`-style segment list for one
/// dataset record instead of flattening it.
///
/// `head` is the staging buffer for the owned header bytes (pass a
/// recycled buffer to avoid allocation; it is cleared first). A shared
/// payload is appended as a [`Segment::Shared`] refcount bump; typed
/// payloads are encoded into the header segment so the record stays one
/// owned run. The concatenation of the appended segments is byte-identical
/// to [`encode_dataset_into`] with the same arguments.
pub fn encode_dataset_segments(
    ds: &Dataset,
    name_override: Option<&str>,
    crc: Option<u32>,
    mut head: Vec<u8>,
    out: &mut Vec<Segment>,
) {
    head.clear();
    encode_dataset_header_into(ds, name_override, crc, &mut head);
    match ds.data.as_shared() {
        Some(s) => {
            out.push(Segment::Owned(head));
            out.push(Segment::Shared(s.bytes().clone()));
        }
        None => {
            ds.data.to_le_bytes(&mut head);
            out.push(Segment::Owned(head));
        }
    }
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let s = bytes
        .get(*pos..*pos + n)
        .ok_or_else(|| RocError::Corrupt("SDF: truncated record".into()))?;
    *pos += n;
    Ok(s)
}

fn take_u16(bytes: &[u8], pos: &mut usize) -> Result<u16> {
    rocio_core::le::u16(take(bytes, pos, 2)?, "SDF u16 field")
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    rocio_core::le::u64(take(bytes, pos, 8)?, "SDF u64 field")
}

fn take_str(bytes: &[u8], pos: &mut usize, n: usize) -> Result<String> {
    // Validate in place, then copy once — not to_vec() followed by a
    // checked conversion of the copy.
    std::str::from_utf8(take(bytes, pos, n)?)
        .map(str::to_owned)
        .map_err(|_| RocError::Corrupt("SDF: invalid utf-8 name".into()))
}

/// Parsed record with the payload still identified only by position: the
/// shared scaffolding of the typed and zero-copy decoders.
struct RawRecord {
    name: String,
    dtype: DType,
    shape: Vec<usize>,
    n_elems: usize,
    attrs: std::collections::BTreeMap<String, AttrValue>,
    /// Absolute byte range of the payload within the input.
    payload: std::ops::Range<usize>,
}

/// Decode one dataset record at `*pos`, advancing `*pos` past it.
///
/// Every length field is validated against the remaining bytes *before*
/// any allocation, so corrupt input yields [`RocError::Corrupt`], never a
/// panic or an absurd allocation.
pub fn decode_dataset(bytes: &[u8], pos: &mut usize) -> Result<Dataset> {
    let rec = decode_record(bytes, pos, true)?;
    let payload = &bytes[rec.payload.clone()];
    let mut ds = Dataset::new(
        rec.name,
        rec.shape,
        ArrayData::from_le_bytes(rec.dtype, rec.n_elems, payload)?,
    )?;
    ds.attrs = rec.attrs;
    Ok(ds)
}

/// Decode one dataset record at `*pos` without copying its payload: the
/// returned dataset's data is an [`ArrayData::Shared`] view of `bytes`.
///
/// The view holds a refcount on the input's allocation, so it stays valid
/// after every other handle to `bytes` is dropped — this is how the
/// server's active buffer references message payloads until drain without
/// re-encoding or copying them. Checksum verification and stripping work
/// exactly as in [`decode_dataset`].
pub fn decode_dataset_shared(bytes: &Bytes, pos: &mut usize) -> Result<Dataset> {
    decode_dataset_shared_with(bytes, pos, true)
}

/// [`decode_dataset_shared`] with the caller choosing whether the payload
/// checksum is recomputed.
///
/// Pass `verify_crc: false` **only** when the same record bytes were
/// already checksum-verified in an immutable image — the reader's
/// open-metadata cache tracks this per record per file generation, so a
/// warm restart re-reading a frozen snapshot skips the CRC pass it
/// already paid (and any rewrite of the path starts a new generation,
/// which verifies afresh). The checksum attribute is stripped either way,
/// so decoded datasets are identical across both modes.
pub fn decode_dataset_shared_with(
    bytes: &Bytes,
    pos: &mut usize,
    verify_crc: bool,
) -> Result<Dataset> {
    let rec = decode_record(bytes, pos, verify_crc)?;
    let mut ds = Dataset::new(
        rec.name,
        rec.shape,
        ArrayData::from_le_shared(rec.dtype, rec.n_elems, bytes.slice(rec.payload.clone()))?,
    )?;
    ds.attrs = rec.attrs;
    Ok(ds)
}

/// Check one whole record image: its structure, and its payload against
/// the stored checksum when it carries one. This is the verification
/// [`decode_dataset`] performs, without building the dataset.
pub fn verify_record(bytes: &[u8]) -> Result<()> {
    decode_record(bytes, &mut 0, true).map(drop)
}

fn decode_record(bytes: &[u8], pos: &mut usize, verify_crc: bool) -> Result<RawRecord> {
    let marker = take(bytes, pos, 4)?;
    if marker != DS_MARKER {
        return Err(RocError::Corrupt(format!(
            "SDF: expected dataset marker at {}, found {:?}",
            *pos - 4,
            marker
        )));
    }
    let name_len = take_u16(bytes, pos)? as usize;
    let name = take_str(bytes, pos, name_len)?;
    let dtype = DType::from_tag(take(bytes, pos, 1)?[0])?;
    let rank = take(bytes, pos, 1)?[0] as usize;
    let mut shape = Vec::with_capacity(rank.min(16));
    let mut n_elems: usize = 1;
    for _ in 0..rank {
        let extent = take_u64(bytes, pos)? as usize;
        n_elems = n_elems
            .checked_mul(extent)
            .ok_or_else(|| RocError::Corrupt("SDF: shape overflow".into()))?;
        shape.push(extent);
    }
    // The payload cannot exceed the remaining bytes; reject before
    // allocating anything shaped by untrusted sizes.
    if n_elems.checked_mul(dtype.size()).is_none()
        || n_elems * dtype.size() > bytes.len().saturating_sub(*pos)
    {
        return Err(RocError::Corrupt(format!(
            "SDF: dataset '{name}' claims {n_elems} elements, larger than the file"
        )));
    }
    let n_attrs = take_u16(bytes, pos)? as usize;
    let mut attrs = std::collections::BTreeMap::new();
    for _ in 0..n_attrs {
        let klen = take_u16(bytes, pos)? as usize;
        let key = take_str(bytes, pos, klen)?;
        let val = AttrValue::decode(bytes, pos)?;
        attrs.insert(key, val);
    }
    let data_len = take_u64(bytes, pos)? as usize;
    if data_len != n_elems * dtype.size() {
        return Err(RocError::Corrupt(format!(
            "SDF: dataset '{name}' payload length {data_len} != shape {shape:?} x {}",
            dtype.name()
        )));
    }
    let payload_start = *pos;
    let payload = take(bytes, pos, data_len)?;
    // Verify and strip the integrity checksum when present (file records
    // carry one; wire records do not). Callers that already verified this
    // record in an immutable image may skip the recomputation; the
    // attribute is stripped unconditionally.
    if let Some(AttrValue::Int(stored)) = attrs.remove(CRC_ATTR) {
        if verify_crc {
            let actual = crc32(payload);
            if actual as i64 != stored {
                return Err(RocError::Corrupt(format!(
                    "SDF: dataset '{name}' payload checksum mismatch                  (stored {stored:#x}, computed {actual:#x})"
                )));
            }
        }
    }
    Ok(RawRecord {
        name,
        dtype,
        shape,
        n_elems,
        attrs,
        payload: payload_start..*pos,
    })
}

/// Parsed record header of a dataset (without its payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetHeader {
    pub name: String,
    pub dtype: DType,
    pub shape: Vec<usize>,
    pub n_attrs: usize,
    /// Bytes from the record start to the first payload byte.
    pub header_len: usize,
    /// Payload length in bytes.
    pub data_len: usize,
}

/// Decode just the header of a dataset record (name, dtype, shape, attrs,
/// payload extent) from a prefix of the record's bytes. Errors if the
/// prefix is too short — callers retry with a longer prefix.
pub fn decode_dataset_header(bytes: &[u8]) -> Result<DatasetHeader> {
    let mut pos = 0;
    let marker = take(bytes, &mut pos, 4)?;
    if marker != DS_MARKER {
        return Err(RocError::Corrupt("SDF: bad dataset marker".into()));
    }
    let name_len = take_u16(bytes, &mut pos)? as usize;
    let name = take_str(bytes, &mut pos, name_len)?;
    let dtype = DType::from_tag(take(bytes, &mut pos, 1)?[0])?;
    let rank = take(bytes, &mut pos, 1)?[0] as usize;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(take_u64(bytes, &mut pos)? as usize);
    }
    let n_attrs = take_u16(bytes, &mut pos)? as usize;
    for _ in 0..n_attrs {
        let klen = take_u16(bytes, &mut pos)? as usize;
        let _key = take_str(bytes, &mut pos, klen)?;
        let _val = AttrValue::decode(bytes, &mut pos)?;
    }
    let data_len = take_u64(bytes, &mut pos)? as usize;
    Ok(DatasetHeader {
        name,
        dtype,
        shape,
        n_attrs,
        header_len: pos,
        data_len,
    })
}

/// One index entry: dataset name, absolute offset, encoded length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    pub name: String,
    pub offset: u64,
    pub len: u64,
}

/// Encode the index and trailer given entry list and the index's own
/// offset in the file.
pub fn encode_index(entries: &[IndexEntry], index_offset: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(IDX_MARKER);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
        out.extend_from_slice(e.name.as_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
    }
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(MAGIC);
    out
}

/// Decode the trailer (last [`TRAILER_LEN`] bytes): returns the index
/// offset.
pub fn decode_trailer(trailer: &[u8]) -> Result<u64> {
    if trailer.len() != TRAILER_LEN || &trailer[8..12] != MAGIC {
        return Err(RocError::Corrupt("SDF: bad trailer".into()));
    }
    rocio_core::le::u64(&trailer[..8], "SDF index offset")
}

/// Decode the index region (from its offset up to the trailer).
pub fn decode_index(bytes: &[u8]) -> Result<Vec<IndexEntry>> {
    let mut pos = 0;
    if take(bytes, &mut pos, 4)? != IDX_MARKER {
        return Err(RocError::Corrupt("SDF: bad index marker".into()));
    }
    let n = take_u64(bytes, &mut pos)? as usize;
    // Each entry is at least 18 bytes; anything claiming more is corrupt.
    if n > bytes.len().saturating_sub(pos) / 18 {
        return Err(RocError::Corrupt(format!(
            "SDF: index claims {n} entries, larger than the region"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = take_u16(bytes, &mut pos)? as usize;
        let name = take_str(bytes, &mut pos, name_len)?;
        let offset = take_u64(bytes, &mut pos)?;
        let len = take_u64(bytes, &mut pos)?;
        entries.push(IndexEntry { name, offset, len });
    }
    Ok(entries)
}

/// Encode a block's metadata as its `__meta__` dataset.
pub fn block_meta_dataset(block: &DataBlock) -> Dataset {
    let mut ds = Dataset::vector(
        format!("{}{}", block_prefix(block.id), BLOCK_META),
        Vec::<u8>::new(),
    )
    .with_attr("window", block.window.as_str())
    .with_attr("block_id", block.id.0 as i64)
    .with_attr("n_datasets", block.datasets.len() as i64);
    for (k, v) in &block.attrs {
        ds.attrs.insert(format!("blk:{k}"), v.clone());
    }
    ds
}

/// Reconstruct block id, window name and block attrs from a `__meta__`
/// dataset.
pub fn parse_block_meta(
    ds: &Dataset,
) -> Result<(BlockId, String, std::collections::BTreeMap<String, AttrValue>)> {
    let id = BlockId(ds.attrs.get("block_id").map_or_else(
        || Err(RocError::Corrupt("block meta missing id".into())),
        |v| v.as_int(),
    )? as u64);
    let window = ds
        .attrs
        .get("window")
        .ok_or_else(|| RocError::Corrupt("block meta missing window".into()))?
        .as_str()?
        .to_string();
    let mut attrs = std::collections::BTreeMap::new();
    for (k, v) in &ds.attrs {
        if let Some(orig) = k.strip_prefix("blk:") {
            attrs.insert(orig.to_string(), v.clone());
        }
    }
    Ok((id, window, attrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        Dataset::new(
            "blk000003/pressure",
            vec![2, 3],
            ArrayData::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        .unwrap()
        .with_attr("units", "Pa")
        .with_attr("step", 50i64)
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        fn bitwise(bytes: &[u8]) -> u32 {
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
        // ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Every length mod 8 (exercises the chunked body + remainder),
        // then lengths across the four-lane threshold, around the typed
        // payload chunk size, and one long odd length.
        let data: Vec<u8> = (0u32..100_003)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let lens = (0..=300)
            .chain(1000..=1100)
            .chain(LE_CHUNK - 9..=LE_CHUNK + 9)
            .chain([data.len()]);
        for len in lens {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn lane_shift_matches_feeding_zero_bytes() {
        for n in [0, 1, 7, 8, 1024, 1031, 65_536] {
            let zeros = vec![0u8; n];
            for reg in [0x8000_0000u32, 0xDEAD_BEEF, !0] {
                let shifted = mul_mod_p(shift_op(n), reg);
                assert_eq!(shifted, update_serial(reg, &zeros), "n {n}");
            }
        }
    }

    #[test]
    fn dataset_record_round_trip() {
        let ds = sample_dataset();
        let enc = encode_dataset(&ds);
        let mut pos = 0;
        let dec = decode_dataset(&enc, &mut pos).unwrap();
        assert_eq!(pos, enc.len());
        assert_eq!(ds, dec);
    }

    #[test]
    fn sequence_of_records_round_trips() {
        let a = sample_dataset();
        let b = Dataset::vector("conn", vec![1i32, 2, 3, 4]);
        let mut buf = encode_dataset(&a);
        buf.extend(encode_dataset(&b));
        let mut pos = 0;
        assert_eq!(decode_dataset(&buf, &mut pos).unwrap(), a);
        assert_eq!(decode_dataset(&buf, &mut pos).unwrap(), b);
    }

    #[test]
    fn corrupt_marker_rejected() {
        let mut enc = encode_dataset(&sample_dataset());
        enc[0] = b'X';
        assert!(decode_dataset(&enc, &mut 0).is_err());
    }

    #[test]
    fn truncated_record_rejected() {
        let enc = encode_dataset(&sample_dataset());
        for cut in [3, 10, enc.len() - 1] {
            assert!(
                decode_dataset(&enc[..cut], &mut 0).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn header_round_trip() {
        let h = encode_header();
        assert_eq!(h.len(), HEADER_LEN);
        assert!(check_header(&h).is_ok());
        assert!(check_header(b"BAD!").is_err());
        let mut wrong_version = h.clone();
        wrong_version[4] = 99;
        assert!(check_header(&wrong_version).is_err());
    }

    #[test]
    fn index_round_trip() {
        let entries = vec![
            IndexEntry {
                name: "a".into(),
                offset: 8,
                len: 100,
            },
            IndexEntry {
                name: "blk000001/p".into(),
                offset: 108,
                len: 64,
            },
        ];
        let enc = encode_index(&entries, 172);
        let trailer = &enc[enc.len() - TRAILER_LEN..];
        assert_eq!(decode_trailer(trailer).unwrap(), 172);
        let idx = decode_index(&enc[..enc.len() - TRAILER_LEN]).unwrap();
        assert_eq!(idx, entries);
    }

    #[test]
    fn trailer_validation() {
        assert!(decode_trailer(&[0u8; 11]).is_err());
        assert!(decode_trailer(&[0u8; 12]).is_err());
    }

    #[test]
    fn block_prefix_and_parse() {
        let p = block_prefix(BlockId(42));
        assert_eq!(p, "blk000042/");
        assert_eq!(parse_block_id("blk000042/pressure"), Some(BlockId(42)));
        assert_eq!(parse_block_id("blk123456/__meta__"), Some(BlockId(123456)));
        assert_eq!(parse_block_id("pressure"), None);
        assert_eq!(parse_block_id("blkXXX/p"), None);
    }

    #[test]
    fn block_meta_round_trip() {
        let block = DataBlock::new(BlockId(9), "solid")
            .with_dataset(Dataset::vector("disp", vec![0.0f64; 3]))
            .with_attr("material", "propellant")
            .with_attr("level", 2i64);
        let meta = block_meta_dataset(&block);
        let (id, window, attrs) = parse_block_meta(&meta).unwrap();
        assert_eq!(id, BlockId(9));
        assert_eq!(window, "solid");
        assert_eq!(attrs["material"].as_str().unwrap(), "propellant");
        assert_eq!(attrs["level"].as_int().unwrap(), 2);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_injection_round_trips_and_strips() {
        let ds = sample_dataset();
        let mut enc = Vec::new();
        encode_dataset_into(&ds, None, Some(payload_crc32(&ds)), &mut enc);
        // The encoding matches a dataset that carries the attribute in its
        // map — byte for byte, including BTreeMap attribute order.
        let mut stamped = ds.clone();
        stamped.attrs.insert(
            CRC_ATTR.to_string(),
            AttrValue::Int(payload_crc32(&ds) as i64),
        );
        assert_eq!(enc, encode_dataset(&stamped));
        // Checksum verified then stripped: decoded == original.
        let dec = decode_dataset(&enc, &mut 0).unwrap();
        assert_eq!(dec, ds);
    }

    #[test]
    fn crc_injection_preserves_attr_sort_order() {
        // '_' (0x5F) sorts between 'Z' and 'a': attributes on both sides
        // of the injected key exercise the merge in all three positions.
        for extra in [vec![], vec!["AAA"], vec!["zzz"], vec!["AAA", "zzz"], vec![CRC_ATTR]] {
            let mut ds = sample_dataset();
            for k in &extra {
                ds.attrs.insert(k.to_string(), AttrValue::Int(7));
            }
            let crc = payload_crc32(&ds);
            let mut enc = Vec::new();
            encode_dataset_into(&ds, None, Some(crc), &mut enc);
            let mut stamped = ds.clone();
            stamped
                .attrs
                .insert(CRC_ATTR.to_string(), AttrValue::Int(crc as i64));
            assert_eq!(enc, encode_dataset(&stamped), "extra attrs {extra:?}");
        }
    }

    #[test]
    fn payload_corruption_is_detected_by_crc() {
        let ds = sample_dataset();
        let mut enc = Vec::new();
        encode_dataset_into(&ds, None, Some(payload_crc32(&ds)), &mut enc);
        // Flip one byte inside the payload (the record tail).
        let n = enc.len();
        enc[n - 5] ^= 0x10;
        let err = decode_dataset(&enc, &mut 0);
        assert!(
            matches!(err, Err(RocError::Corrupt(ref m)) if m.contains("checksum")),
            "{err:?}"
        );
        // The zero-copy decoder enforces the same checksum.
        let err = decode_dataset_shared(&Bytes::from(enc), &mut 0);
        assert!(
            matches!(err, Err(RocError::Corrupt(ref m)) if m.contains("checksum")),
            "{err:?}"
        );
    }

    #[test]
    fn rename_without_clone_matches_cloned_encoding() {
        let ds = sample_dataset();
        let mut renamed = ds.clone();
        renamed.name = "grp000001/pressure".to_string();
        let mut enc = Vec::new();
        encode_dataset_into(&ds, Some("grp000001/pressure"), None, &mut enc);
        assert_eq!(enc, encode_dataset(&renamed));
    }

    #[test]
    fn segment_encode_concatenates_to_contiguous() {
        // Typed payload: one owned segment.
        let ds = sample_dataset();
        let mut segs = Vec::new();
        encode_dataset_segments(&ds, None, Some(payload_crc32(&ds)), Vec::new(), &mut segs);
        let mut flat = Vec::new();
        encode_dataset_into(&ds, None, Some(payload_crc32(&ds)), &mut flat);
        assert_eq!(rocio_core::segments_to_vec(&segs), flat);
        assert_eq!(segs.len(), 1);

        // Shared payload: owned header + shared payload view, no copy.
        let mut le = Vec::new();
        ds.data.to_le_bytes(&mut le);
        let shared = Dataset::new(
            ds.name.clone(),
            ds.shape.clone(),
            ArrayData::from_le_shared(ds.dtype(), ds.len(), Bytes::from(le)).unwrap(),
        )
        .unwrap();
        let mut segs = Vec::new();
        encode_dataset_segments(&shared, Some("renamed"), None, Vec::new(), &mut segs);
        assert_eq!(segs.len(), 2);
        assert!(matches!(segs[1], rocio_core::Segment::Shared(_)));
        let mut flat = Vec::new();
        encode_dataset_into(&shared, Some("renamed"), None, &mut flat);
        assert_eq!(rocio_core::segments_to_vec(&segs), flat);
    }

    #[test]
    fn shared_decode_survives_source_handle_drop() {
        let ds = sample_dataset();
        let enc = Bytes::from(encode_dataset(&ds));
        let mut pos = 0;
        let dec = decode_dataset_shared(&enc, &mut pos).unwrap();
        assert_eq!(pos, enc.len());
        drop(enc); // the decoded view must keep the allocation alive
        assert_eq!(dec, ds);
        assert!(dec.data.as_shared().is_some(), "decode must be zero-copy");
        // And it re-encodes byte-identically to the typed original.
        assert_eq!(encode_dataset(&dec), encode_dataset(&ds));
    }

    #[test]
    fn meta_dataset_survives_encode_decode() {
        let block = DataBlock::new(BlockId(1), "fluid").with_attr("t", 0.83f64);
        let meta = block_meta_dataset(&block);
        let enc = encode_dataset(&meta);
        let dec = decode_dataset(&enc, &mut 0).unwrap();
        let (id, window, attrs) = parse_block_meta(&dec).unwrap();
        assert_eq!(id, BlockId(1));
        assert_eq!(window, "fluid");
        assert_eq!(attrs["t"].as_float().unwrap(), 0.83);
    }
}
