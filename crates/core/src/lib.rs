//! # rocio-core
//!
//! Shared foundation types for the GENx parallel-I/O reproduction.
//!
//! This crate holds the vocabulary that every other crate in the workspace
//! speaks:
//!
//! * [`DType`] / [`ArrayData`] — typed, binary-portable array payloads;
//! * [`Dataset`] — a named, shaped array with attached metadata;
//! * [`DataBlock`] — the paper's *data block*: "a collection of arrays and
//!   metadata associated with the arrays … the unit of work distributed to
//!   the compute processors" (§4);
//! * [`AttrValue`] — typed metadata attribute values;
//! * [`SnapshotId`] and file-naming helpers for periodic output phases;
//! * [`RocError`] — the workspace-wide error type.
//!
//! Nothing in here depends on the message-passing fabric, the storage
//! simulator, or the component framework; those all build on top.

#![forbid(unsafe_code)]

pub mod attr;
pub mod block;
pub mod checksum;
pub mod dataset;
pub mod dtype;
pub mod error;
pub mod le;
pub mod lockdep;
pub mod segment;
pub mod snapshot;
pub mod tenant;
pub mod units;

pub use attr::AttrValue;
pub use block::{BlockId, DataBlock};
pub use checksum::Checksum;
pub use dataset::Dataset;
pub use dtype::{ArrayData, DType, SharedArray, LE_CHUNK};
pub use error::{Result, RocError};
pub use segment::{flatten_parts, segments_len, segments_to_parts, segments_to_vec, Segment};
pub use snapshot::{snapshot_file_name, snapshot_file_prefix, SnapshotId};
pub use tenant::{Priority, ServiceError, ServiceErrorKind, TenantId};
pub use units::{fmt_bytes, SimTime, KIB, MIB};
