//! # rocnet
//!
//! An MPI-like in-process message-passing fabric with **virtual time**.
//!
//! GENx ran on MPI over Myrinet (Turing) and SP Switch2 (Frost). This crate
//! substitutes for MPI per the reproduction plan (DESIGN.md §2): every rank
//! is an OS thread, messages travel through in-memory mailboxes, and the
//! *protocol* code paths (eager sends, blocking/non-blocking probe,
//! communicator splits, wildcard receives) are real. Communication *cost*
//! is produced by a network model: every message is stamped with a modelled
//! arrival time, and each rank carries a [`vtime::VClock`] that advances by
//! modelled compute, send and receive costs — so experiment timings are
//! deterministic and reflect 2003-era cluster parameters rather than
//! host loopback speed.
//!
//! ## Key pieces
//!
//! * [`fabric::Fabric`] — shared mailboxes and delivery;
//! * [`comm::Comm`] — the per-rank handle: `send`, `recv`, `probe`,
//!   `iprobe`, `barrier`, `split`, plus clock access;
//! * [`model::NetworkModel`] — latency/bandwidth/contention of a network
//!   (Myrinet, SP Switch2, ideal);
//! * [`cluster::ClusterSpec`] — node topology, CPU speed, OS-noise model
//!   (the Fig. 3(b) mechanism);
//! * [`harness::run_ranks`] — run every rank and collect results, the
//!   equivalent of `mpirun`. Ranks are small-stack threads multiplexed
//!   over a bounded admission pool ([`sched`]), so 10k-rank jobs are
//!   practical; `run_ranks_threaded` keeps the legacy
//!   one-OS-thread-per-rank shape as a baseline.
//!
//! ## Example
//!
//! ```
//! use rocnet::cluster::ClusterSpec;
//! use rocnet::harness::run_ranks;
//!
//! let spec = ClusterSpec::ideal(4);
//! let totals = run_ranks(4, spec, |comm| {
//!     // Everybody sends its rank to rank 0.
//!     if comm.rank() == 0 {
//!         let mut sum = 0u64;
//!         for _ in 0..comm.size() - 1 {
//!             let m = comm.recv(None, Some(7)).unwrap();
//!             sum += u64::from_le_bytes(m.payload[..8].try_into().unwrap());
//!         }
//!         sum
//!     } else {
//!         comm.send(0, 7, &(comm.rank() as u64).to_le_bytes()).unwrap();
//!         0
//!     }
//! });
//! assert_eq!(totals[0], 1 + 2 + 3);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod collective;
pub mod comm;
pub mod fabric;
pub mod harness;
pub mod model;
pub mod payload;
pub mod request;
pub mod rocrel;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod tree;
pub mod vtime;

pub use bytes::Bytes;
pub use cluster::{ClusterSpec, NodeUsage};
pub use comm::{Comm, Message};
pub use fabric::{Fabric, FaultInjector, FaultStats};
pub use harness::{
    run_on_fabric, run_on_fabric_threaded, run_ranks, run_ranks_threaded,
};
pub use model::{FaultAction, FaultSpec, NetworkModel};
pub use payload::Payload;
pub use sched::{run_on_fabric_sched, run_ranks_sched, SchedConfig};
pub use request::{RecvRequest, SendRequest};
pub use rocrel::{RelConfig, RelOnly, ReliableComm, TAG_REL};
pub use stats::CommStats;
pub use trace::{EventKind, TraceEvent};
pub use vtime::VClock;
