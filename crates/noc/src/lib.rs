//! Hierarchical GPU on-chip network model.
//!
//! This crate implements the interconnect whose bandwidth sharing the
//! paper exploits (§2.3, §3): SM pairs concentrate into a TPC channel
//! through a 2:1 mux, TPC channels concentrate into a GPC channel with
//! speedup, GPC channels meet the 48 L2 slices over a crossbar, and a
//! separate reply subnet carries data back to per-SM ejection ports.
//!
//! The building blocks are deliberately small and composable:
//!
//! * [`packet`] — request/reply packets with flit sizes from the
//!   configured [`gnc_common::config::NocConfig`].
//! * [`arbiter`] — the four arbitration policies studied in §6
//!   (round-robin, coarse-grain RR, strict RR, age-based).
//! * [`delay`] — constant-latency FIFO delay lines (channel pipelines).
//! * [`mux`] — the concentrating mux: N bounded input FIFOs, one output
//!   channel of B flits/cycle, a pluggable arbiter, and flow control.
//! * [`crossbar`] — an input-queued crossbar built from per-output muxes.
//! * [`eject`] — the per-SM reply ejection port, scheduled in closed form.
//! * [`fabric`] — the full request and reply networks wired per
//!   [`gnc_common::GpuConfig`].
//!
//! # Example
//!
//! ```
//! use gnc_common::GpuConfig;
//! use gnc_noc::fabric::RequestFabric;
//!
//! let cfg = GpuConfig::volta_v100();
//! let fabric = RequestFabric::new(&cfg);
//! assert_eq!(fabric.num_sm_ports(), 80);
//! ```

pub mod arbiter;
mod arena;
pub mod crossbar;
pub mod delay;
pub mod eject;
pub mod event;
pub mod fabric;
pub mod mux;
pub mod packet;
mod ring;

pub use arbiter::{ArbHead, Arbiter, OccupancyMask};
pub use event::NextEvent;
pub use fabric::{ReplyFabric, RequestFabric};
pub use mux::ConcentratorMux;
pub use packet::{Packet, PacketId, PacketKind};
