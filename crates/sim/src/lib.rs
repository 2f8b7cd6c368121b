//! Cycle-level GPU engine.
//!
//! This crate assembles the NoC fabric ([`gnc_noc`]) and the memory
//! system ([`gnc_mem`]) into a runnable GPU and adds everything the
//! paper's CUDA kernels relied on:
//!
//! * [`clock`] — the per-SM 32-bit `clock()` register with realistic
//!   skew (nearly identical within a TPC, close within a GPC, wildly
//!   different across GPCs — Fig 6).
//! * [`kernel`] — the micro-kernel programming model: a kernel spawns a
//!   [`kernel::WarpProgram`] state machine per warp; programs issue
//!   memory batches, sleep, spin on the clock, read `%smid`, and record
//!   measurements, which is exactly the vocabulary of Algorithms 1–2.
//! * [`coalesce`] — the memory coalescer (one packet per distinct cache
//!   line touched by a warp, §5).
//! * [`sm`] — the SM: resident warps, a round-robin issue scheduler, an
//!   LSU with bounded outstanding requests, and L1 bypass semantics.
//! * [`block_sched`] — the thread-block scheduler with the placement
//!   policy reverse-engineered in §4.3 (GPC-interleaved, then
//!   TPC-interleaved, siblings last).
//! * [`gpu`] — the engine: streams, concurrent kernels, the tick loop,
//!   and instrumentation.
//! * [`workloads`] — reusable synthetic kernels (streaming reads/writes,
//!   clock dumps) used by the reverse-engineering and benchmarks.
//!
//! # Example
//!
//! ```
//! use gnc_common::GpuConfig;
//! use gnc_sim::gpu::Gpu;
//!
//! # fn main() -> Result<(), gnc_common::ConfigError> {
//! let gpu = Gpu::new(GpuConfig::volta_v100())?;
//! assert_eq!(gpu.num_sms(), 80);
//! # Ok(())
//! # }
//! ```

pub mod block_sched;
pub mod clock;
pub mod coalesce;
pub mod gpu;
pub mod kernel;
pub mod pool;
pub mod sm;
pub mod workloads;

pub use gpu::{gpus_built, gpus_reset, Gpu, LoopMode, RunOutcome};
pub use kernel::{KernelProgram, Record, Recorder, WarpContext, WarpProgram, WarpStep};
pub use pool::{pooled_gpu, with_pooled_gpu, GpuPool, PooledGpu};
