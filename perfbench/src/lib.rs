//! Benchmark of the simulator's three user-facing procedures: blind
//! TPC→GPC recovery, multi-TPC exfiltration, and hardened delivery under
//! faults. See README.md for workloads, metrics and how to run it.

pub mod checks;
pub mod hostref;
pub mod trace;
pub mod workload;
