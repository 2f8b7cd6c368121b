//! The three workloads: one operation is one user-level procedure, run
//! exactly as a user of the library runs it.

use crate::checks;
use gnc_common::bits::BitVec;
use gnc_common::fault::FaultConfig;
use gnc_common::ids::{GpcId, TpcId};
use gnc_common::rng::experiment_rng;
use gnc_common::GpuConfig;
use gnc_covert::channel::{ChannelPlan, TransmissionReport};
use gnc_covert::protocol::ProtocolConfig;
use gnc_covert::reverse::recover_mapping;
use gnc_covert::robust::{transmit_reliable, ReliableReport, RobustOptions};
use rand::seq::SliceRandom;

/// `gnc reverse` defaults: co-activation runs and batches per trial.
pub const REVERSE_RUNS: usize = 400;
pub const REVERSE_BATCHES: u32 = 10;
/// Protocol iterations of the exfiltration (Fig 10b's error-free point).
pub const EXFIL_ITERATIONS: u32 = 4;
/// Payload bits of one exfiltration (200 per channel over 40 TPCs).
pub const EXFIL_BITS: usize = 8000;
/// Protocol iterations of the hardened GPC channel.
pub const HARDENED_ITERATIONS: u32 = 4;
/// Message bits of one hardened delivery.
pub const HARDENED_BITS: usize = 88;

/// Which procedure a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Blind TPC→GPC recovery (§3, Fig 4).
    ReverseMap,
    /// Exfiltration over all 40 TPC channels (§4, Fig 10b).
    Exfiltrate,
    /// Reliable delivery over the GPC0 channel under `mild` faults.
    HardenedSend,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::ReverseMap, Self::Exfiltrate, Self::HardenedSend];

    pub fn name(self) -> &'static str {
        match self {
            Self::ReverseMap => "reverse_map",
            Self::Exfiltrate => "exfiltrate",
            Self::HardenedSend => "hardened_send",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed per-operation seeds of one round. They do not depend on
    /// `--seed`, so every run attempts the same operations and a
    /// delivery that fails, fails in every run.
    pub fn op_seeds(self) -> Vec<u64> {
        match self {
            // The `gnc reverse` invocation as shipped (seed 0).
            Self::ReverseMap => vec![0],
            Self::Exfiltrate => vec![0, 1],
            // Every 8th seed of 0..64: an even sample of the seed space.
            Self::HardenedSend => (0..8).map(|i| i * 8).collect(),
        }
    }
}

/// One operation's inputs.
#[derive(Debug, Clone)]
pub struct Op {
    /// Simulation seed (clock draw, protocol jitter, recovery trials,
    /// fault pattern).
    pub seed: u64,
    /// Payload the benchmark keeps its own copy of (empty for recovery).
    pub payload: BitVec,
}

/// What one operation returned.
#[derive(Debug, Clone)]
pub enum OpOutput {
    Mapping(Vec<Vec<TpcId>>),
    Exfil(TransmissionReport),
    Delivery(ReliableReport),
}

/// Checked outcome of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The procedure succeeded and its output checked out.
    Ok,
    /// The procedure reported failure itself (a hardened delivery that
    /// ran out of retries); its output is not checked.
    Failed,
}

/// A workload with its inputs built.
pub struct Bench {
    pub workload: Workload,
    pub cfg: GpuConfig,
    pub ops: Vec<Op>,
    pub plan: Option<ChannelPlan>,
    pub faults: FaultConfig,
    pub opts: RobustOptions,
}

impl Bench {
    /// Builds the configuration, plan and payloads. `seed` chooses the
    /// exfiltration payloads; the operation seeds are fixed.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let cfg = GpuConfig::volta_v100();
        let membership: Vec<Vec<TpcId>> = (0..cfg.num_gpcs)
            .map(|g| cfg.tpcs_of_gpc(GpcId::new(g)))
            .collect();
        let plan = match workload {
            Workload::ReverseMap => None,
            Workload::Exfiltrate => Some(ChannelPlan::multi_tpc(
                &cfg,
                ProtocolConfig::tpc(EXFIL_ITERATIONS),
            )),
            Workload::HardenedSend => Some(ChannelPlan::gpc(
                &cfg,
                ProtocolConfig::gpc(HARDENED_ITERATIONS),
                &membership,
                &[0],
            )),
        };
        let mut payloads = experiment_rng("perfbench.exfiltrate", seed);
        let ops = workload
            .op_seeds()
            .into_iter()
            .map(|op_seed| {
                let payload = match workload {
                    Workload::ReverseMap => BitVec::new(),
                    Workload::Exfiltrate => BitVec::random(&mut payloads, EXFIL_BITS),
                    Workload::HardenedSend => {
                        let mut rng = experiment_rng("perfbench.hardened_send", op_seed);
                        BitVec::random(&mut rng, HARDENED_BITS)
                    }
                };
                Op {
                    seed: op_seed,
                    payload,
                }
            })
            .collect();
        Self {
            workload,
            cfg,
            ops,
            plan,
            faults: FaultConfig::mild(),
            opts: RobustOptions::default(),
        }
    }

    /// The order a run visits the round's operations in, drawn from
    /// `seed`. Outcomes do not depend on it: every operation starts on a
    /// freshly reset machine.
    pub fn order(&self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.ops.len()).collect();
        order.shuffle(&mut experiment_rng("perfbench.order", seed));
        order
    }

    pub fn plan(&self) -> &ChannelPlan {
        self.plan.as_ref().expect("channel workload has a plan")
    }

    /// The fault preset of `op`, seeded by the operation.
    pub fn faults_of(&self, op: &Op) -> FaultConfig {
        self.faults.clone().with_seed(op.seed)
    }

    /// Runs one operation through the library's user-facing call.
    pub fn run(&self, op: &Op) -> OpOutput {
        match self.workload {
            Workload::ReverseMap => OpOutput::Mapping(
                recover_mapping(&self.cfg, REVERSE_RUNS, REVERSE_BATCHES, op.seed).groups,
            ),
            Workload::Exfiltrate => {
                OpOutput::Exfil(self.plan().transmit(&self.cfg, &op.payload, op.seed))
            }
            Workload::HardenedSend => OpOutput::Delivery(transmit_reliable(
                self.plan(),
                &self.cfg,
                &op.payload,
                op.seed,
                Some(&self.faults_of(op)),
                &self.opts,
            )),
        }
    }

    /// Checks one operation's output against its inputs.
    pub fn check(&self, op: &Op, out: &OpOutput) -> Result<Verdict, String> {
        match out {
            OpOutput::Mapping(groups) => {
                checks::check_mapping(&self.cfg, groups).map(|()| Verdict::Ok)
            }
            OpOutput::Exfil(report) => checks::check_exfiltration(
                &self.cfg,
                self.plan().protocol().slot_cycles,
                &op.payload,
                report,
            )
            .map(|()| Verdict::Ok),
            OpOutput::Delivery(report) if report.outcome.is_delivered() => {
                checks::check_delivery(&op.payload, &report.delivered).map(|()| Verdict::Ok)
            }
            OpOutput::Delivery(_) => Ok(Verdict::Failed),
        }
    }
}
