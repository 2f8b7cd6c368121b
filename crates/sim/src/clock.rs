//! The per-SM `clock()` register model (§4.1, Fig 6).
//!
//! NVIDIA GPUs expose a 32-bit cycle counter per SM. The paper's key
//! synchronization insight is its skew structure: SMs of the same TPC
//! read nearly identical values (average difference < 5 cycles), SMs of
//! the same GPC are close (< 15 cycles), while different GPCs started
//! counting at wildly different epochs (Fig 6 shows a ~4× spread on the
//! order of 10⁹). The receiver and sender can therefore synchronise on
//! the *lower bits* of their local clocks without any communication —
//! but only because they are co-located.

use gnc_common::fault::FaultPlan;
use gnc_common::ids::SmId;
use gnc_common::rng::{experiment_rng, symmetric_skew};
use gnc_common::{Cycle, GpuConfig};
use std::sync::Arc;

/// Per-SM clock offsets drawn once at GPU construction.
#[derive(Debug, Clone)]
pub struct ClockDomain {
    /// 64-bit offset of each SM's counter relative to simulation cycle 0.
    offsets: Vec<u64>,
    /// Optional fault injection: per-SM drift plus transient glitches
    /// perturb every read.
    fault: Option<Arc<FaultPlan>>,
}

impl ClockDomain {
    /// Draws the clock epoch structure for `cfg`, deterministically from
    /// `seed`.
    ///
    /// Offsets are composed per the measured hierarchy: a large random
    /// per-GPC epoch (spread over `cfg.clock.gpc_epoch_spread`), a small
    /// per-TPC jitter bounded so same-GPC SMs stay within
    /// `max_gpc_skew`, and a tiny per-SM jitter bounded so TPC siblings
    /// stay within `max_tpc_skew`.
    pub fn new(cfg: &GpuConfig, seed: u64) -> Self {
        let mut offsets = Vec::new();
        Self::draw_offsets(cfg, seed, &mut offsets);
        Self {
            offsets,
            fault: None,
        }
    }

    /// Redraws the epoch structure for a (possibly different) `seed` in
    /// place and detaches any fault plan — the counterpart of
    /// [`new`](Self::new) for a machine being reset between trials. The
    /// RNG draw order is shared with the constructor, so a reset domain
    /// is indistinguishable from a freshly built one.
    pub fn reset(&mut self, cfg: &GpuConfig, seed: u64) {
        Self::draw_offsets(cfg, seed, &mut self.offsets);
        self.fault = None;
    }

    fn draw_offsets(cfg: &GpuConfig, seed: u64, offsets: &mut Vec<u64>) {
        let mut rng = experiment_rng("clock-domain", seed);
        use rand::Rng;
        let gpc_epochs: Vec<u64> = (0..cfg.num_gpcs)
            .map(|_| rng.gen_range(0..cfg.clock.gpc_epoch_spread.max(1)))
            .collect();
        // Budget the skews: half the TPC-level budget is per-SM jitter.
        let sm_jitter_max = cfg.clock.max_tpc_skew / 2;
        let tpc_jitter_max = (cfg
            .clock
            .max_gpc_skew
            .saturating_sub(cfg.clock.max_tpc_skew))
            / 2;
        let tpc_jitters: Vec<i64> = (0..cfg.num_tpcs())
            .map(|_| symmetric_skew(&mut rng, tpc_jitter_max))
            .collect();
        offsets.clear();
        offsets.extend((0..cfg.num_sms()).map(|s| {
            let sm = SmId::new(s);
            let gpc = cfg.gpc_of_sm(sm);
            let tpc = cfg.tpc_of_sm(sm);
            let jitter = tpc_jitters[tpc.index()] + symmetric_skew(&mut rng, sm_jitter_max);
            gpc_epochs[gpc.index()].saturating_add_signed(jitter)
        }));
    }

    /// Attaches a fault plan: subsequent reads see per-SM drift (the
    /// oscillators of distinct SMs tick at slightly different rates)
    /// and transient glitch jumps, as decided by the plan.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    /// The raw 64-bit counter of `sm` at simulation cycle `now` (used for
    /// plotting Fig 6; real hardware exposes only the low 32 bits).
    #[inline]
    pub fn read64(&self, sm: SmId, now: Cycle) -> u64 {
        let base = self.offsets[sm.index()].wrapping_add(now);
        match &self.fault {
            Some(plan) => base.wrapping_add_signed(plan.clock_offset(sm.index() as u64, now)),
            None => base,
        }
    }

    /// The architectural 32-bit `clock()` value of `sm` at `now`
    /// (wraps around, like the hardware register).
    #[inline]
    pub fn read32(&self, sm: SmId, now: Cycle) -> u32 {
        self.read64(sm, now) as u32
    }

    /// Reports to the fault plan that `sm`'s warps issued on the clock
    /// value read at `now` (see [`FaultPlan::note_clock_read`]).
    #[inline]
    pub(crate) fn note_read(&self, sm: SmId, now: Cycle) {
        if let Some(plan) = &self.fault {
            plan.note_clock_read(sm.index() as u64, now);
        }
    }

    /// Number of SMs covered.
    pub fn num_sms(&self) -> usize {
        self.offsets.len()
    }

    /// First cycle strictly after `now` at which `sm`'s read can deviate
    /// from the affine extrapolation `read(now) + (t - now)`, or `None`
    /// when it never will. On `[now, boundary)` the fault offset is
    /// constant, so clock-alignment wake times computed from the current
    /// read are exact up to the boundary — the event-driven scheduler
    /// uses this to fast-forward clock-spinning warps under faults.
    pub fn stable_until(&self, sm: SmId, now: Cycle) -> Option<Cycle> {
        match &self.fault {
            Some(plan) => plan.clock_offset_stable_until(sm.index() as u64, now),
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnc_common::ids::TpcId;

    fn domain() -> (GpuConfig, ClockDomain) {
        let cfg = GpuConfig::volta_v100();
        let dom = ClockDomain::new(&cfg, 0);
        (cfg, dom)
    }

    #[test]
    fn tpc_siblings_are_within_the_tpc_skew_bound() {
        let (cfg, dom) = domain();
        for t in 0..cfg.num_tpcs() {
            let sms = cfg.sms_of_tpc(TpcId::new(t));
            let a = dom.read64(sms[0], 0);
            let b = dom.read64(sms[1], 0);
            assert!(
                a.abs_diff(b) <= u64::from(cfg.clock.max_tpc_skew),
                "TPC{t}: skew {} exceeds bound",
                a.abs_diff(b)
            );
        }
    }

    #[test]
    fn same_gpc_sms_are_within_the_gpc_skew_bound() {
        let (cfg, dom) = domain();
        for g in 0..cfg.num_gpcs {
            let sms: Vec<SmId> = (0..cfg.num_sms())
                .map(SmId::new)
                .filter(|&s| cfg.gpc_of_sm(s).index() == g)
                .collect();
            for &a in &sms {
                for &b in &sms {
                    let d = dom.read64(a, 0).abs_diff(dom.read64(b, 0));
                    assert!(
                        d <= u64::from(cfg.clock.max_gpc_skew),
                        "GPC{g}: {a}/{b} skew {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_gpcs_have_large_epoch_differences() {
        let (cfg, dom) = domain();
        // At least one pair of GPCs must differ by far more than the
        // intra-GPC skew (Fig 6's 4× spread).
        let epochs: Vec<u64> = (0..cfg.num_gpcs)
            .map(|g| {
                let sm = (0..cfg.num_sms())
                    .map(SmId::new)
                    .find(|&s| cfg.gpc_of_sm(s).index() == g)
                    .expect("every GPC has SMs");
                dom.read64(sm, 0)
            })
            .collect();
        let max = epochs.iter().max().unwrap();
        let min = epochs.iter().min().unwrap();
        assert!(
            max - min > 1_000_000,
            "GPC epochs too close: spread {}",
            max - min
        );
    }

    #[test]
    fn clocks_advance_with_simulation_time() {
        let (_, dom) = domain();
        let sm = SmId::new(0);
        assert_eq!(dom.read64(sm, 100) - dom.read64(sm, 0), 100);
    }

    #[test]
    fn read32_wraps() {
        let (_, dom) = domain();
        let sm = SmId::new(0);
        let base = dom.read64(sm, 0);
        let to_wrap = u64::from(u32::MAX) - (base & 0xFFFF_FFFF) + 1;
        let before = dom.read32(sm, to_wrap - 1);
        let after = dom.read32(sm, to_wrap);
        assert_eq!(before, u32::MAX);
        assert_eq!(after, 0);
    }

    #[test]
    fn drift_faults_skew_reads_deterministically() {
        use gnc_common::fault::{FaultConfig, FaultPlan};

        let cfg = GpuConfig::volta_v100();
        let clean = ClockDomain::new(&cfg, 3);
        let mut faulty = ClockDomain::new(&cfg, 3);
        faulty.set_fault_plan(FaultPlan::new(FaultConfig {
            clock_drift_ppm: 500,
            ..FaultConfig::off()
        }));
        let now = 10_000_000;
        let drifted = (0..cfg.num_sms())
            .filter(|&s| clean.read64(SmId::new(s), now) != faulty.read64(SmId::new(s), now))
            .count();
        assert_eq!(
            drifted,
            cfg.num_sms(),
            "500 ppm over 1e7 cycles shows on every SM"
        );
        // Identical plan, identical reads.
        let mut again = ClockDomain::new(&cfg, 3);
        again.set_fault_plan(FaultPlan::new(FaultConfig {
            clock_drift_ppm: 500,
            ..FaultConfig::off()
        }));
        for s in 0..cfg.num_sms() {
            assert_eq!(
                faulty.read64(SmId::new(s), now),
                again.read64(SmId::new(s), now)
            );
        }
    }

    #[test]
    fn stable_until_bounds_offset_changes() {
        use gnc_common::fault::{FaultConfig, FaultPlan};

        let cfg = GpuConfig::volta_v100();
        let clean = ClockDomain::new(&cfg, 11);
        assert_eq!(clean.stable_until(SmId::new(0), 123), None);

        let mut faulty = ClockDomain::new(&cfg, 11);
        faulty.set_fault_plan(FaultPlan::new(FaultConfig {
            clock_drift_ppm: 700,
            clock_glitch_rate: 0.3,
            clock_glitch_cycles: 9,
            ..FaultConfig::off().with_seed(2)
        }));
        let sm = SmId::new(5);
        let mut now: Cycle = 0;
        let mut checked = 0u64;
        while checked < 50_000 {
            let boundary = faulty
                .stable_until(sm, now)
                .expect("clock faults are configured");
            assert!(boundary > now, "boundary must move forward");
            let base = faulty.read64(sm, now);
            for t in now..boundary.min(now + 2_048) {
                assert_eq!(
                    faulty.read64(sm, t),
                    base + (t - now),
                    "read deviated inside the stable interval at t={t}"
                );
                checked += 1;
            }
            now = boundary;
        }
    }

    #[test]
    fn same_seed_reproduces_same_domain() {
        let cfg = GpuConfig::volta_v100();
        let a = ClockDomain::new(&cfg, 7);
        let b = ClockDomain::new(&cfg, 7);
        for s in 0..cfg.num_sms() {
            assert_eq!(a.read64(SmId::new(s), 0), b.read64(SmId::new(s), 0));
        }
        let c = ClockDomain::new(&cfg, 8);
        assert!((0..cfg.num_sms()).any(|s| a.read64(SmId::new(s), 0) != c.read64(SmId::new(s), 0)));
    }
}
