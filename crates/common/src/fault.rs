//! Deterministic, seeded fault injection.
//!
//! The §5 noise study asks how the covert channel behaves when the GPU
//! is *not* a quiet laboratory: co-tenant kernels burst traffic through
//! the shared muxes, the measurement path drops or duplicates latency
//! samples, the per-SM clocks drift and glitch, and L2 slices are
//! hot-spotted by other workloads. A [`FaultPlan`] injects exactly those
//! disturbances — reproducibly.
//!
//! # Determinism
//!
//! Every fault decision is a *pure function* of `(seed, domain, site,
//! time-window)` through a SplitMix64 hash — no sequential RNG state.
//! Subsystems may therefore consult the plan in any order, any number of
//! times, and the injected fault pattern never changes for a given seed:
//! two simulations with the same configuration, payload, and seed produce
//! bit-identical reports.
//!
//! # Consumers
//!
//! The plan is shared (`Arc<FaultPlan>`) by four subsystems:
//!
//! * `gnc_noc::mux::ConcentratorMux` and `gnc_noc::eject::EjectionPort`
//!   — background-traffic bursts steal output flit slots at the NoC muxes
//!   and the per-SM ejection ports ([`FaultPlan::burst_flits`],
//!   [`FaultPlan::burst_steal`]).
//! * the simulator's measurement path — per-sample latency jitter,
//!   dropped samples, duplicated samples
//!   ([`FaultPlan::sample_jitter`], [`FaultPlan::drop_sample`],
//!   [`FaultPlan::dup_sample`]).
//! * `gnc_sim::clock::ClockDomain` — per-SM drift and transient glitch
//!   events ([`FaultPlan::clock_offset`]).
//! * `gnc_mem::l2::L2Slice` — hot-spot windows during which a slice's
//!   lookup stage stalls ([`FaultPlan::l2_stall`]).

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault-injection knobs. All rates are probabilities in `[0, 1]`;
/// all-zero means a plan that never fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the whole fault pattern.
    pub seed: u64,
    /// Probability that a given burst window at a given mux carries
    /// background traffic.
    pub noc_burst_rate: f64,
    /// Length of one burst window in cycles.
    pub noc_burst_cycles: u32,
    /// Output flit slots stolen per cycle while a burst is active.
    pub noc_burst_flits: u32,
    /// Maximum extra cycles added to a recorded latency sample.
    pub sample_jitter_cycles: u32,
    /// Probability a latency sample is lost before it is recorded.
    pub sample_drop_rate: f64,
    /// Probability a latency sample is recorded twice.
    pub sample_dup_rate: f64,
    /// Per-SM clock drift in parts per million (sign varies per SM).
    pub clock_drift_ppm: u32,
    /// Probability, per SM per 1024-cycle window, of a transient clock
    /// glitch.
    pub clock_glitch_rate: f64,
    /// Cycles the clock jumps forward while a glitch window is active.
    pub clock_glitch_cycles: u32,
    /// Probability that a given hot-spot window at a given L2 slice is
    /// hot.
    pub l2_hotspot_rate: f64,
    /// Length of one hot-spot window in cycles.
    pub l2_hotspot_cycles: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl FaultConfig {
    /// No faults at all (every probe returns "inactive").
    pub fn off() -> Self {
        Self {
            seed: 0,
            noc_burst_rate: 0.0,
            noc_burst_cycles: 64,
            noc_burst_flits: 1,
            sample_jitter_cycles: 0,
            sample_drop_rate: 0.0,
            sample_dup_rate: 0.0,
            clock_drift_ppm: 0,
            clock_glitch_rate: 0.0,
            clock_glitch_cycles: 0,
            l2_hotspot_rate: 0.0,
            l2_hotspot_cycles: 256,
        }
    }

    /// Light ambient noise: occasional bursts and a few lost samples.
    pub fn mild() -> Self {
        Self {
            noc_burst_rate: 0.05,
            noc_burst_cycles: 64,
            noc_burst_flits: 1,
            sample_jitter_cycles: 12,
            sample_drop_rate: 0.01,
            sample_dup_rate: 0.005,
            clock_drift_ppm: 20,
            clock_glitch_rate: 0.001,
            clock_glitch_cycles: 8,
            l2_hotspot_rate: 0.01,
            l2_hotspot_cycles: 128,
            ..Self::off()
        }
    }

    /// A busy co-tenant: the regime the hardened protocol is built for.
    pub fn moderate() -> Self {
        Self {
            noc_burst_rate: 0.10,
            noc_burst_cycles: 96,
            noc_burst_flits: 1,
            sample_jitter_cycles: 24,
            sample_drop_rate: 0.03,
            sample_dup_rate: 0.015,
            clock_drift_ppm: 60,
            clock_glitch_rate: 0.002,
            clock_glitch_cycles: 16,
            l2_hotspot_rate: 0.02,
            l2_hotspot_cycles: 128,
            ..Self::off()
        }
    }

    /// Heavy interference; the channel degrades but should survive with
    /// FEC and retransmission.
    pub fn severe() -> Self {
        Self {
            noc_burst_rate: 0.15,
            noc_burst_cycles: 128,
            noc_burst_flits: 1,
            sample_jitter_cycles: 40,
            sample_drop_rate: 0.05,
            sample_dup_rate: 0.025,
            clock_drift_ppm: 100,
            clock_glitch_rate: 0.004,
            clock_glitch_cycles: 24,
            l2_hotspot_rate: 0.03,
            l2_hotspot_cycles: 96,
            ..Self::off()
        }
    }

    /// An adversarial jammer saturating the shared muxes; transmissions
    /// are expected to fail.
    pub fn jammed() -> Self {
        Self {
            noc_burst_rate: 0.92,
            noc_burst_cycles: 256,
            noc_burst_flits: 8,
            sample_jitter_cycles: 256,
            sample_drop_rate: 0.30,
            sample_dup_rate: 0.10,
            clock_drift_ppm: 500,
            clock_glitch_rate: 0.03,
            clock_glitch_cycles: 96,
            l2_hotspot_rate: 0.25,
            l2_hotspot_cycles: 512,
            ..Self::off()
        }
    }

    /// The same configuration with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any fault class can ever fire.
    pub fn is_noop(&self) -> bool {
        self.noc_burst_rate <= 0.0
            && self.sample_jitter_cycles == 0
            && self.sample_drop_rate <= 0.0
            && self.sample_dup_rate <= 0.0
            && self.clock_drift_ppm == 0
            && self.clock_glitch_rate <= 0.0
            && self.l2_hotspot_rate <= 0.0
    }

    /// Parses a CLI fault spec.
    ///
    /// Grammar: a preset name (`off`, `mild`, `moderate`, `severe`,
    /// `jammed`), optionally suffixed with `@<seed>`, optionally followed
    /// by comma-separated `key=value` overrides using the field names of
    /// [`FaultConfig`] — e.g. `moderate@7,sample_drop_rate=0.1`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultSpec`] on unknown presets, unknown keys,
    /// or unparsable values.
    pub fn parse(spec: &str) -> Result<Self, SimError> {
        let bad = |reason: &str| SimError::FaultSpec {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        if spec.trim().is_empty() {
            return Err(bad("empty spec (use \"off\" for no faults)"));
        }
        let mut parts = spec.split(',');
        let head = parts.next().unwrap_or("").trim();
        let (preset, seed) = match head.split_once('@') {
            Some((p, s)) => {
                let seed: u64 = s
                    .trim()
                    .parse()
                    .map_err(|_| bad("seed after '@' must be an integer"))?;
                (p.trim(), Some(seed))
            }
            None => (head, None),
        };
        let mut cfg = match preset {
            "off" | "" => Self::off(),
            "mild" => Self::mild(),
            "moderate" => Self::moderate(),
            "severe" => Self::severe(),
            "jammed" => Self::jammed(),
            _ => return Err(bad("unknown preset (off|mild|moderate|severe|jammed)")),
        };
        if let Some(seed) = seed {
            cfg.seed = seed;
        }
        for kv in parts {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad("overrides must be key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let as_f64 = |v: &str| v.parse::<f64>().map_err(|_| bad("value must be a number"));
            let as_u32 = |v: &str| {
                v.parse::<u32>()
                    .map_err(|_| bad("value must be an integer"))
            };
            match key {
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| bad("seed must be an integer"))?;
                }
                "noc_burst_rate" => cfg.noc_burst_rate = as_f64(value)?,
                "noc_burst_cycles" => cfg.noc_burst_cycles = as_u32(value)?,
                "noc_burst_flits" => cfg.noc_burst_flits = as_u32(value)?,
                "sample_jitter_cycles" => cfg.sample_jitter_cycles = as_u32(value)?,
                "sample_drop_rate" => cfg.sample_drop_rate = as_f64(value)?,
                "sample_dup_rate" => cfg.sample_dup_rate = as_f64(value)?,
                "clock_drift_ppm" => cfg.clock_drift_ppm = as_u32(value)?,
                "clock_glitch_rate" => cfg.clock_glitch_rate = as_f64(value)?,
                "clock_glitch_cycles" => cfg.clock_glitch_cycles = as_u32(value)?,
                "l2_hotspot_rate" => cfg.l2_hotspot_rate = as_f64(value)?,
                "l2_hotspot_cycles" => cfg.l2_hotspot_cycles = as_u32(value)?,
                _ => return Err(bad("unknown override key")),
            }
        }
        for rate in [
            cfg.noc_burst_rate,
            cfg.sample_drop_rate,
            cfg.sample_dup_rate,
            cfg.clock_glitch_rate,
            cfg.l2_hotspot_rate,
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(bad("rates must lie in [0, 1]"));
            }
        }
        Ok(cfg)
    }
}

/// Harness-level chaos: fault injection aimed at the *trial supervisor*
/// rather than the simulated GPU.
///
/// Where [`FaultConfig`] perturbs the machine under test (so the covert
/// channel's robustness can be measured), `HarnessChaos` perturbs the
/// sweep harness itself — making whole trials panic or hang — so the
/// supervision layer (`gnc_common::supervise`) can be exercised
/// deterministically from a seed: panic isolation, watchdog timeouts,
/// and bounded retries all become reproducible CI scenarios
/// (`--chaos-trial-panic`, `--chaos-trial-stall`).
///
/// Decisions are pure functions of `(seed, trial index, attempt)` via
/// the same SplitMix64 draw the [`FaultPlan`] uses, so a chaos-panicked
/// trial that is retried re-rolls its fate deterministically — a sweep
/// with retries converges to the same results on every run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HarnessChaos {
    /// Seed of the chaos pattern.
    pub seed: u64,
    /// Probability that a given (trial, attempt) panics at trial start.
    pub trial_panic_rate: f64,
    /// Probability that a given (trial, attempt) stalls until the
    /// watchdog deadline (or cancellation) unwinds it.
    pub trial_stall_rate: f64,
}

impl HarnessChaos {
    /// Chaos that never fires.
    pub fn off() -> Self {
        Self {
            seed: 0,
            trial_panic_rate: 0.0,
            trial_stall_rate: 0.0,
        }
    }

    /// Whether either chaos class can ever fire.
    pub fn is_off(&self) -> bool {
        self.trial_panic_rate <= 0.0 && self.trial_stall_rate <= 0.0
    }

    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultSpec`] when a rate lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, rate) in [
            ("trial_panic_rate", self.trial_panic_rate),
            ("trial_stall_rate", self.trial_stall_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(SimError::FaultSpec {
                    spec: format!("{name}={rate}"),
                    reason: "chaos rates must lie in [0, 1]".to_string(),
                });
            }
        }
        Ok(())
    }

    fn draw(&self, domain: u64, index: u64, attempt: u32) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64(domain ^ splitmix64(index ^ u64::from(attempt))));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether attempt `attempt` of trial `index` should panic.
    pub fn panics(&self, index: u64, attempt: u32) -> bool {
        self.trial_panic_rate > 0.0
            && self.draw(domain::TRIAL_PANIC, index, attempt) < self.trial_panic_rate
    }

    /// Whether attempt `attempt` of trial `index` should stall until its
    /// watchdog fires.
    pub fn stalls(&self, index: u64, attempt: u32) -> bool {
        self.trial_stall_rate > 0.0
            && self.draw(domain::TRIAL_STALL, index, attempt) < self.trial_stall_rate
    }
}

impl Default for HarnessChaos {
    fn default() -> Self {
        Self::off()
    }
}

/// Hash-domain tags keeping the four fault classes statistically
/// independent of each other under one seed.
mod domain {
    pub const NOC: u64 = 0x6e6f_632d_6d75_7800; // "noc-mux"
    pub const DROP: u64 = 0x6d65_6173_2d64_7270; // "meas-drp"
    pub const DUP: u64 = 0x6d65_6173_2d64_7570; // "meas-dup"
    pub const JITTER: u64 = 0x6d65_6173_2d6a_6974; // "meas-jit"
    pub const DRIFT: u64 = 0x636c_6f63_6b2d_6466; // "clock-df"
    pub const GLITCH: u64 = 0x636c_6f63_6b2d_676c; // "clock-gl"
    pub const L2: u64 = 0x6c32_2d68_6f74_0000; // "l2-hot"
    pub const TRIAL_PANIC: u64 = 0x7472_6c2d_7061_6e69; // "trl-pani"
    pub const TRIAL_STALL: u64 = 0x7472_6c2d_7374_616c; // "trl-stal"
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How often each fault class actually fired (evidence for tests and
/// reports; never consulted by the decision functions themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Mux cycles that lost at least one flit slot to a burst.
    pub noc_burst_cycles: u64,
    /// Latency samples dropped before recording.
    pub samples_dropped: u64,
    /// Latency samples recorded twice.
    pub samples_duplicated: u64,
    /// Latency samples that received nonzero jitter.
    pub samples_jittered: u64,
    /// SM cycles in which warps issued on a clock read taken inside a
    /// glitch window ([`FaultPlan::note_clock_read`]).
    pub glitched_clock_reads: u64,
    /// L2 lookup cycles stalled by a hot-spot window.
    pub l2_stall_cycles: u64,
}

/// A seeded, order-independent fault oracle shared across the simulator.
///
/// Construct once per simulation via [`FaultPlan::new`] and hand clones
/// of the `Arc` to each subsystem. All probes are `&self` and lock-free;
/// the internal counters are only observability.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
    noc_burst_hits: AtomicU64,
    drops: AtomicU64,
    dups: AtomicU64,
    jitters: AtomicU64,
    glitch_reads: AtomicU64,
    l2_stalls: AtomicU64,
}

impl FaultPlan {
    /// Wraps `cfg` into a shareable plan.
    pub fn new(cfg: FaultConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            ..Self::default()
        })
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether this plan can ever fire.
    pub fn is_noop(&self) -> bool {
        self.cfg.is_noop()
    }

    #[inline]
    fn key(&self, domain: u64, site: u64, window: u64) -> u64 {
        splitmix64(self.cfg.seed ^ splitmix64(domain ^ splitmix64(site ^ window)))
    }

    #[inline]
    fn chance(&self, domain: u64, site: u64, window: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let u = (self.key(domain, site, window) >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Output flit slots a mux at `site` loses to background traffic at
    /// `now`. Consumed by `ConcentratorMux::tick`.
    pub fn burst_flits(&self, site: u64, now: u64) -> u32 {
        let steal = self.burst_steal(site, now);
        if steal > 0 {
            self.noc_burst_hits.fetch_add(1, Ordering::Relaxed);
        }
        steal
    }

    /// [`burst_flits`](Self::burst_flits) without the statistics side
    /// effect: the pure decision, for stages that account their burst
    /// cycles in bulk through [`note_burst_cycles`]
    /// (Self::note_burst_cycles).
    pub fn burst_steal(&self, site: u64, now: u64) -> u32 {
        if self.cfg.noc_burst_rate <= 0.0 || self.cfg.noc_burst_flits == 0 {
            return 0;
        }
        let window = now / u64::from(self.cfg.noc_burst_cycles.max(1));
        if self.chance(domain::NOC, site, window, self.cfg.noc_burst_rate) {
            self.cfg.noc_burst_flits
        } else {
            0
        }
    }

    /// First cycle strictly after `now` at which [`burst_flits`] for
    /// `site` *may* return a different value, or `None` when it is
    /// constant forever (bursts can never fire under this config).
    ///
    /// Within `[now, boundary)` the burst decision is a pure constant:
    /// it is keyed on `now / noc_burst_cycles`, so it can only change at
    /// the next window boundary. This is the bound that lets a mux
    /// grant whole cross-cycle runs without re-probing the plan every
    /// cycle — the same contract as [`clock_offset_stable_until`].
    ///
    /// [`burst_flits`]: Self::burst_flits
    /// [`clock_offset_stable_until`]: Self::clock_offset_stable_until
    pub fn burst_stable_until(&self, site: u64, now: u64) -> Option<u64> {
        let _ = site;
        if self.cfg.noc_burst_rate <= 0.0 || self.cfg.noc_burst_flits == 0 {
            return None;
        }
        let period = u64::from(self.cfg.noc_burst_cycles.max(1));
        Some((now / period + 1).saturating_mul(period))
    }

    /// Records `cycles` mux cycles that lost flit slots to already-
    /// decided burst windows. A mux that caches the [`burst_flits`]
    /// value across a window (see [`burst_stable_until`]) calls this for
    /// each subsequent busy cycle the cached steal applies to, and an
    /// ejection port that schedules a reply's whole service at once
    /// (via [`burst_steal`]) calls it once for all the busy cycles that
    /// service adds, keeping [`FaultStats::noc_burst_cycles`] identical
    /// to probing the plan every busy cycle.
    ///
    /// [`burst_flits`]: Self::burst_flits
    /// [`burst_steal`]: Self::burst_steal
    /// [`burst_stable_until`]: Self::burst_stable_until
    pub fn note_burst_cycles(&self, cycles: u64) {
        self.noc_burst_hits.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Whether the latency sample identified by `(site, sample)` is lost.
    pub fn drop_sample(&self, site: u64, sample: u64) -> bool {
        let hit = self.chance(domain::DROP, site, sample, self.cfg.sample_drop_rate);
        if hit {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Whether the latency sample identified by `(site, sample)` is
    /// recorded twice.
    pub fn dup_sample(&self, site: u64, sample: u64) -> bool {
        let hit = self.chance(domain::DUP, site, sample, self.cfg.sample_dup_rate);
        if hit {
            self.dups.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Extra cycles added to the latency sample `(site, sample)`,
    /// uniform in `[0, sample_jitter_cycles]`.
    pub fn sample_jitter(&self, site: u64, sample: u64) -> u64 {
        if self.cfg.sample_jitter_cycles == 0 {
            return 0;
        }
        let j =
            self.key(domain::JITTER, site, sample) % (u64::from(self.cfg.sample_jitter_cycles) + 1);
        if j > 0 {
            self.jitters.fetch_add(1, Ordering::Relaxed);
        }
        j
    }

    /// Signed offset of `sm`'s clock at `now`: slow accumulated drift
    /// plus a transient forward jump while a glitch window is active.
    ///
    /// The glitch is a *bounded, transient* offset (the clock repeats a
    /// few values when the window closes), so a warp spinning on the
    /// clock's masked low bits is delayed by at most one mask period —
    /// never wedged.
    pub fn clock_offset(&self, sm: u64, now: u64) -> i64 {
        let mut off: i64 = 0;
        if self.cfg.clock_drift_ppm > 0 {
            let drift = (now / 1_000_000 * u64::from(self.cfg.clock_drift_ppm))
                .wrapping_add(now % 1_000_000 * u64::from(self.cfg.clock_drift_ppm) / 1_000_000)
                as i64;
            // Direction is a fixed per-SM coin flip.
            if self.key(domain::DRIFT, sm, 0) & 1 == 0 {
                off += drift;
            } else {
                off -= drift;
            }
        }
        if self.clock_glitched(sm, now) {
            off += i64::from(self.cfg.clock_glitch_cycles);
        }
        off
    }

    /// Whether `sm`'s clock is inside a glitch window at `now`.
    fn clock_glitched(&self, sm: u64, now: u64) -> bool {
        self.cfg.clock_glitch_rate > 0.0
            && self.cfg.clock_glitch_cycles > 0
            && self.chance(domain::GLITCH, sm, now >> 10, self.cfg.clock_glitch_rate)
    }

    /// Counts one glitched clock read when `sm`'s clock is inside a
    /// glitch window at `now`. The simulator calls this once per SM
    /// cycle in which warps issue, not from [`clock_offset`], which
    /// also serves wake-up estimates and idle polls: how often those
    /// run depends on how the engine schedules time, so counting them
    /// would make the statistic differ between runs of identical
    /// simulated behaviour.
    ///
    /// [`clock_offset`]: Self::clock_offset
    pub fn note_clock_read(&self, sm: u64, now: u64) {
        if self.clock_glitched(sm, now) {
            self.glitch_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// First cycle strictly after `now` at which [`clock_offset`] for
    /// `sm` *may* return a different value, or `None` when the offset is
    /// constant forever (no clock faults configured).
    ///
    /// On `[now, boundary)` the offset is a pure constant: the drift
    /// term equals `floor(t * ppm / 1e6)` (the split evaluation in
    /// [`clock_offset`] is exact, not an approximation), so it next
    /// steps at `ceil((d + 1) * 1e6 / ppm)` where `d` is today's value;
    /// the glitch decision is keyed on `t >> 10`, so it can only change
    /// at the next 1024-cycle window boundary. This is what lets the
    /// event-driven scheduler fast-forward a clock-spinning warp under
    /// fault injection without replaying every cycle.
    ///
    /// [`clock_offset`]: Self::clock_offset
    pub fn clock_offset_stable_until(&self, sm: u64, now: u64) -> Option<u64> {
        let _ = sm;
        let mut boundary = u64::MAX;
        if self.cfg.clock_drift_ppm > 0 {
            let ppm = u128::from(self.cfg.clock_drift_ppm);
            let d = u128::from(now) * ppm / 1_000_000;
            let next = ((d + 1) * 1_000_000).div_ceil(ppm);
            boundary = boundary.min(u64::try_from(next).unwrap_or(u64::MAX));
        }
        if self.cfg.clock_glitch_rate > 0.0 && self.cfg.clock_glitch_cycles > 0 {
            let next_window = ((now >> 10) + 1) << 10;
            boundary = boundary.min(next_window);
        }
        (boundary != u64::MAX).then_some(boundary)
    }

    /// Whether the L2 slice at `site` must stall its lookup stage at
    /// `now` (hot-spot window).
    pub fn l2_stall(&self, site: u64, now: u64) -> bool {
        if self.cfg.l2_hotspot_rate <= 0.0 {
            return false;
        }
        let window = now / u64::from(self.cfg.l2_hotspot_cycles.max(1));
        let hit = self.chance(domain::L2, site, window, self.cfg.l2_hotspot_rate);
        if hit {
            self.l2_stalls.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Snapshot of how often each fault class fired so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            noc_burst_cycles: self.noc_burst_hits.load(Ordering::Relaxed),
            samples_dropped: self.drops.load(Ordering::Relaxed),
            samples_duplicated: self.dups.load(Ordering::Relaxed),
            samples_jittered: self.jitters.load(Ordering::Relaxed),
            glitched_clock_reads: self.glitch_reads.load(Ordering::Relaxed),
            l2_stall_cycles: self.l2_stalls.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_never_fires() {
        let plan = FaultPlan::new(FaultConfig::off());
        assert!(plan.is_noop());
        for t in 0..10_000 {
            assert_eq!(plan.burst_flits(1, t), 0);
            assert!(!plan.drop_sample(1, t));
            assert!(!plan.dup_sample(1, t));
            assert_eq!(plan.sample_jitter(1, t), 0);
            assert_eq!(plan.clock_offset(1, t), 0);
            assert!(!plan.l2_stall(1, t));
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_are_order_independent_and_seed_deterministic() {
        let a = FaultPlan::new(FaultConfig::severe().with_seed(9));
        let b = FaultPlan::new(FaultConfig::severe().with_seed(9));
        // Probe `a` forwards and `b` backwards: identical answers.
        let fwd: Vec<bool> = (0..4096).map(|t| a.drop_sample(3, t)).collect();
        let bwd: Vec<bool> = (0..4096).rev().map(|t| b.drop_sample(3, t)).collect();
        let bwd: Vec<bool> = bwd.into_iter().rev().collect();
        assert_eq!(fwd, bwd);
        // A different seed changes the pattern.
        let c = FaultPlan::new(FaultConfig::severe().with_seed(10));
        let other: Vec<bool> = (0..4096).map(|t| c.drop_sample(3, t)).collect();
        assert_ne!(fwd, other);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(FaultConfig {
            sample_drop_rate: 0.25,
            ..FaultConfig::off()
        });
        let n = 100_000;
        let hits = (0..n).filter(|&t| plan.drop_sample(0, t)).count();
        let frac = hits as f64 / n as f64;
        assert!((0.23..0.27).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn burst_windows_are_contiguous() {
        let cfg = FaultConfig {
            noc_burst_rate: 0.5,
            noc_burst_cycles: 64,
            noc_burst_flits: 2,
            ..FaultConfig::off()
        };
        let plan = FaultPlan::new(cfg);
        // Within one window the answer never changes.
        for w in 0..64u64 {
            let base = w * 64;
            let first = plan.burst_flits(7, base);
            for t in base..base + 64 {
                assert_eq!(plan.burst_flits(7, t), first);
            }
        }
    }

    #[test]
    fn burst_stable_until_bounds_the_window() {
        let cfg = FaultConfig {
            noc_burst_rate: 0.5,
            noc_burst_cycles: 64,
            noc_burst_flits: 2,
            ..FaultConfig::off()
        };
        let plan = FaultPlan::new(cfg);
        for now in [0u64, 1, 63, 64, 100, 12_345] {
            let until = plan
                .burst_stable_until(7, now)
                .expect("bursting plan has boundaries");
            assert!(until > now, "bound must be strictly after now");
            assert_eq!(until % 64, 0, "bound lies on a window boundary");
            assert_eq!(until, (now / 64 + 1) * 64);
            // The decision really is constant on [now, until).
            let first = plan.burst_flits(7, now);
            for t in now..until {
                assert_eq!(plan.burst_flits(7, t), first);
            }
        }
        // A plan that can never burst is constant forever.
        assert_eq!(
            FaultPlan::new(FaultConfig::off()).burst_stable_until(7, 0),
            None
        );
        let zero_flits = FaultConfig {
            noc_burst_rate: 0.9,
            noc_burst_flits: 0,
            ..FaultConfig::off()
        };
        assert_eq!(FaultPlan::new(zero_flits).burst_stable_until(7, 0), None);
    }

    #[test]
    fn note_burst_cycles_feeds_the_stats_counter() {
        let plan = FaultPlan::new(FaultConfig::off());
        assert_eq!(plan.stats().noc_burst_cycles, 0);
        plan.note_burst_cycles(1);
        plan.note_burst_cycles(2);
        assert_eq!(plan.stats().noc_burst_cycles, 3);
    }

    #[test]
    fn burst_steal_is_burst_flits_without_the_count() {
        let plan = FaultPlan::new(FaultConfig {
            noc_burst_rate: 0.5,
            noc_burst_cycles: 4,
            noc_burst_flits: 2,
            ..FaultConfig::off()
        });
        let mut fired = 0;
        for now in 0..400 {
            let steal = plan.burst_steal(9, now);
            assert_eq!(plan.stats().noc_burst_cycles, fired, "pure query counted");
            assert_eq!(plan.burst_flits(9, now), steal);
            fired += u64::from(steal > 0);
        }
        assert!(fired > 0 && fired < 400);
        assert_eq!(plan.stats().noc_burst_cycles, fired);
    }

    #[test]
    fn drift_accumulates_and_keeps_per_sm_sign() {
        let plan = FaultPlan::new(FaultConfig {
            clock_drift_ppm: 100,
            ..FaultConfig::off()
        });
        let sm = 4u64;
        let early = plan.clock_offset(sm, 1_000_000);
        let late = plan.clock_offset(sm, 10_000_000);
        assert_eq!(early.abs(), 100);
        assert_eq!(late.abs(), 1000);
        assert_eq!(early.signum(), late.signum());
    }

    #[test]
    fn parse_presets_and_overrides() {
        assert_eq!(FaultConfig::parse("off").unwrap(), FaultConfig::off());
        assert_eq!(FaultConfig::parse("mild").unwrap(), FaultConfig::mild());
        let seeded = FaultConfig::parse("severe@77").unwrap();
        assert_eq!(seeded, FaultConfig::severe().with_seed(77));
        let custom =
            FaultConfig::parse("moderate@3,sample_drop_rate=0.5,noc_burst_flits=4").unwrap();
        assert_eq!(custom.seed, 3);
        assert!((custom.sample_drop_rate - 0.5).abs() < 1e-12);
        assert_eq!(custom.noc_burst_flits, 4);
        assert!(FaultConfig::parse("bogus").is_err());
        assert!(FaultConfig::parse("mild,what=1").is_err());
        assert!(FaultConfig::parse("mild,sample_drop_rate=2.0").is_err());
        assert!(FaultConfig::parse("mild@x").is_err());
    }

    #[test]
    fn stats_count_fired_faults() {
        let plan = FaultPlan::new(FaultConfig::severe().with_seed(1));
        for t in 0..10_000u64 {
            let _ = plan.burst_flits(0, t);
            let _ = plan.drop_sample(0, t);
            let _ = plan.dup_sample(0, t);
            let _ = plan.sample_jitter(0, t);
            plan.note_clock_read(0, t);
            let _ = plan.l2_stall(0, t);
        }
        let stats = plan.stats();
        assert!(stats.noc_burst_cycles > 0);
        assert!(stats.samples_dropped > 0);
        assert!(stats.samples_duplicated > 0);
        assert!(stats.samples_jittered > 0);
        assert!(stats.l2_stall_cycles > 0);
    }

    #[test]
    fn harness_chaos_is_deterministic_and_seed_sensitive() {
        let chaos = HarnessChaos {
            seed: 7,
            trial_panic_rate: 0.5,
            trial_stall_rate: 0.5,
        };
        let a: Vec<bool> = (0..64).map(|i| chaos.panics(i, 0)).collect();
        let b: Vec<bool> = (0..64).map(|i| chaos.panics(i, 0)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&p| p) && a.iter().any(|&p| !p));
        let reseeded = HarnessChaos { seed: 8, ..chaos };
        let c: Vec<bool> = (0..64).map(|i| reseeded.panics(i, 0)).collect();
        assert_ne!(a, c);
        // Attempts re-roll independently: some first-attempt panics clear
        // on retry, which is what makes bounded retry converge.
        assert!((0..64).any(|i| chaos.panics(i, 0) && !chaos.panics(i, 1)));
        // Panic and stall draws are independent domains.
        let stalls: Vec<bool> = (0..64).map(|i| chaos.stalls(i, 0)).collect();
        assert_ne!(a, stalls);
    }

    #[test]
    fn harness_chaos_off_and_validation() {
        assert!(HarnessChaos::off().is_off());
        assert!(HarnessChaos::default().is_off());
        assert!(!HarnessChaos::off().panics(3, 0));
        assert!(!HarnessChaos::off().stalls(3, 0));
        assert!(HarnessChaos::off().validate().is_ok());
        let bad = HarnessChaos {
            seed: 0,
            trial_panic_rate: 1.5,
            trial_stall_rate: 0.0,
        };
        assert!(matches!(bad.validate(), Err(SimError::FaultSpec { .. })));
    }
}
