//! The host-speed reference. On a shared host the same simulation takes
//! seconds more or less from one minute to the next; a fixed CPU-only
//! computation timed next to each operation slows down with it. Time
//! metrics are scaled by the adjacent reference time and reported in
//! *nominal seconds*: seconds on a host where the reference takes
//! exactly [`NOMINAL_REF_MS`]. The reference touches no simulator code,
//! so no change to the simulator moves it.
//!
//! Its shape is the one that tracked the simulator's host time best in
//! trials on a 2-vCPU shared host: hash-map and ordered-map churn with
//! small allocations and data-dependent branches, then a sort — the
//! kind of work the engine's MSHR maps, queues and telemetry do.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Reference duration, in ms, of the nominal host time metrics are
/// scaled to (about its median on the 2-vCPU host the README's figures
/// come from, so nominal seconds read close to wall seconds there).
pub const NOMINAL_REF_MS: f64 = 40.0;

const STEPS: u64 = 150_000;

/// Runs the reference computation once and returns its checksum.
pub fn reference_work() -> u64 {
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 12_345;
    let mut acc: u64 = 0;
    for i in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (x >> 40) & 0xffff;
        *hashed.entry(k).or_default() += i;
        ordered.insert(k ^ 0x55, i);
        if let Some(v) = hashed.get(&(k ^ 1)) {
            acc = acc.wrapping_add(*v);
        }
        if i % 3 == 0 {
            ordered.remove(&(k ^ 0x54));
        }
    }
    let mut values: Vec<u64> = hashed.values().copied().collect();
    values.sort_unstable();
    acc ^ values[values.len() / 2] ^ ordered.len() as u64
}

/// Host milliseconds of one [`reference_work`] call.
pub fn time_reference_ms() -> f64 {
    let t = Instant::now();
    black_box(reference_work());
    t.elapsed().as_secs_f64() * 1e3
}

/// How much faster the simulator's host time grows than the reference's
/// when the host slows: regressing log(round time) on log(reference
/// time) over 23 runs of each gated workload on the 2-vCPU host gave
/// slopes of 1.17 and 1.22.
pub const HOST_SENSITIVITY: f64 = 1.2;

/// `secs` of host time measured while the reference took `ref_ms`,
/// expressed in nominal seconds.
pub fn nominal_secs(secs: f64, ref_ms: f64) -> f64 {
    secs * (NOMINAL_REF_MS / ref_ms).powf(HOST_SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn nominal_secs_scale_with_host_speed() {
        assert_eq!(nominal_secs(2.0, NOMINAL_REF_MS), 2.0);
        // On a host where the reference takes twice as long, the same
        // work takes 2^HOST_SENSITIVITY times as long.
        let slow = 2f64.powf(HOST_SENSITIVITY);
        assert!((nominal_secs(2.0 * slow, 2.0 * NOMINAL_REF_MS) - 2.0).abs() < 1e-12);
    }
}
