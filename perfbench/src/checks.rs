//! Output checks. Every check compares a result against a property or
//! an independent computation (the benchmark's own copy of the input,
//! the configuration's ground truth), never against saved output.
//! Each returns `Err(reason)` on the first violation.

use gnc_common::bits::BitVec;
use gnc_common::ids::{GpcId, TpcId};
use gnc_common::telemetry::Collector;
use gnc_common::GpuConfig;
use gnc_covert::channel::TransmissionReport;

/// Highest payload bit-error rate accepted from a 4-iteration multi-TPC
/// transmission. Fig 10b (`results/fig10.json`, `multi_tpc`) measured 0
/// errors in 3840 bits at 4 iterations; the rule-of-three 95 % upper
/// bound of that is 7.8e-4, rounded up to the 3-iteration point's 1.0e-3.
pub const EXFIL_MAX_ERROR_RATE: f64 = 1.0e-3;

/// Bits that differ between `a` and `b`, counted here rather than by the
/// library so the report's own `errors` field can be checked. A length
/// difference counts every missing position as an error.
pub fn hamming(a: &BitVec, b: &BitVec) -> usize {
    let common = a.len().min(b.len());
    let a = a.as_slice();
    let b = b.as_slice();
    let differing = (0..common).filter(|&i| a[i] != b[i]).count();
    differing + a.len().max(b.len()) - common
}

/// The recovered TPC groups must partition the enabled TPCs and each
/// group must equal the ground-truth TPC set of one GPC.
pub fn check_mapping(cfg: &GpuConfig, groups: &[Vec<TpcId>]) -> Result<(), String> {
    let n = cfg.num_tpcs();
    let mut seen = vec![false; n];
    for g in groups {
        for t in g {
            let i = t.index();
            if i >= n {
                return Err(format!("TPC{i} does not exist"));
            }
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("TPC{i} recovered in two groups"));
            }
        }
    }
    if let Some(i) = seen.iter().position(|s| !s) {
        return Err(format!("TPC{i} missing from the recovered groups"));
    }
    if groups.len() != cfg.num_gpcs {
        return Err(format!(
            "{} groups recovered for {} GPCs",
            groups.len(),
            cfg.num_gpcs
        ));
    }
    for g in 0..cfg.num_gpcs {
        let mut truth: Vec<usize> = cfg
            .tpcs_of_gpc(GpcId::new(g))
            .iter()
            .map(|t| t.index())
            .collect();
        truth.sort_unstable();
        let found = groups.iter().any(|grp| {
            let mut mine: Vec<usize> = grp.iter().map(|t| t.index()).collect();
            mine.sort_unstable();
            mine == truth
        });
        if !found {
            return Err(format!("no recovered group equals GPC{g} {truth:?}"));
        }
    }
    Ok(())
}

/// A multi-channel transmission of `payload` (the benchmark's own copy):
/// the recounted errors equal the report's, the error rate stays under
/// [`EXFIL_MAX_ERROR_RATE`], and the raw bandwidth lies in
/// `(0, channels × core_clock_hz / slot_cycles]` — a channel carries at
/// most one bit per slot.
pub fn check_exfiltration(
    cfg: &GpuConfig,
    slot_cycles: u32,
    payload: &BitVec,
    report: &TransmissionReport,
) -> Result<(), String> {
    if report.received.len() != payload.len() {
        return Err(format!(
            "received {} bits of {}",
            report.received.len(),
            payload.len()
        ));
    }
    let errors = hamming(&report.received, payload);
    if errors != report.errors {
        return Err(format!(
            "report claims {} bit errors, recount finds {errors}",
            report.errors
        ));
    }
    let rate = errors as f64 / payload.len().max(1) as f64;
    if rate > EXFIL_MAX_ERROR_RATE {
        return Err(format!(
            "error rate {rate} above the Fig 10b bound {EXFIL_MAX_ERROR_RATE}"
        ));
    }
    let ceiling =
        report.channels_used as f64 * cfg.core_clock_hz as f64 / f64::from(slot_cycles.max(1));
    if !(report.bandwidth_bps > 0.0 && report.bandwidth_bps <= ceiling) {
        return Err(format!(
            "bandwidth {} bps outside (0, {ceiling}] for {} channels",
            report.bandwidth_bps, report.channels_used
        ));
    }
    Ok(())
}

/// A delivered message must equal the benchmark's copy bit for bit.
pub fn check_delivery(sent: &BitVec, delivered: &BitVec) -> Result<(), String> {
    match hamming(sent, delivered) {
        0 => Ok(()),
        e => Err(format!(
            "delivered message differs from the sent one in {e} bits"
        )),
    }
}

/// At idle every injected packet has been delivered.
pub fn check_packet_conservation(collector: &Collector) -> Result<(), String> {
    let (inj, del) = (collector.packets_injected(), collector.packets_delivered());
    if inj == del {
        Ok(())
    } else {
        Err(format!(
            "{inj} packets injected but {del} delivered at idle"
        ))
    }
}

/// The collector's per-slice hits + misses equal the L2's own lookup
/// counts (`accesses[slice]`, summed over the same trials).
pub fn check_l2_accounting(collector: &Collector, accesses: &[u64]) -> Result<(), String> {
    for (slice, &acc) in accesses.iter().enumerate() {
        let (hits, misses) = collector.l2_hit_miss(slice);
        if hits + misses != acc {
            return Err(format!(
                "slice {slice}: collector saw {hits} hits + {misses} misses, L2 counted {acc} lookups"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnc_common::telemetry::Probe;
    use gnc_covert::channel::TransmissionOutcome;

    fn payload() -> BitVec {
        BitVec::from_bytes(b"covert channel benchmark payload")
    }

    fn flip(bits: &BitVec, at: usize) -> BitVec {
        BitVec::from_bits(bits.iter().enumerate().map(|(i, b)| b ^ (i == at)))
    }

    fn report(cfg: &GpuConfig, payload: &BitVec, slot_cycles: u32) -> TransmissionReport {
        let channels = 40;
        TransmissionReport {
            sent: payload.clone(),
            received: payload.clone(),
            errors: 0,
            error_rate: 0.0,
            elapsed_cycles: 1000,
            bandwidth_bps: 0.5 * channels as f64 * cfg.core_clock_hz as f64
                / f64::from(slot_cycles),
            payload_bandwidth_bps: 0.0,
            channels_used: channels,
            per_channel: Vec::new(),
            outcome: TransmissionOutcome::Clean,
        }
    }

    fn truth(cfg: &GpuConfig) -> Vec<Vec<TpcId>> {
        (0..cfg.num_gpcs)
            .map(|g| cfg.tpcs_of_gpc(GpcId::new(g)))
            .collect()
    }

    #[test]
    fn hamming_counts_flips_and_length_gaps() {
        let p = payload();
        assert_eq!(hamming(&p, &p), 0);
        assert_eq!(hamming(&p, &flip(&p, 3)), 1);
        let mut longer = p.clone();
        longer.push(true);
        assert_eq!(hamming(&p, &longer), 1);
    }

    #[test]
    fn ground_truth_mapping_passes_and_moved_tpc_is_rejected() {
        let cfg = GpuConfig::volta_v100();
        let mut groups = truth(&cfg);
        assert_eq!(check_mapping(&cfg, &groups), Ok(()));
        let moved = groups[0].pop().expect("GPC0 has TPCs");
        groups[1].push(moved);
        assert!(check_mapping(&cfg, &groups).is_err());
    }

    #[test]
    fn mapping_with_duplicate_or_missing_tpc_is_rejected() {
        let cfg = GpuConfig::volta_v100();
        let mut dup = truth(&cfg);
        let first = dup[0][0];
        dup[1].push(first);
        assert!(check_mapping(&cfg, &dup).is_err());
        let mut missing = truth(&cfg);
        missing[2].pop();
        assert!(check_mapping(&cfg, &missing).is_err());
    }

    #[test]
    fn exfiltration_rejects_flipped_bit_the_report_does_not_count() {
        let cfg = GpuConfig::volta_v100();
        let p = payload();
        let mut r = report(&cfg, &p, 1000);
        assert_eq!(check_exfiltration(&cfg, 1000, &p, &r), Ok(()));
        r.received = flip(&p, 17);
        assert!(check_exfiltration(&cfg, 1000, &p, &r).is_err());
    }

    #[test]
    fn exfiltration_rejects_bandwidth_above_slot_rate() {
        let cfg = GpuConfig::volta_v100();
        let p = payload();
        let mut r = report(&cfg, &p, 1000);
        r.bandwidth_bps = 40.0 * cfg.core_clock_hz as f64 / 1000.0 * 1.01;
        assert!(check_exfiltration(&cfg, 1000, &p, &r).is_err());
        r.bandwidth_bps = 0.0;
        assert!(check_exfiltration(&cfg, 1000, &p, &r).is_err());
    }

    #[test]
    fn exfiltration_rejects_error_rate_above_bound() {
        let cfg = GpuConfig::volta_v100();
        let p = BitVec::from_bits((0..8000).map(|i| i % 3 == 0));
        let mut r = report(&cfg, &p, 1000);
        let mut received = p.clone();
        for at in (0..8000).step_by(500) {
            received = flip(&received, at);
        }
        r.errors = hamming(&received, &p);
        r.received = received;
        assert!(check_exfiltration(&cfg, 1000, &p, &r).is_err());
    }

    #[test]
    fn delivery_rejects_one_flipped_bit() {
        let p = payload();
        assert_eq!(check_delivery(&p, &p), Ok(()));
        assert!(check_delivery(&p, &flip(&p, 0)).is_err());
    }

    #[test]
    fn conservation_rejects_undelivered_packet() {
        let mut c = Collector::new(4, 2);
        c.packet_injected(1, 0, 0);
        c.packet_delivered(5, 0);
        assert_eq!(check_packet_conservation(&c), Ok(()));
        c.packet_injected(6, 1, 1);
        assert!(check_packet_conservation(&c).is_err());
    }

    #[test]
    fn l2_accounting_rejects_count_mismatch() {
        let mut c = Collector::new(4, 2);
        c.l2_access(1, 0, true);
        c.l2_access(2, 0, false);
        c.l2_access(3, 1, true);
        assert_eq!(check_l2_accounting(&c, &[2, 1]), Ok(()));
        assert!(check_l2_accounting(&c, &[2, 2]).is_err());
    }
}
