//! The traced run: replays each operation through the lower-level public
//! calls on a machine carrying a telemetry [`Collector`], records host
//! time spans around every call into a layer, checks the replay's
//! simulated results against the untraced operation's, and turns spans
//! and counters into the per-layer metrics.
//!
//! `recover_mapping` and `transmit_reliable` take their machines from a
//! thread-local pool a caller cannot probe, so for those two the replay
//! re-issues the same trials itself: `GpuPool::acquire`, then
//! `run_active_sms_on` (recovery) or `transmit_traced_on` (channels) on
//! the acquired machine with the collector attached.

use crate::checks;
use crate::workload::{Bench, Op, OpOutput, Workload, REVERSE_BATCHES, REVERSE_RUNS};
use gnc_common::bits::BitVec;
use gnc_common::fault::{FaultPlan, FaultStats};
use gnc_common::fec::{fec_decode_symbols, fec_encode, FecSymbol};
use gnc_common::ids::{SliceId, TpcId};
use gnc_common::rng::experiment_rng;
use gnc_common::telemetry::{Collector, ComponentKind, NullProbe};
use gnc_covert::channel::{decode_stream, ChannelTrace, TransmissionReport};
use gnc_covert::protocol::{RECEIVER_BASE, SENDER_BASE};
use gnc_covert::reverse::{run_active_sms_on, CoactivationMatrix};
use gnc_covert::robust::{adaptive_decode, blend_block_symbols, crc16, destripe_symbols, CRC_BITS};
use gnc_mem::l2::L2Stats;
use gnc_sim::gpu::Gpu;
use gnc_sim::kernel::AccessKind;
use gnc_sim::pool::GpuPool;
use gnc_sim::workloads::{StreamConfig, StreamKernel};
use rand::seq::SliceRandom;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A metric's name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

/// Host time spent in one call into a layer. Every span of one traced
/// operation carries its index in `op`; the `bench`/`operation` span
/// covers the whole replay and is the parent of the others.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    /// Index of the traced operation the span belongs to.
    pub op: usize,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    pub dur_s: f64,
}

/// What a replayed operation produced, in the shape the untraced one is
/// compared against.
struct Replayed {
    groups: Vec<Vec<TpcId>>,
    report: Option<TransmissionReport>,
    delivered: Option<BitVec>,
    attempts: u32,
    elapsed_cycles: u64,
    fault_stats: Option<FaultStats>,
}

/// Span recorder, collector owner and counter accumulator of one run.
pub struct Tracer {
    epoch: Instant,
    pool: GpuPool,
    collector: Option<Collector>,
    spans: Vec<Span>,
    ops: usize,
    op_secs: Vec<f64>,
    overhead_ratios: Vec<f64>,
    slice_accesses: Vec<u64>,
    l2: L2Stats,
    cycles: u64,
    faults: FaultStats,
    attempts: u64,
    delivered: u64,
    bit_errors: u64,
    channel_mbps: Vec<f64>,
    error: Option<String>,
}

impl Tracer {
    /// A tracer whose pool already holds one built machine, so every
    /// traced trial resets instead of building.
    pub fn new(bench: &Bench) -> Self {
        let cfg = &bench.cfg;
        let mut pool = GpuPool::new();
        let warm = pool.acquire(cfg, 0, None).expect("valid config");
        pool.release(warm);
        Self {
            epoch: Instant::now(),
            pool,
            collector: Some(
                Collector::for_config(cfg)
                    .with_trace_capacity(0)
                    .with_window(1 << 20),
            ),
            spans: Vec::with_capacity(1 << 16),
            ops: 0,
            op_secs: Vec::new(),
            overhead_ratios: Vec::new(),
            slice_accesses: vec![0; cfg.mem.num_l2_slices],
            l2: L2Stats::default(),
            cycles: 0,
            faults: FaultStats::default(),
            attempts: 0,
            delivered: 0,
            bit_errors: 0,
            channel_mbps: Vec::new(),
            error: None,
        }
    }

    /// The first check that failed during the traced run, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    fn record(&mut self, layer: &'static str, call: &'static str, started: Instant) {
        let dur_s = started.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            call,
            op: self.ops,
            start_s: started.duration_since(self.epoch).as_secs_f64(),
            dur_s,
        });
    }

    /// One machine trial: acquire (reset) from the tracer's pool, attach
    /// the collector, run `f`, account its counters, detach, release.
    fn trial<T>(
        &mut self,
        bench: &Bench,
        clock_seed: u64,
        fault: Option<&Arc<FaultPlan>>,
        f: impl FnOnce(&mut Gpu<Collector>) -> T,
    ) -> T {
        let t = Instant::now();
        let gpu = self
            .pool
            .acquire(&bench.cfg, clock_seed, fault)
            .expect("valid config");
        self.record("sim", "GpuPool::acquire", t);
        let mut gpu = gpu.with_probe(self.collector.take().expect("collector attached once"));
        let t = Instant::now();
        let out = f(&mut gpu);
        self.record("sim", "run", t);
        if !gpu.is_idle() {
            self.fail(format!(
                "traced trial (clock seed {clock_seed}) ended before idle"
            ));
        }
        self.cycles += gpu.now();
        for (s, acc) in self.slice_accesses.iter_mut().enumerate() {
            let st = gpu.memory().slice_stats(SliceId::new(s));
            *acc += st.accesses;
            self.l2.hits += st.hits;
            self.l2.misses += st.misses;
            self.l2.mshr_merges += st.mshr_merges;
        }
        let collector = std::mem::replace(gpu.probe_mut(), Collector::new(0, 0));
        if let Err(e) = checks::check_packet_conservation(&collector) {
            self.fail(e);
        }
        self.collector = Some(collector);
        self.pool.release(gpu.with_probe(NullProbe));
        out
    }

    /// Replays `op` traced and compares it with the untraced `out`, which
    /// took `untraced_s` host seconds.
    pub fn replay(&mut self, bench: &Bench, op: &Op, out: &OpOutput, untraced_s: f64) {
        let t = Instant::now();
        let replayed = match bench.workload {
            Workload::ReverseMap => self.replay_recovery(bench, op.seed),
            Workload::Exfiltrate => self.replay_exfiltration(bench, op),
            Workload::HardenedSend => self.replay_delivery(bench, op),
        };
        self.record("bench", "operation", t);
        let op_s = t.elapsed().as_secs_f64();
        self.op_secs.push(op_s);
        self.overhead_ratios.push(op_s / untraced_s);
        if let Err(e) = compare(out, &replayed) {
            self.fail(format!("traced replay of seed {} differs: {e}", op.seed));
        }
        self.ops += 1;
    }

    /// `recover_mapping`'s phases 1 and 2, trial for trial. Its phase-3
    /// repair only runs when phase 2 splinters a group; the replay does
    /// not re-issue it, so a recovery that needed it shows up as a
    /// mismatch instead of a silently different trial mix.
    fn replay_recovery(&mut self, bench: &Bench, seed: u64) -> Replayed {
        let n = bench.cfg.num_tpcs();
        let read_trial = |tr: &mut Self, sms: &[usize], clock_seed: u64| {
            tr.trial(bench, clock_seed, None, |gpu| {
                run_active_sms_on(gpu, sms, AccessKind::Read, 4, REVERSE_BATCHES)
            })
        };
        let mut sum = vec![vec![0.0f64; n]; n];
        let mut cnt = vec![vec![0u32; n]; n];
        for r in 0..REVERSE_RUNS as u64 {
            let mut rng = experiment_rng("coactivation", seed ^ r);
            let mut tpcs: Vec<usize> = (0..n).collect();
            tpcs.shuffle(&mut rng);
            let active: Vec<usize> = tpcs.into_iter().take(9).collect();
            let sms: Vec<usize> = active.iter().map(|&t| 2 * t).collect();
            let times = read_trial(self, &sms, seed ^ r);
            let t = Instant::now();
            for &(sm, time) in &times {
                for &j in &active {
                    if j != sm / 2 {
                        sum[sm / 2][j] += time as f64;
                        cnt[sm / 2][j] += 1;
                    }
                }
            }
            self.record("covert", "analyse", t);
        }
        let t = Instant::now();
        let mean: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| match cnt[i][j] {
                        0 => f64::NAN,
                        c => sum[i][j] / f64::from(c),
                    })
                    .collect()
            })
            .collect();
        let matrix = CoactivationMatrix { mean };
        self.record("covert", "analyse", t);
        let mut assigned = vec![false; n];
        let mut groups: Vec<Vec<TpcId>> = Vec::new();
        while let Some(probe) = (0..n).find(|&t| !assigned[t]) {
            let t = Instant::now();
            let ranked = matrix.top_partners(probe, 4);
            self.record("covert", "analyse", t);
            let mut members = Vec::new();
            for cand in (0..n).filter(|&c| c != probe) {
                let mut active = vec![2 * probe];
                active.extend(
                    ranked
                        .iter()
                        .filter(|&&h| h != cand)
                        .take(3)
                        .map(|&h| 2 * h),
                );
                let probe_time = |times: Vec<(usize, u64)>| {
                    times
                        .iter()
                        .find(|(sm, _)| *sm == 2 * probe)
                        .expect("probe measured")
                        .1 as f64
                };
                let baseline = probe_time(read_trial(self, &active, seed));
                active.push(2 * cand);
                let with_cand = probe_time(read_trial(self, &active, seed));
                if with_cand > baseline * 1.08 && !assigned[cand] {
                    members.push(cand);
                }
            }
            members.push(probe);
            members.sort_unstable();
            for &m in &members {
                assigned[m] = true;
            }
            groups.push(members.into_iter().map(TpcId::new).collect());
        }
        groups.sort_by_key(|g| g.first().map(|t| t.index()));
        Replayed {
            groups,
            report: None,
            delivered: None,
            attempts: 0,
            elapsed_cycles: 0,
            fault_stats: None,
        }
    }

    fn replay_exfiltration(&mut self, bench: &Bench, op: &Op) -> Replayed {
        let plan = bench.plan();
        let (report, traces) = self.trial(bench, op.seed, None, |gpu| {
            plan.transmit_traced_on(gpu, &op.payload, op.seed)
        });
        // Re-time the receiver's decoding on the returned traces and
        // check it reproduces what the transmission decoded.
        let t = Instant::now();
        let decoded: Vec<Vec<bool>> = traces
            .iter()
            .map(|tr| naive_decode(tr, plan.protocol().preamble_bits))
            .collect();
        self.record("covert", "decode_stream", t);
        for (ch, bits) in report.per_channel.iter().zip(&decoded) {
            if ch.decoded.as_slice() != bits.as_slice() {
                self.fail(format!(
                    "re-decoding {} disagrees with the transmission",
                    ch.label
                ));
            }
        }
        self.attempts += 1;
        self.delivered += 1;
        self.bit_errors += report.errors as u64;
        self.channel_mbps.push(report.bandwidth_bps / 1e6);
        Replayed {
            groups: Vec::new(),
            elapsed_cycles: report.elapsed_cycles,
            report: Some(report),
            delivered: None,
            attempts: 1,
            fault_stats: None,
        }
    }

    /// `transmit_reliable`'s ACK/NACK loop, attempt for attempt: CRC
    /// framing, Hamming(7,4), adaptive decoding with erasures, backoff.
    fn replay_delivery(&mut self, bench: &Bench, op: &Op) -> Replayed {
        let plan = bench.plan();
        let proto = plan.protocol();
        let slot_cycles = u64::from(proto.slot_cycles);
        let base_faults = bench.faults_of(op);
        let mut frame = op.payload.clone();
        let crc = crc16(&op.payload);
        for i in (0..CRC_BITS).rev() {
            frame.push(crc & (1 << i) != 0);
        }
        let coded = fec_encode(&frame);
        let mut elapsed = 0u64;
        let mut stats: Option<FaultStats> = None;
        let mut delivered = None;
        let mut attempts = 0;
        for attempt in 0..=bench.opts.max_retries {
            attempts = attempt + 1;
            if attempt > 0 {
                elapsed += (bench.opts.backoff_slots * slot_cycles) << (attempt - 1);
            }
            let attempt_seed = op.seed.wrapping_add(u64::from(attempt));
            let fault_plan = FaultPlan::new(
                base_faults
                    .clone()
                    .with_seed(base_faults.seed.wrapping_add(u64::from(attempt))),
            );
            let (report, traces) = self.trial(bench, attempt_seed, Some(&fault_plan), |gpu| {
                plan.transmit_traced_on(gpu, &coded, attempt_seed)
            });
            stats = Some(add_stats(stats, fault_plan.stats()));
            elapsed += report.elapsed_cycles;
            let t = Instant::now();
            let decodes: Vec<_> = traces
                .iter()
                .map(|tr| adaptive_decode(tr, proto.preamble_bits, &bench.opts))
                .collect();
            let soft: Vec<Vec<FecSymbol>> = decodes.iter().map(|d| d.symbols.clone()).collect();
            let hard: Vec<Vec<FecSymbol>> =
                decodes.iter().map(|d| d.hard_symbols.clone()).collect();
            let symbols = blend_block_symbols(
                &destripe_symbols(&soft, coded.len()),
                &destripe_symbols(&hard, coded.len()),
            );
            let fec = fec_decode_symbols(&symbols, frame.len());
            let message = BitVec::from_bits(fec.payload.iter().take(op.payload.len()));
            let crc_rx = fec
                .payload
                .iter()
                .skip(op.payload.len())
                .take(CRC_BITS)
                .fold(0u16, |acc, b| acc << 1 | u16::from(b));
            let crc_ok = crc16(&message) == crc_rx;
            self.record("covert", "adaptive_decode+fec", t);
            if crc_ok {
                delivered = Some(message);
                break;
            }
        }
        let s = stats.unwrap_or_default();
        self.faults = add_stats(Some(self.faults), s);
        self.attempts += u64::from(attempts);
        if let Some(msg) = &delivered {
            self.delivered += 1;
            self.bit_errors += checks::hamming(msg, &op.payload) as u64;
            let secs = bench.cfg.cycles_to_seconds(elapsed.max(1));
            self.channel_mbps.push(op.payload.len() as f64 / secs / 1e6);
        }
        Replayed {
            groups: Vec::new(),
            report: None,
            delivered,
            attempts,
            elapsed_cycles: elapsed,
            fault_stats: Some(s),
        }
    }

    /// Per-layer metrics of the run, per traced operation. `host_ref_ms`
    /// are the reference timings taken between rounds.
    pub fn metrics(&mut self, bench: &Bench, host_ref_ms: &[f64]) -> Vec<Metric> {
        if let Some(c) = &self.collector {
            if let Err(e) = checks::check_l2_accounting(c, &self.slice_accesses) {
                self.fail(e);
            }
        }
        let preload_ms = self.preload_ms(bench);
        let ops = self.ops.max(1) as f64;
        let span_sum = |layer: &str, call: Option<&str>| -> f64 {
            self.spans
                .iter()
                .filter(|s| s.layer == layer && call.is_none_or(|c| s.call == c))
                .map(|s| s.dur_s)
                .sum()
        };
        let resets: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.call == "GpuPool::acquire")
            .map(|s| s.dur_s)
            .collect();
        let run_s = span_sum("sim", Some("run"));
        let child_spans: f64 = self
            .spans
            .iter()
            .filter(|s| s.layer != "bench")
            .map(|s| s.dur_s)
            .sum();
        let report = self.collector.as_ref().map(Collector::report);
        let report = report.as_ref();
        let stall = |f: fn(&gnc_common::telemetry::SmStallReport) -> u64| -> f64 {
            report.map_or(0, |r| r.sm_stalls.iter().map(f).sum::<u64>()) as f64 / ops
        };
        let flits = |kind: ComponentKind| -> f64 {
            report.map_or(0, |r| {
                r.components
                    .iter()
                    .filter(|c| c.kind == kind)
                    .map(|c| c.forwarded_flits)
                    .sum::<u64>()
            }) as f64
                / ops
        };
        let (grants, denials) = report.map_or((0, 0), |r| {
            r.components.iter().fold((0u64, 0u64), |(g, d), c| {
                (
                    g + c.grants.iter().sum::<u64>(),
                    d + c.denials.iter().sum::<u64>(),
                )
            })
        });
        let dram = |f: fn(&gnc_common::telemetry::DramBankReport) -> u64| -> f64 {
            report.map_or(0, |r| r.dram.iter().map(f).sum::<u64>()) as f64 / ops
        };
        let micro = |f: fn(u64) -> u64| median_ns_per_cycle(7, 200_000, f);
        vec![
            ("sim.reset_us", "us", median(&resets) * 1e6),
            ("sim.run_s", "s", run_s / ops),
            ("sim.cycles", "cycles", self.cycles as f64 / ops),
            (
                "sim.ns_per_cycle",
                "ns/cycle",
                run_s * 1e9 / self.cycles.max(1) as f64,
            ),
            ("sim.stall_wait_mem", "cycles", stall(|s| s.wait_mem)),
            ("sim.stall_throttled", "cycles", stall(|s| s.throttled)),
            ("sim.stall_sleep", "cycles", stall(|s| s.sleep)),
            ("sim.stall_wait_clock", "cycles", stall(|s| s.wait_clock)),
            ("sim.coalesce_ns", "ns", coalesce_ns(&bench.cfg)),
            ("noc.tpc_mux_flits", "count", flits(ComponentKind::TpcMux)),
            (
                "noc.gpc_req_mux_flits",
                "count",
                flits(ComponentKind::GpcReqMux),
            ),
            ("noc.xbar_flits", "count", flits(ComponentKind::XbarOut)),
            (
                "noc.gpc_reply_mux_flits",
                "count",
                flits(ComponentKind::GpcReplyMux),
            ),
            (
                "noc.grant_ratio",
                "ratio",
                grants as f64 / (grants + denials).max(1) as f64,
            ),
            (
                "noc.mux_saturated_ns_per_cycle",
                "ns/cycle",
                micro(gnc_bench::micro::mux_saturated),
            ),
            (
                "noc.mux_lone_sender_ns_per_cycle",
                "ns/cycle",
                micro(gnc_bench::micro::mux_lone_sender),
            ),
            (
                "noc.crossbar_spread_ns_per_cycle",
                "ns/cycle",
                micro(gnc_bench::micro::crossbar_spread),
            ),
            ("mem.l2_hits", "count", self.l2.hits as f64 / ops),
            ("mem.l2_misses", "count", self.l2.misses as f64 / ops),
            (
                "mem.l2_mshr_merges",
                "count",
                self.l2.mshr_merges as f64 / ops,
            ),
            ("mem.dram_accesses", "count", dram(|b| b.accesses)),
            ("mem.dram_row_hits", "count", dram(|b| b.row_hits)),
            ("mem.dram_busy_cycles", "cycles", dram(|b| b.busy_cycles)),
            ("mem.preload_ms", "ms", preload_ms),
            (
                "mem.l2_miss_stream_ns_per_cycle",
                "ns/cycle",
                micro(gnc_bench::micro::l2_miss_stream),
            ),
            (
                "covert.decode_us",
                "us",
                span_sum("covert", None) * 1e6 / ops,
            ),
            (
                "covert.attempts_per_delivery",
                "count",
                self.attempts as f64 / self.delivered.max(1) as f64,
            ),
            ("covert.bit_errors", "count", self.bit_errors as f64 / ops),
            ("covert.channel_mbps", "Mbps", mean(&self.channel_mbps)),
            (
                "common.fault_burst_cycles",
                "cycles",
                self.faults.noc_burst_cycles as f64 / ops,
            ),
            (
                "common.samples_dropped",
                "count",
                self.faults.samples_dropped as f64 / ops,
            ),
            (
                "common.samples_jittered",
                "count",
                self.faults.samples_jittered as f64 / ops,
            ),
            (
                "common.l2_stall_cycles",
                "cycles",
                self.faults.l2_stall_cycles as f64 / ops,
            ),
            ("bench.host_ref_ms", "ms", median(host_ref_ms)),
            (
                "bench.unattributed_s",
                "s",
                (self.op_secs.iter().sum::<f64>() - child_spans) / ops,
            ),
            (
                "bench.trace_overhead_pct",
                "%",
                (median(&self.overhead_ratios) - 1.0) * 100.0,
            ),
        ]
    }

    /// Median host time of preloading one operation's working set into a
    /// freshly reset machine, timed apart from the operations (inside a
    /// trial the preload is part of the library call).
    fn preload_ms(&mut self, bench: &Bench) -> f64 {
        let cfg = &bench.cfg;
        let ranges: Vec<(u64, u64)> = match bench.workload {
            Workload::ReverseMap => {
                let mut sc = StreamConfig::writer(cfg.num_sms(), 4, REVERSE_BATCHES);
                sc.kind = AccessKind::Read;
                sc.target_sms = Some((0..9).map(|t| 2 * t).collect());
                vec![StreamKernel::new(sc, cfg).working_set()]
            }
            Workload::Exfiltrate | Workload::HardenedSend => {
                let lines = cfg.num_sms() as u64 * bench.plan().protocol().region_lines();
                vec![(SENDER_BASE, lines), (RECEIVER_BASE, lines)]
            }
        };
        let times: Vec<f64> = (0..7)
            .map(|_| {
                let mut gpu = self.pool.acquire(cfg, 0, None).expect("valid config");
                let t = Instant::now();
                for &(base, lines) in &ranges {
                    gpu.preload_range(base, lines);
                }
                let ms = t.elapsed().as_secs_f64() * 1e3;
                self.pool.release(gpu);
                ms
            })
            .collect();
        median(&times)
    }

    /// Writes every span and the collector's summary as JSON Lines.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"layer\":\"{}\",\"call\":\"{}\",\"op\":{},\"start_s\":{},\"dur_s\":{}}}",
                s.layer, s.call, s.op, s.start_s, s.dur_s
            )?;
        }
        if let Some(c) = &self.collector {
            let r = c.report();
            writeln!(
                w,
                "{{\"counters\":{{\"packets_injected\":{},\"packets_delivered\":{},\"components\":{},\"l2_slices\":{},\"dram_banks\":{},\"sms_stalled\":{}}}}}",
                r.packets_injected,
                r.packets_delivered,
                r.components.len(),
                r.l2.len(),
                r.dram.len(),
                r.sm_stalls.len()
            )?;
        }
        w.flush()
    }
}

/// Slot-ordered static-threshold decoding, as the transmission does it.
fn naive_decode(trace: &ChannelTrace, preamble_bits: usize) -> Vec<bool> {
    let mut samples = trace.samples.clone();
    samples.sort_by_key(|&(tag, _)| tag);
    let latencies: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
    decode_stream(&latencies, preamble_bits, trace.chunk.len()).1
}

fn add_stats(acc: Option<FaultStats>, s: FaultStats) -> FaultStats {
    match acc {
        None => s,
        Some(a) => FaultStats {
            noc_burst_cycles: a.noc_burst_cycles + s.noc_burst_cycles,
            samples_dropped: a.samples_dropped + s.samples_dropped,
            samples_duplicated: a.samples_duplicated + s.samples_duplicated,
            samples_jittered: a.samples_jittered + s.samples_jittered,
            glitched_clock_reads: a.glitched_clock_reads + s.glitched_clock_reads,
            l2_stall_cycles: a.l2_stall_cycles + s.l2_stall_cycles,
        },
    }
}

/// The untraced operation's simulated results against the replay's.
fn compare(out: &OpOutput, rep: &Replayed) -> Result<(), String> {
    match out {
        OpOutput::Mapping(groups) if *groups != rep.groups => {
            Err(format!("groups {groups:?} vs replayed {:?}", rep.groups))
        }
        OpOutput::Exfil(r) => {
            let t = rep.report.as_ref().ok_or("no replayed report")?;
            if r.received != t.received || r.elapsed_cycles != t.elapsed_cycles {
                Err(format!(
                    "{} cycles / {} errors vs replayed {} cycles / {} errors",
                    r.elapsed_cycles, r.errors, t.elapsed_cycles, t.errors
                ))
            } else {
                Ok(())
            }
        }
        OpOutput::Delivery(r) => {
            let delivered = r.outcome.is_delivered().then(|| r.delivered.clone());
            if delivered != rep.delivered
                || r.attempts != rep.attempts
                || r.elapsed_cycles != rep.elapsed_cycles
                || r.fault_stats != rep.fault_stats
            {
                Err(format!(
                    "{} attempts / {} cycles vs replayed {} attempts / {} cycles",
                    r.attempts, r.elapsed_cycles, rep.attempts, rep.elapsed_cycles
                ))
            } else {
                Ok(())
            }
        }
        OpOutput::Mapping(_) => Ok(()),
    }
}

/// Host nanoseconds of one 32-lane fully uncoalesced `coalesce` call.
fn coalesce_ns(cfg: &gnc_common::GpuConfig) -> f64 {
    let line = u64::from(cfg.mem.line_bytes);
    let addrs: Vec<u64> = (0..32).map(|lane| 0x40_0000 + lane * line).collect();
    const CALLS: u32 = 20_000;
    let per_call: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                let txns = gnc_sim::coalesce::coalesce(std::hint::black_box(&addrs), line);
                assert_eq!(
                    txns.len(),
                    32,
                    "uncoalesced lanes give one transaction each"
                );
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
        })
        .collect();
    median(&per_call)
}

/// Median ns per simulated cycle of a `gnc_bench::micro` loop.
fn median_ns_per_cycle(reps: usize, cycles: u64, f: fn(u64) -> u64) -> f64 {
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let delivered = f(cycles);
            assert!(delivered > 0, "micro loop delivered nothing");
            t.elapsed().as_secs_f64() * 1e9 / cycles as f64
        })
        .collect();
    median(&ns)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
