//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload for `--seconds` of whole rounds on one worker and
//! prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

use gnc_perfbench::hostref::{nominal_secs, time_reference_ms};
use gnc_perfbench::trace::{median, Metric, Tracer};
use gnc_perfbench::workload::{Bench, Verdict, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn trials() -> u64 {
    gnc_sim::gpus_built() + gnc_sim::gpus_reset()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    gnc_common::par::set_jobs(1);

    // Set-up: inputs and one untimed warm-up round, whose first operation
    // builds the machine every later operation resets.
    let bench = Bench::new(args.workload, args.seed);
    let order = bench.order(args.seed);
    let mut errors: Vec<String> = Vec::new();
    for &i in &order {
        let op = &bench.ops[i];
        if let Err(e) = bench.check(op, &bench.run(op)) {
            errors.push(format!("warm-up seed {}: {e}", op.seed));
        }
    }
    let mut tracer = args.trace.then(|| Tracer::new(&bench));
    let setup_raw = started.elapsed().as_secs_f64();

    // Timed rounds: every round runs every operation once, and per-round
    // figures are medians over rounds (hardened_send's operations take 1
    // to 4 attempts, so a median over single operations would sit on the
    // edge between attempt counts). The host reference is timed before
    // the first operation and after each one; an operation's time is
    // scaled by the mean of its two neighbours, the set-up by the median
    // of all of them.
    let mut ref_before = time_reference_ms();
    let mut host_ref = vec![ref_before];
    let mut op_secs = Vec::new();
    let mut round_op_secs = Vec::new();
    let mut round_rates = Vec::new();
    let mut failed_seeds = std::collections::BTreeSet::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let measuring = Instant::now();
    while measuring.elapsed() < Duration::from_secs(args.seconds) || attempted == 0 {
        let (mut round_secs, round_start_trials) = (0.0, trials());
        for &i in &order {
            let op = &bench.ops[i];
            let t = Instant::now();
            let out = bench.run(op);
            let raw = t.elapsed().as_secs_f64();
            let ref_after = time_reference_ms();
            host_ref.push(ref_after);
            let secs = nominal_secs(raw, (ref_before + ref_after) / 2.0);
            ref_before = ref_after;
            round_secs += secs;
            op_secs.push(secs);
            attempted += 1;
            match bench.check(op, &out) {
                Ok(Verdict::Ok) => {}
                Ok(Verdict::Failed) => {
                    failed += 1;
                    failed_seeds.insert(op.seed);
                }
                Err(e) => errors.push(format!("seed {}: {e}", op.seed)),
            }
            if let Some(tr) = tracer.as_mut() {
                tr.replay(&bench, op, &out, raw);
            }
        }
        round_op_secs.push(round_secs / order.len() as f64);
        round_rates.push((trials() - round_start_trials) as f64 / round_secs);
    }

    let metrics: Vec<Metric> = match tracer.as_mut() {
        None => vec![
            ("setup_s", "s", nominal_secs(setup_raw, median(&host_ref))),
            ("round_s", "s", median(&round_op_secs)),
            ("trials_per_s", "1/s", median(&round_rates)),
            ("peak_rss_mb", "MB", peak_rss_mb()),
        ],
        Some(tr) => {
            let m = tr.metrics(&bench, &host_ref);
            if let Some(e) = tr.error() {
                errors.push(format!("traced run: {e}"));
            }
            let path = args.out.join(format!(
                "trace-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            if let Err(e) = tr.dump(&path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
            m
        }
    };
    eprintln!(
        "perfbench: {} rounds of {} operations; operation times {:.3?} nominal s; host reference median {:.3} ms",
        attempted / bench.ops.len() as u64,
        bench.ops.len(),
        op_secs,
        median(&host_ref)
    );
    if !failed_seeds.is_empty() {
        eprintln!("perfbench: operations reported failed for seeds {failed_seeds:?}");
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
