//! End-to-end benchmark of the btpan pipeline.
//!
//! ```text
//! btpan-e2ebench --workload table4|metro|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! The launcher runs repetitions of the workload, each in a fresh child
//! process (the same binary with `--child`), until `--seconds` have
//! passed, and prints the medians. A fresh process per repetition keeps
//! `LossModel::calibrate`'s process-wide memo empty, so every
//! repetition pays the calibration a user pays on every run.
//!
//! With `--trace 0` the output holds the end-to-end metrics. With
//! `--trace 1` untraced and traced repetitions alternate; the output
//! holds the per-layer metrics of the traced ones, the tracing overhead
//! (traced against untraced timed work), and the run fails unless both
//! kinds produced identical exact counts. The last stdout line is one
//! JSON object; the exit code is non-zero when any output check failed.

mod topo;
mod tracer;
mod workload;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{quantile, Rep, Workload};

/// End-to-end metrics: name and unit, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 7] = [
    ("sim_piconet_hours_per_s", "pico-h/s"),
    ("analyze_records_per_s", "records/s"),
    ("stream_records_per_s", "records/s"),
    ("checkpoint_ms.p50", "ms"),
    ("checkpoint_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: [(&str, &str); 47] = [
    ("baseband.calibrate_s", "s"),
    ("baseband.calibrations", "count"),
    ("baseband.self_s", "s"),
    ("core.campaign.run_s", "s"),
    ("core.campaign.seed_ms.p50", "ms"),
    ("core.campaign.seed_ms.p90", "ms"),
    ("core.campaign.cycles_per_s", "1/s"),
    ("core.supervisor.busy_frac", "fraction"),
    ("core.supervisor.attempts", "count"),
    ("core.series_s", "s"),
    ("core.self_s", "s"),
    ("collect.import_s", "s"),
    ("collect.repository_build_s", "s"),
    ("collect.records_of_s", "s"),
    ("collect.relate_s", "s"),
    ("collect.coalesce_s", "s"),
    ("collect.self_s", "s"),
    ("stream.parse_s", "s"),
    ("stream.ingest_block_s", "s"),
    ("stream.finish_s", "s"),
    ("stream.checkpoint_barrier_ms", "ms"),
    ("stream.checkpoint_json_ms", "ms"),
    ("stream.core_records_per_s", "records/s"),
    ("stream.self_s", "s"),
    ("analysis.report_s", "s"),
    ("analysis.self_s", "s"),
    ("analysis.table4_avail_err_pp", "pp"),
    ("bench.self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("sim.cycles", "count"),
    ("sim.failures", "count"),
    ("sim.masked", "count"),
    ("sim.covered", "count"),
    ("collect.records", "count"),
    ("collect.related_failures", "count"),
    ("stream.records_emitted", "count"),
    ("stream.late_quarantined", "count"),
    ("stream.duplicates_dropped", "count"),
    ("stream.peak_resident_records", "count"),
    ("stream.checkpoints", "count"),
    ("topo.nodes", "count"),
    ("topo.piconets", "count"),
    ("topo.bridges", "count"),
    ("trace.traced_reps", "count"),
    ("trace.untraced_reps", "count"),
    ("trace.checkpoint_samples", "count"),
];

/// Pooled checkpoint samples that leave ten beyond the p90.
const MIN_CHECKPOINT_SAMPLES: usize = 100;

/// Every run ends well inside the 180 s a benchmark run may take.
const RUN_LIMIT: Duration = Duration::from_secs(160);

struct Args {
    workload: Workload,
    /// The workload as named on the command line.
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload_name = value("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?} (table4, metro, ingest)"))?;
    let num = |flag: &str, default: Option<u64>| -> Result<u64, String> {
        match value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} needs a whole number")),
            None => default.ok_or_else(|| format!("missing {flag}")),
        }
    };
    let trace = match num("--trace", Some(0))? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        name: workload_name.to_string(),
        seed: num("--seed", None)?,
        seconds: num("--seconds", Some(10))?,
        trace,
        child: match value("--child") {
            Some(_) => Some(num("--child", None)?),
            None => None,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("btpan-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(rep_index) => child(&args, rep_index),
        None => launch(&args),
    }
}

/// One repetition: runs the workload and prints its [`Rep`] lines.
fn child(args: &Args, rep_index: u64) -> ExitCode {
    let tracer = tracer::Tracer::new(args.trace);
    let rep = workload::run(args.workload, args.seed, &tracer);
    if args.trace {
        let run_id = format!("{}-seed{}-rep{rep_index}", args.name, args.seed);
        let path = trace_dir().join(format!("{run_id}.jsonl"));
        let written = std::fs::create_dir_all(trace_dir())
            .and_then(|()| tracer::write_jsonl(&path, &run_id, &tracer.spans()));
        match written {
            Ok(()) => eprintln!("spans of {run_id} written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    print!("{}", rep.to_lines());
    ExitCode::SUCCESS
}

/// Spans go next to the binary, inside the build directory.
fn trace_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("traces")))
        .unwrap_or_else(|| PathBuf::from("traces"))
}

/// Runs one child repetition and parses what it printed.
fn run_child(
    exe: &Path,
    args: &Args,
    traced: bool,
    index: u64,
    limit: Duration,
) -> Result<Rep, String> {
    let mut child = Command::new(exe)
        .args(["--workload", &args.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", &index.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start repetition: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > limit => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "repetition {index} overran {} s and was stopped",
                    limit.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("cannot wait for repetition {index}: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("cannot read repetition output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("repetition {index} exited with {status}"));
    }
    Rep::from_lines(&text)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs repetitions for `--seconds`, aggregates and prints the result.
fn launch(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("btpan-e2ebench: cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // Medians need three samples; the traced run needs two of each kind.
    let min_reps = if args.trace { 4 } else { 3 };
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut last = Duration::ZERO;
    let samples = |reps: &[(bool, Rep)]| {
        reps.iter()
            .filter(|(traced, _)| !traced)
            .map(|(_, r)| r.checkpoint_ms.len())
            .sum::<usize>()
    };
    // The end-to-end run also keeps going, within the run limit, until
    // the checkpoint p90 has ten samples beyond it.
    let needs_samples =
        |reps: &[(bool, Rep)]| !args.trace && samples(reps) < MIN_CHECKPOINT_SAMPLES;
    while reps.len() < min_reps
        || start.elapsed() + last <= budget
        || (needs_samples(&reps) && start.elapsed() + 2 * last <= RUN_LIMIT)
    {
        let Some(limit) = RUN_LIMIT.checked_sub(start.elapsed()) else {
            failures.push("run limit reached before the minimum repetitions".into());
            break;
        };
        let traced = args.trace && reps.len() % 2 == 1;
        let t = Instant::now();
        match run_child(&exe, args, traced, reps.len() as u64, limit) {
            Ok(rep) => reps.push((traced, rep)),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        last = t.elapsed();
    }

    let mut attempted: u64 = 0;
    let mut failed: u64 = 0;
    for (traced, rep) in &reps {
        attempted += rep.attempted;
        failed += if rep.failures.is_empty() {
            rep.failed
        } else {
            rep.attempted
        };
        for f in &rep.failures {
            failures.push(format!(
                "{} repetition: {f}",
                if *traced { "traced" } else { "untraced" }
            ));
        }
    }
    if let Some((_, first)) = reps.first() {
        for (traced, rep) in &reps[1..] {
            if rep.counts != first.counts {
                failures.push(format!(
                    "exact counts of a {} repetition differ from the first repetition",
                    if *traced { "traced" } else { "untraced" }
                ));
            }
        }
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let timed = |rs: &[&Rep]| median(&rs.iter().map(|r| r.timed_s()).collect::<Vec<_>>());
        let overhead = 100.0 * (timed(&traced) / timed(&untraced) - 1.0);
        let samples = traced.iter().map(|r| r.checkpoint_ms.len()).sum::<usize>();
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_pct" => Some(overhead),
                "trace.traced_reps" => Some(traced.len() as f64),
                "trace.untraced_reps" => Some(untraced.len() as f64),
                "trace.checkpoint_samples" => Some(samples as f64),
                _ => {
                    let values: Vec<f64> = traced
                        .iter()
                        .filter_map(|r| {
                            r.layers
                                .get(name)
                                .copied()
                                .or_else(|| r.counts.get(name).map(|&c| c as f64))
                        })
                        .collect();
                    (values.len() == traced.len() && !values.is_empty()).then(|| median(&values))
                }
            };
            match value {
                Some(v) => metrics.push((name, v, unit)),
                None => {
                    failures.push(format!("traced repetitions did not report {name}"));
                    metrics.push((name, 0.0, unit));
                }
            }
        }
    } else {
        let per_rep =
            |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(|r| f(r)).collect::<Vec<_>>());
        let checkpoints: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.checkpoint_ms.iter().copied())
            .collect();
        for (name, unit) in END_TO_END {
            let value = match name {
                "sim_piconet_hours_per_s" => per_rep(&|r| r.sim_piconet_hours / r.sim_s),
                "analyze_records_per_s" => per_rep(&|r| r.analyze_records as f64 / r.analyze_s),
                "stream_records_per_s" => per_rep(&|r| r.stream_records as f64 / r.stream_s),
                "checkpoint_ms.p50" => quantile(&checkpoints, 0.5),
                "checkpoint_ms.p90" => quantile(&checkpoints, 0.9),
                "setup_s" => per_rep(&|r| r.setup_s),
                "peak_rss_mb" => per_rep(&|r| r.peak_rss_mb),
                _ => unreachable!("every end-to-end metric has a rule"),
            };
            metrics.push((name, value, unit));
        }
        if checkpoints.len() < MIN_CHECKPOINT_SAMPLES {
            failures.push(format!(
                "only {} checkpoint samples; p90 needs {MIN_CHECKPOINT_SAMPLES}",
                checkpoints.len()
            ));
        }
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            failures.push(format!("{name} is not a finite number"));
            *value = 0.0;
        }
    }

    // Human-readable summary, then the JSON result as the last line.
    let name = &args.name;
    println!(
        "# {name} seed {} trace {}: {} repetitions ({} traced) in {:.1} s",
        args.seed,
        u8::from(args.trace),
        reps.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    if let Some((_, rep)) = reps.first() {
        let c = |k: &str| rep.counts.get(k).copied().unwrap_or(0);
        println!(
            "# topology: {} nodes, {} piconets, {} bridges; {} checkpoint samples per repetition",
            c("topo.nodes"),
            c("topo.piconets"),
            c("topo.bridges"),
            rep.checkpoint_ms.len()
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for f in &failures {
        println!("# FAILED CHECK: {f}");
    }
    let correct = failures.is_empty();
    if !correct {
        failed = attempted.max(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
    }
}
