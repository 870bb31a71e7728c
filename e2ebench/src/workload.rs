//! One repetition of a workload: set-up, timed phases and output checks.
//!
//! A repetition always runs in a fresh process (see `main.rs`), so
//! `LossModel::calibrate`'s process-wide memo starts empty and every
//! campaign seed pays its calibration, as it does for a user.
//!
//! Every workload runs the same three timed phases on its own inputs:
//!
//! * **sim** — campaigns up to the finished report (for `ingest` this is
//!   the campaign that generates the trace, inside set-up);
//! * **analyze** — the batch path over the JSONL trace: `import_trace`,
//!   `repository_from_records`, topology-aware relate, per-piconet
//!   TTF/TTR series;
//! * **stream** — `LineFramer` chunks, per-line parse,
//!   `StreamEngine::ingest` with a checkpoint every
//!   [`CHECKPOINT_EVERY`] records, then `finish`.
//!
//! The workloads differ in shape: `table4` runs many small campaigns and
//! replays only its SIRA campaigns' records; `metro` runs one campaign of
//! a hundred piconets and relates at high node counts; `ingest`
//! simulates in set-up and spends its timed work in `collect` and
//! `stream` on a long trace.

use crate::topo;
use crate::tracer::{self, SpanId, Tracer};
use btpan_analysis::dependability::{DependabilityReport, ScenarioMeasurement};
use btpan_analysis::paper::TABLE4;
use btpan_analysis::ttf::TtfTtrSeries;
use btpan_collect::coalesce::{coalesce, Tuple};
use btpan_collect::entry::LogRecord;
use btpan_collect::merge::merge_records;
use btpan_collect::relate::RelationshipMatrix;
use btpan_collect::repository::Repository;
use btpan_collect::trace::{import_trace, repository_from_records};
use btpan_core::campaign::{Campaign, CampaignConfig, CampaignResult, LossModel};
use btpan_core::machine::NAP_NODE_ID;
use btpan_core::supervisor::{run_supervised, SupervisorConfig};
use btpan_core::topology::Topology;
use btpan_recovery::RecoveryPolicy;
use btpan_sim::rng::SimRng;
use btpan_sim::time::{SimDuration, SimTime};
use btpan_stream::{
    batch_reference, stream_records, LineFramer, StreamConfig, StreamEngine, StreamOutcome,
    DEFAULT_WINDOW,
};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seeds per policy of the `table4` workload (24 simulated hours each).
pub const TABLE4_SEEDS: usize = 48;
pub const TABLE4_HOURS: u64 = 24;
/// Piconets and simulated hours of the `metro` campaign.
pub const METRO_PICONETS: usize = 100;
pub const METRO_HOURS: u64 = 24;
/// Piconets and simulated hours of the campaign that generates the
/// `ingest` trace: 140 nodes over 10 days, about 115 000 records. Dense
/// enough that no 330 s gap splits the merged stream (see
/// `CHECKPOINT_EVERY`), which would make a seed's checkpoints cheaper.
pub const INGEST_PICONETS: usize = 20;
pub const INGEST_HOURS: u64 = 10 * 24;
/// Records between two stream checkpoints. A checkpoint's cost grows
/// with the records the engine still buffers; on these dense
/// multi-piconet traces the global coalescer never closes a tuple, so it
/// grows with the stream position and the checkpoints cost
/// O(records² / CHECKPOINT_EVERY) in total.
pub const CHECKPOINT_EVERY: u64 = 4000;
/// Bytes handed to the `LineFramer` per read.
const CHUNK_BYTES: usize = 64 * 1024;
/// Seed of the warm-up campaign; the workload seeds come from
/// `topo::derive_seed`, so they never share its calibration.
const WARMUP_SEED: u64 = 0x5eed_0000_0000_0001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table4,
    Metro,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "table4" => Some(Workload::Table4),
            "metro" => Some(Workload::Metro),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// Records the workload replays through the analyze and stream
    /// phases: the first ones of its trace, so that the replay size, and
    /// with it the checkpoint cost, is the same for every seed.
    fn replay_records(self) -> usize {
        match self {
            Workload::Table4 | Workload::Metro => 50_000,
            Workload::Ingest => 90_000,
        }
    }
}

/// What one repetition measured, as printed to the launcher.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Rep {
    pub setup_s: f64,
    pub sim_piconet_hours: f64,
    pub sim_s: f64,
    pub analyze_records: u64,
    pub analyze_s: f64,
    pub stream_records: u64,
    pub stream_s: f64,
    pub checkpoint_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Worker-seconds the supervisor pools offered (workers × wall time);
    /// not printed, the base of `core.supervisor.busy_frac`.
    pub pool_capacity_s: f64,
    /// Exact counts: a speed-only change must leave them identical.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer measurements (traced repetitions only) plus the
    /// deterministic Table 4 accuracy.
    pub layers: BTreeMap<String, f64>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Rep {
    /// Host time of the three timed phases together.
    pub fn timed_s(&self) -> f64 {
        self.sim_s + self.analyze_s + self.stream_s
    }

    fn count(&mut self, name: &str, value: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += value;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The line protocol the child prints and the launcher parses.
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "setup_s {}\nsim {} {}\nanalyze {} {}\nstream {} {}\nrss_mb {}\nops {} {}\n",
            self.setup_s,
            self.sim_piconet_hours,
            self.sim_s,
            self.analyze_records,
            self.analyze_s,
            self.stream_records,
            self.stream_s,
            self.peak_rss_mb,
            self.attempted,
            self.failed
        );
        for v in &self.checkpoint_ms {
            out.push_str(&format!("checkpoint_ms {v}\n"));
        }
        for (k, v) in &self.counts {
            out.push_str(&format!("count {k} {v}\n"));
        }
        for (k, v) in &self.layers {
            out.push_str(&format!("layer {k} {v}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        out
    }

    /// Parses [`Rep::to_lines`] output.
    pub fn from_lines(text: &str) -> Result<Rep, String> {
        fn num<T: std::str::FromStr>(s: Option<&str>, line: &str) -> Result<T, String> {
            s.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad line from child: {line:?}"))
        }
        let mut rep = Rep::default();
        let mut seen_ops = false;
        for line in text.lines() {
            let mut f = line.split_whitespace();
            match f.next() {
                Some("setup_s") => rep.setup_s = num(f.next(), line)?,
                Some("sim") => {
                    rep.sim_piconet_hours = num(f.next(), line)?;
                    rep.sim_s = num(f.next(), line)?;
                }
                Some("analyze") => {
                    rep.analyze_records = num(f.next(), line)?;
                    rep.analyze_s = num(f.next(), line)?;
                }
                Some("stream") => {
                    rep.stream_records = num(f.next(), line)?;
                    rep.stream_s = num(f.next(), line)?;
                }
                Some("rss_mb") => rep.peak_rss_mb = num(f.next(), line)?,
                Some("ops") => {
                    rep.attempted = num(f.next(), line)?;
                    rep.failed = num(f.next(), line)?;
                    seen_ops = true;
                }
                Some("checkpoint_ms") => rep.checkpoint_ms.push(num(f.next(), line)?),
                Some("count") => {
                    let k = f.next().ok_or_else(|| format!("bad line: {line:?}"))?;
                    rep.counts.insert(k.to_string(), num(f.next(), line)?);
                }
                Some("layer") => {
                    let k = f.next().ok_or_else(|| format!("bad line: {line:?}"))?;
                    rep.layers.insert(k.to_string(), num(f.next(), line)?);
                }
                Some("fail") => rep.failures.push(line[5.min(line.len())..].to_string()),
                _ => {}
            }
        }
        if seen_ops {
            Ok(rep)
        } else {
            Err("child printed no result".to_string())
        }
    }
}

/// Shared state of one repetition.
struct Ctx<'a> {
    tracer: &'a Tracer,
    /// Supervisor pool size: the machine's cores, at most two.
    workers: usize,
    /// Seeds whose loss model this process has calibrated.
    calibrated: Mutex<HashSet<u64>>,
}

/// Runs one repetition of `workload` for `seed`.
pub fn run(workload: Workload, seed: u64, tracer: &Tracer) -> Rep {
    let started = Instant::now();
    let ctx = Ctx {
        tracer,
        workers: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2),
        calibrated: Mutex::new(HashSet::new()),
    };
    let mut rep = Rep::default();
    warm_up();

    // Set-up: the workload's inputs. `ingest` simulates here.
    let (topology, trace, sim_report) = match workload {
        Workload::Table4 => (Arc::new(Topology::paper_both()), None, None),
        Workload::Metro => (Arc::new(topo::generate(seed, METRO_PICONETS)), None, None),
        Workload::Ingest => {
            let topology = Arc::new(topo::generate(seed, INGEST_PICONETS));
            let (trace, report) = tracer.span("bench.setup", SpanId::ROOT, |phase| {
                ingest_trace(&ctx, &topology, seed, &mut rep, phase)
            });
            // Operations of `ingest` are records, counted by the replay;
            // a lost set-up campaign already fails a check.
            rep.attempted = 0;
            rep.failed = 0;
            (topology, Some(trace), Some(report))
        }
    };
    rep.check(topology.validate().is_ok(), || {
        format!("generated topology {} is invalid", topology.name)
    });
    rep.count("topo.piconets", topology.piconets.len() as u64);
    rep.count("topo.nodes", topology.machine_count() as u64);
    rep.count("topo.bridges", topology.bridges.len() as u64);
    rep.setup_s = started.elapsed().as_secs_f64();

    let (trace, report) = match workload {
        Workload::Table4 => {
            let seeds: Vec<u64> = (0..TABLE4_SEEDS as u64)
                .map(|i| topo::derive_seed(seed, i))
                .collect();
            let t = Instant::now();
            let (report, sira) = tracer.span("bench.sim", SpanId::ROOT, |phase| {
                table4_report(&ctx, &seeds, TABLE4_HOURS, &mut rep, phase)
            });
            rep.sim_s = t.elapsed().as_secs_f64();
            rep.sim_piconet_hours = (4 * TABLE4_SEEDS * 2) as f64 * TABLE4_HOURS as f64;
            (pooled_trace(sira, workload.replay_records()), report)
        }
        Workload::Metro => {
            let campaign_seed = topo::derive_seed(seed, 0);
            let t = Instant::now();
            let (report, result) = tracer.span("bench.sim", SpanId::ROOT, |phase| {
                metro_report(&ctx, &topology, campaign_seed, &mut rep, phase)
            });
            rep.sim_s = t.elapsed().as_secs_f64();
            rep.sim_piconet_hours = (METRO_PICONETS as u64 * METRO_HOURS) as f64;
            let trace = result.map_or_else(String::new, |r| {
                trace_of(head(&r.repository.records(), workload.replay_records()))
            });
            (trace, report)
        }
        Workload::Ingest => (
            trace.expect("ingest set-up makes a trace"),
            sim_report.expect("ingest set-up makes a report"),
        ),
    };
    let err_pp = report
        .scenarios
        .iter()
        .map(|(label, m)| {
            let paper = TABLE4
                .iter()
                .find(|c| c.label == label.as_str())
                .expect("scenario labels follow TABLE4");
            (m.availability - paper.availability).abs() * 100.0
        })
        .sum::<f64>()
        / report.scenarios.len().max(1) as f64;
    rep.layers
        .insert("analysis.table4_avail_err_pp".to_string(), err_pp);

    let wanted = workload.replay_records();
    let available = trace.lines().count();
    rep.check(available == wanted, || {
        format!("the trace has {available} records, the workload replays {wanted}")
    });
    replay(&ctx, &trace, &topology, workload, &mut rep);
    rep.count(
        "baseband.calibrations",
        ctx.calibrated.lock().expect("calibration set").len() as u64,
    );
    if tracer.enabled() {
        layer_metrics(&tracer.spans(), &mut rep);
    }
    rep.peak_rss_mb = peak_rss_mb().unwrap_or_else(|| {
        rep.failures
            .push("cannot read VmHWM from /proc/self/status".into());
        0.0
    });
    rep
}

/// Runs a small campaign and its replay untraced, so code paths,
/// allocator and page cache are warm before anything is timed. Its seed
/// is no workload's, so the workload seeds still calibrate cold.
fn warm_up() {
    let topology = Topology::paper_both();
    let result = Campaign::new(
        CampaignConfig::paper_both(WARMUP_SEED, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(2 * 3600)),
    )
    .run();
    let trace = trace_of(&result.repository.records());
    let records = import_trace(&trace).expect("warm-up trace imports");
    let repo = repository_from_records(&records);
    black_box(repo.reporting_nodes());
    let mut engine = StreamEngine::start(stream_config(&topology));
    for rec in records {
        engine.ingest(rec).expect("warm-up engine alive");
    }
    black_box(engine.finish());
}

fn stream_config(topology: &Topology) -> StreamConfig {
    StreamConfig {
        // One shard worker plus the producer: two threads, the core count
        // the benchmark is sized for.
        shards: 1,
        channel_capacity: 1024,
        window: DEFAULT_WINDOW,
        watermark_lag: DEFAULT_WINDOW * 2,
        idle_timeout_ms: None,
        nap_node: NAP_NODE_ID,
        keep_tuples: false,
        group_of: Some(topology.group_table()),
    }
}

/// One seed's campaign work as the supervisor runs it: the loss-model
/// calibration when this process meets the seed for the first time
/// (timed apart; the campaign's own `calibrate` call then hits the
/// memo), then the campaign.
fn campaign_job(ctx: &Ctx, parent: SpanId, config: CampaignConfig) -> CampaignResult {
    ctx.tracer.span("core.supervisor.job", parent, |job| {
        let first = ctx
            .calibrated
            .lock()
            .expect("calibration set")
            .insert(config.seed);
        if first {
            ctx.tracer.span("baseband.calibrate", job, |_| {
                let mut rng = SimRng::seed_from(config.seed).fork("loss-model");
                black_box(LossModel::calibrate(config.base_drop, &mut rng));
            });
        }
        ctx.tracer
            .span("core.campaign.run", job, |_| Campaign::new(config).run())
    })
}

/// Runs one campaign per seed on the supervisor pool; counts campaigns
/// as operations and every verdict that did not complete as failed.
fn supervised(
    ctx: &Ctx,
    seeds: &[u64],
    make: impl Fn(u64) -> CampaignConfig + Sync,
    rep: &mut Rep,
    parent: SpanId,
) -> Vec<CampaignResult> {
    let workers = ctx.workers.min(seeds.len()).max(1);
    let config = SupervisorConfig {
        workers: Some(workers),
        ..SupervisorConfig::default()
    };
    let t = Instant::now();
    let outcome = ctx.tracer.span("core.supervisor.pool", parent, |pool| {
        run_supervised(seeds, &config, |seed| campaign_job(ctx, pool, make(seed)))
    });
    rep.pool_capacity_s += workers as f64 * t.elapsed().as_secs_f64();
    let lost = outcome.verdicts.iter().filter(|v| !v.completed()).count() as u64;
    rep.attempted += seeds.len() as u64;
    rep.failed += lost;
    rep.check(lost == 0, || {
        format!(
            "{lost} of {} supervised campaigns did not complete",
            seeds.len()
        )
    });
    rep.count("core.supervisor.attempts", outcome.attempts);
    let results = outcome.into_results();
    for r in &results {
        rep.count("sim.cycles", r.cycles_run);
        rep.count("sim.failures", r.failure_count);
        rep.count("sim.masked", r.masked_count);
        rep.count("sim.covered", r.covered_count);
    }
    results
}

/// The paper's Table 4, composed from the public calls that
/// `experiment::table4` makes (four policy-major supervised runs over
/// `Topology::paper_both`), with a span around each. Returns the report
/// and the SIRA campaigns, whose records the replay phases use.
fn table4_report(
    ctx: &Ctx,
    seeds: &[u64],
    hours: u64,
    rep: &mut Rep,
    phase: SpanId,
) -> (DependabilityReport, Vec<CampaignResult>) {
    let duration = SimDuration::from_secs(hours * 3600);
    let mut scenarios = Vec::new();
    let mut sira = Vec::new();
    for policy in RecoveryPolicy::ALL {
        let results = supervised(
            ctx,
            seeds,
            |seed| CampaignConfig::paper_both(seed, policy).duration(duration),
            rep,
            phase,
        );
        let series = ctx.tracer.span("core.series", phase, |_| {
            let mut series = TtfTtrSeries::default();
            for r in &results {
                for i in 0..r.piconets.len() {
                    series.extend(&r.piconet_series_of(i));
                }
            }
            series
        });
        let (covered, masked, manifested) = results.iter().fold((0, 0, 0), |acc, r| {
            (
                acc.0 + r.covered_count,
                acc.1 + r.masked_count,
                acc.2 + r.failure_count,
            )
        });
        let measurement = ctx.tracer.span("analysis.report", phase, |_| {
            ScenarioMeasurement::from_series(&series, covered, masked, manifested)
        });
        scenarios.push((policy.label().to_string(), measurement));
        if policy == RecoveryPolicy::Siras {
            sira = results;
        }
    }
    let report = ctx.tracer.span("analysis.report", phase, |_| {
        DependabilityReport::new(scenarios)
    });
    (report, sira)
}

/// One SIRA campaign over the metro topology, then its topology-aware
/// Table 2 and per-piconet Table 4 series.
fn metro_report(
    ctx: &Ctx,
    topology: &Arc<Topology>,
    campaign_seed: u64,
    rep: &mut Rep,
    phase: SpanId,
) -> (DependabilityReport, Option<CampaignResult>) {
    let Some(result) = topology_campaign(ctx, topology, campaign_seed, METRO_HOURS, rep, phase)
    else {
        return (DependabilityReport::new(Vec::new()), None);
    };
    let (matrix, _, _) = relate(ctx, &result.repository, topology, phase);
    black_box(matrix.grand_total());
    let report = sira_report(ctx, &result, phase);
    (report, Some(result))
}

/// One supervised SIRA campaign over `topology`.
fn topology_campaign(
    ctx: &Ctx,
    topology: &Arc<Topology>,
    campaign_seed: u64,
    hours: u64,
    rep: &mut Rep,
    phase: SpanId,
) -> Option<CampaignResult> {
    let duration = SimDuration::from_secs(hours * 3600);
    supervised(
        ctx,
        &[campaign_seed],
        |seed| {
            CampaignConfig::with_topology(seed, Arc::clone(topology), RecoveryPolicy::Siras)
                .duration(duration)
        },
        rep,
        phase,
    )
    .into_iter()
    .next()
}

/// Per-piconet Table 4 series of one campaign, each piconet measured
/// alone and all pooled into the SIRA column.
fn sira_report(ctx: &Ctx, result: &CampaignResult, phase: SpanId) -> DependabilityReport {
    let series: Vec<TtfTtrSeries> = ctx.tracer.span("core.series", phase, |_| {
        (0..result.piconets.len())
            .map(|i| result.piconet_series_of(i))
            .collect()
    });
    ctx.tracer.span("analysis.report", phase, |_| {
        let mut pooled = TtfTtrSeries::default();
        for (s, p) in series.iter().zip(&result.piconets) {
            black_box(ScenarioMeasurement::from_series(
                s,
                p.covered_count,
                p.masked_count,
                p.failure_count,
            ));
            pooled.extend(s);
        }
        DependabilityReport::new(vec![(
            RecoveryPolicy::Siras.label().to_string(),
            ScenarioMeasurement::from_series(
                &pooled,
                result.covered_count,
                result.masked_count,
                result.failure_count,
            ),
        )])
    })
}

/// `ingest` set-up: one long SIRA campaign over the generated topology,
/// exported as a JSONL trace. Its campaign time is the workload's sim
/// phase.
fn ingest_trace(
    ctx: &Ctx,
    topology: &Arc<Topology>,
    seed: u64,
    rep: &mut Rep,
    phase: SpanId,
) -> (String, DependabilityReport) {
    let t = Instant::now();
    let result = topology_campaign(
        ctx,
        topology,
        topo::derive_seed(seed, 0),
        INGEST_HOURS,
        rep,
        phase,
    );
    rep.sim_s = t.elapsed().as_secs_f64();
    rep.sim_piconet_hours = (INGEST_PICONETS as u64 * INGEST_HOURS) as f64;
    match result {
        Some(r) => (
            trace_of(head(
                &r.repository.records(),
                Workload::Ingest.replay_records(),
            )),
            sira_report(ctx, &r, phase),
        ),
        None => (String::new(), DependabilityReport::new(Vec::new())),
    }
}

/// JSONL trace of `records`, one `serde_json` line each, as
/// `export_trace` writes it.
fn trace_of(records: &[LogRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("records serialize"));
        out.push('\n');
    }
    out
}

/// The first `n` records, or all when there are fewer.
fn head(records: &[LogRecord], n: usize) -> &[LogRecord] {
    &records[..n.min(records.len())]
}

/// The SIRA campaigns of all seeds pooled into one canonical stream, as
/// `experiment::table4_streaming` pools them; the trace of its first `n`
/// records.
fn pooled_trace(results: Vec<CampaignResult>, n: usize) -> String {
    let mut records: Vec<LogRecord> = results
        .iter()
        .flat_map(|r| r.repository.records())
        .collect();
    records.sort();
    for (seq, rec) in records.iter_mut().enumerate() {
        rec.seq = seq as u64;
    }
    trace_of(head(&records, n))
}

type NodeStreams = Vec<(u64, Vec<u64>, Vec<LogRecord>)>;
type MasterStreams = Vec<(u64, Vec<LogRecord>)>;

/// Topology-aware Table 2: every reporting node's records related to
/// the System Logs of every master that can propagate to it.
fn relate(
    ctx: &Ctx,
    repo: &Repository,
    topology: &Topology,
    parent: SpanId,
) -> (RelationshipMatrix, NodeStreams, MasterStreams) {
    let (nodes, masters) = ctx.tracer.span("collect.records_of", parent, |_| {
        let nodes: NodeStreams = repo
            .reporting_nodes()
            .into_iter()
            .map(|n| (n, topology.masters_of(n), repo.records_of(n)))
            .collect();
        let masters: MasterStreams = topology
            .piconets
            .iter()
            .map(|p| (p.master_id(), repo.system_records_of(p.master_id())))
            .collect();
        (nodes, masters)
    });
    let matrix = ctx.tracer.span("collect.relate", parent, |_| {
        RelationshipMatrix::from_node_logs_multi(&nodes, &masters, DEFAULT_WINDOW)
    });
    (matrix, nodes, masters)
}

/// Failure episodes of coalesced tuples as a TTF/TTR series: TTR is a
/// failure tuple's span, TTF the gap since the previous one ended (the
/// rule of `btpan_stream::EpisodeEstimator`).
fn episode_series(tuples: &[Tuple]) -> TtfTtrSeries {
    let mut series = TtfTtrSeries::default();
    let mut prev_end: Option<SimTime> = None;
    for t in tuples.iter().filter(|t| t.failures().next().is_some()) {
        let (Some(first), Some(last)) = (t.records.first(), t.records.last()) else {
            continue;
        };
        if let Some(prev) = prev_end {
            series.ttf.push(first.at.saturating_since(prev));
        }
        series.ttr.push(t.span());
        prev_end = Some(last.at);
    }
    series
}

/// The replay phases (analyze, then stream) and their output checks.
fn replay(ctx: &Ctx, trace: &str, topology: &Topology, workload: Workload, rep: &mut Rep) {
    let tracer = ctx.tracer;
    let lines = trace.lines().filter(|l| !l.trim().is_empty()).count() as u64;

    // Batch path.
    let t = Instant::now();
    let analyzed = tracer.span("bench.analyze", SpanId::ROOT, |phase| {
        let records = tracer.span("collect.import", phase, |_| import_trace(trace));
        let Ok(records) = records else {
            return None;
        };
        let repo = tracer.span("collect.repository_build", phase, |_| {
            repository_from_records(&records)
        });
        let (matrix, nodes, masters) = relate(ctx, &repo, topology, phase);
        let series = tracer.span("collect.coalesce", phase, |_| {
            let mut per_piconet: Vec<Vec<Vec<LogRecord>>> =
                masters.iter().map(|(_, recs)| vec![recs.clone()]).collect();
            for (node, _, recs) in &nodes {
                if let Some(i) = topology.home_piconet_of(*node) {
                    per_piconet[i].push(recs.clone());
                }
            }
            per_piconet
                .into_iter()
                .map(|streams| episode_series(&coalesce(&merge_records(streams), DEFAULT_WINDOW)))
                .collect::<Vec<_>>()
        });
        tracer.span("analysis.report", phase, |_| {
            let mut pooled = TtfTtrSeries::default();
            for s in &series {
                black_box(ScenarioMeasurement::from_series(
                    s,
                    0,
                    0,
                    s.ttr.len() as u64,
                ));
                pooled.extend(s);
            }
            black_box(ScenarioMeasurement::from_series(
                &pooled,
                0,
                0,
                pooled.ttr.len() as u64,
            ));
        });
        Some((records, matrix))
    });
    rep.analyze_s = t.elapsed().as_secs_f64();
    let Some((records, matrix)) = analyzed else {
        rep.failures.push("import_trace rejected the trace".into());
        return;
    };
    rep.analyze_records = records.len() as u64;
    rep.count("collect.records", records.len() as u64);
    rep.count("collect.related_failures", matrix.grand_total());
    rep.check(records.len() as u64 == lines, || {
        format!(
            "imported {} records from {lines} non-empty trace lines",
            records.len()
        )
    });

    // Streaming path.
    let config = stream_config(topology);
    let t = Instant::now();
    let streamed = tracer.span("bench.stream", SpanId::ROOT, |phase| {
        stream_trace(ctx, trace, &config, rep, phase)
    });
    rep.stream_s = t.elapsed().as_secs_f64();
    let (outcome, ingested, parse_errors) = streamed;
    rep.stream_records = ingested;
    let snap = &outcome.snapshot;
    rep.count("stream.records_emitted", snap.records_emitted);
    rep.count("stream.late_quarantined", snap.late_quarantined);
    rep.count("stream.duplicates_dropped", snap.duplicates_dropped);
    rep.count("stream.peak_resident_records", snap.peak_resident_records);
    rep.count("stream.checkpoints", rep.checkpoint_ms.len() as u64);
    rep.check(parse_errors == 0 && ingested == lines, || {
        format!("stream ingested {ingested} of {lines} lines ({parse_errors} unparsable)")
    });
    let accounted = snap.records_emitted + snap.late_quarantined + snap.duplicates_dropped;
    rep.check(accounted == ingested, || {
        format!("stream accounts for {accounted} of {ingested} ingested records")
    });
    if workload == Workload::Ingest {
        rep.attempted += lines;
        rep.failed += lines.saturating_sub(records.len() as u64) + accounted.abs_diff(ingested);
    }

    // Output checks, outside the timed phases.
    let reference = tracer.span("check.batch_reference", SpanId::ROOT, |_| {
        batch_reference(&records, &config)
    });
    rep.check(snap.analysis_eq(&reference), || {
        "streaming snapshot differs from batch_reference".into()
    });
    if tracer.enabled() {
        let t = Instant::now();
        let core = tracer.span("check.stream_records", SpanId::ROOT, |_| {
            stream_records(records.clone(), &config)
        });
        let core_s = t.elapsed().as_secs_f64();
        rep.layers.insert(
            "stream.core_records_per_s".into(),
            records.len() as f64 / core_s,
        );
        rep.check(core.snapshot.analysis_eq(&reference), || {
            "single-threaded stream_records differs from batch_reference".into()
        });
    }
}

/// Streams `trace` through a fresh engine; returns the outcome, the
/// records ingested and the lines that failed to parse.
fn stream_trace(
    ctx: &Ctx,
    trace: &str,
    config: &StreamConfig,
    rep: &mut Rep,
    phase: SpanId,
) -> (StreamOutcome, u64, u64) {
    let tracer = ctx.tracer;
    let traced = tracer.enabled();
    let mut engine = StreamEngine::start(config.clone());
    let mut framer = LineFramer::new();
    let (mut parse_t, mut ingest_t) = (Duration::ZERO, Duration::ZERO);
    let mut parse_errors = 0u64;
    let mut process = |engine: &mut StreamEngine, line: &str| {
        if line.trim().is_empty() {
            return;
        }
        let t = traced.then(Instant::now);
        let parsed = serde_json::from_str::<LogRecord>(line);
        if let Some(t) = t {
            parse_t += t.elapsed();
        }
        let Ok(rec) = parsed else {
            parse_errors += 1;
            return;
        };
        let t = traced.then(Instant::now);
        if engine.ingest(rec).is_err() {
            parse_errors += 1;
            return;
        }
        if let Some(t) = t {
            ingest_t += t.elapsed();
        }
        if engine.ingested().is_multiple_of(CHECKPOINT_EVERY) {
            let t0 = Instant::now();
            let cp = tracer.span("stream.checkpoint_barrier", phase, |_| engine.checkpoint());
            let json = tracer.span("stream.checkpoint_json", phase, |_| cp.to_json());
            black_box(json.len());
            rep.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    };
    let mut rest = trace;
    while !rest.is_empty() {
        let mut cut = CHUNK_BYTES.min(rest.len());
        while !rest.is_char_boundary(cut) {
            cut += 1;
        }
        let (chunk, tail) = rest.split_at(cut);
        framer.push_lines(chunk, |line| process(&mut engine, line));
        rest = tail;
    }
    if let Some(last) = framer.finish() {
        process(&mut engine, &last);
    }
    tracer.aggregate("stream.parse", phase, parse_t);
    tracer.aggregate("stream.ingest", phase, ingest_t);
    let ingested = engine.ingested();
    let outcome = tracer.span("stream.finish", phase, |_| engine.finish());
    (outcome, ingested, parse_errors)
}

/// Per-layer metrics from the spans of a traced repetition.
fn layer_metrics(spans: &[tracer::Span], rep: &mut Rep) {
    let mut put = |name: &str, v: f64| {
        rep.layers.insert(name.to_string(), v);
    };
    for (name, span) in [
        ("baseband.calibrate_s", "baseband.calibrate"),
        ("core.campaign.run_s", "core.campaign.run"),
        ("core.series_s", "core.series"),
        ("collect.import_s", "collect.import"),
        ("collect.repository_build_s", "collect.repository_build"),
        ("collect.records_of_s", "collect.records_of"),
        ("collect.relate_s", "collect.relate"),
        ("collect.coalesce_s", "collect.coalesce"),
        ("stream.parse_s", "stream.parse"),
        ("stream.ingest_block_s", "stream.ingest"),
        ("stream.finish_s", "stream.finish"),
        ("analysis.report_s", "analysis.report"),
    ] {
        put(name, tracer::total_s(spans, span));
    }
    let seed_ms = tracer::durations_ms(spans, "core.campaign.run");
    put("core.campaign.seed_ms.p50", quantile(&seed_ms, 0.5));
    put("core.campaign.seed_ms.p90", quantile(&seed_ms, 0.9));
    put(
        "stream.checkpoint_barrier_ms",
        quantile(
            &tracer::durations_ms(spans, "stream.checkpoint_barrier"),
            0.9,
        ),
    );
    put(
        "stream.checkpoint_json_ms",
        quantile(&tracer::durations_ms(spans, "stream.checkpoint_json"), 0.9),
    );
    let run_s = tracer::total_s(spans, "core.campaign.run");
    let cycles = rep.counts.get("sim.cycles").copied().unwrap_or(0);
    let capacity = rep.pool_capacity_s;
    let busy = tracer::total_s(spans, "core.supervisor.job");
    let mut put = |name: &str, v: f64| {
        rep.layers.insert(name.to_string(), v);
    };
    put("core.campaign.cycles_per_s", cycles as f64 / run_s);
    put("core.supervisor.busy_frac", busy / capacity);
    for (layer, s) in tracer::self_times_s(spans) {
        put(&format!("{layer}.self_s"), s);
    }
    put("trace.spans", spans.len() as f64);
}

/// Linear-interpolated quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident memory (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpan_core::experiment::{self, Scale};

    #[test]
    fn composed_table4_matches_experiment_table4() {
        let seeds = [3, 4];
        let tracer = Tracer::new(true);
        let ctx = Ctx {
            tracer: &tracer,
            workers: 2,
            calibrated: Mutex::new(HashSet::new()),
        };
        let mut rep = Rep::default();
        let (composed, sira) = table4_report(&ctx, &seeds, 4, &mut rep, SpanId::ROOT);
        let reference = experiment::table4(&Scale {
            seeds: seeds.to_vec(),
            duration: SimDuration::from_secs(4 * 3600),
        });
        // Debug prints every f64 in full, so equal text is equal bits.
        assert_eq!(format!("{composed:?}"), format!("{reference:?}"));
        assert_eq!(sira.len(), seeds.len());
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert_eq!(rep.attempted, 4 * seeds.len() as u64);
        assert_eq!(
            ctx.calibrated.lock().unwrap().len(),
            seeds.len(),
            "one cold calibration per seed"
        );
    }

    #[test]
    fn rep_lines_round_trip() {
        let mut rep = Rep {
            setup_s: 0.25,
            sim_piconet_hours: 96.0,
            sim_s: 1.5,
            analyze_records: 10,
            analyze_s: 0.125,
            stream_records: 10,
            stream_s: 0.0625,
            checkpoint_ms: vec![1.5, 2.25],
            peak_rss_mb: 12.5,
            attempted: 3,
            failed: 1,
            ..Rep::default()
        };
        rep.count("sim.cycles", 42);
        rep.layers.insert("core.series_s".into(), 0.001);
        rep.failures.push("something broke".into());
        assert_eq!(Rep::from_lines(&rep.to_lines()).unwrap(), rep);
        assert!(Rep::from_lines("").is_err());
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }
}
