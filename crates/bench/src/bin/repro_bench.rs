//! Hot-path throughput measurements for the campaign pipeline.
//!
//! Covers the four stages a long campaign spends its time in, each
//! against the slow path it replaced:
//!
//! 1. **baseband slots/s** — the idle-slot fast path
//!    (`AclLink::idle_slots`, O(1)/O(dwell) per quiet span) vs the
//!    slot-by-slot reference walk, on a Table-4-shaped duty cycle
//!    (short transfers separated by long quiet spans under the
//!    burst-boosted Gilbert–Elliott channel);
//! 2. **engine events/s** — the indexed event-wheel scheduler vs the
//!    binary-heap strategy, on a chained-timer workload;
//! 3. **campaign seeds/s** — full `Campaign::run` columns as Table 4
//!    drives them (several policies over the same seeds), plus the
//!    per-seed cost of the exact loss calibration (`cold_calibration_s`);
//! 4. **collect/stream records/s** — JSONL trace import/export and the
//!    chunked tail-framing path.
//!
//! Every speedup claim is guarded by an equivalence check (bit-identical
//! transfer outcomes across idle paths, identical event orders across
//! queue strategies, byte-identical re-export); a failed check fails
//! the run. `--quick` shrinks the workloads and additionally enforces
//! the CI floor: idle-path speedup >= 3x and an absolute slots/s floor
//! at roughly half the committed baseline, so perf regressions fail CI
//! while machine variance does not.
//!
//! Writes `BENCH_PR4.json` into the current directory.

use btpan_baseband::channel::{ChannelModel, GilbertElliott, Interferer, MemorylessChannel};
use btpan_baseband::hop::HopSequence;
use btpan_baseband::link::{AclLink, LinkConfig};
use btpan_baseband::packet::PacketType;
use btpan_collect::trace::{export_trace, import_trace, repository_from_records};
use btpan_core::campaign::{calibration_link, Campaign, CampaignConfig, LossModel};
use btpan_core::experiment::Scale;
use btpan_recovery::RecoveryPolicy;
use btpan_sim::engine::{Engine, EventHandler, QueueStrategy, Scheduler};
use btpan_sim::prelude::*;
use btpan_sim::time::{SimDuration, SimTime};
use btpan_stream::LineFramer;
use btpan_workload::WorkloadKind;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Quick-mode CI floors: the fast idle path must beat the reference by
/// at least this factor...
const FLOOR_IDLE_SPEEDUP: f64 = 3.0;
/// ...and sustain at least this many slots/s outright. The committed
/// baseline (BENCH_PR4.json) is ~3e9; the slot-by-slot reference walk
/// tops out near 2e8, so this floor sits safely above any O(n) revert
/// while leaving ~6x headroom for slower CI machines.
const FLOOR_IDLE_SLOTS_PER_S: f64 = 500_000_000.0;

#[derive(Serialize)]
struct IdleBench {
    table4_spans: u64,
    slots_total: u64,
    ref_slots_per_s: f64,
    fast_slots_per_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EngineBench {
    events: u64,
    heap_events_per_s: f64,
    wheel_events_per_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct CampaignBench {
    seeds_per_policy: usize,
    policies: usize,
    simulated_hours: f64,
    cold_calibration_s: f64,
    seeds_per_s: f64,
}

#[derive(Serialize)]
struct TopologyBench {
    piconets: usize,
    seeds: usize,
    simulated_hours: f64,
    piconet_seeds_per_s: f64,
}

#[derive(Serialize)]
struct CollectBench {
    records: usize,
    export_records_per_s: f64,
    import_records_per_s: f64,
    tail_records_per_s: f64,
}

#[derive(Serialize)]
struct Equivalence {
    idle_memoryless_bit_identical: bool,
    idle_interferer_bit_identical: bool,
    wheel_heap_identical_order: bool,
    reexport_byte_identical: bool,
}

#[derive(Serialize)]
struct Report {
    mode: &'static str,
    idle: IdleBench,
    engine: EngineBench,
    campaign: CampaignBench,
    topology: TopologyBench,
    collect: CollectBench,
    equivalence: Equivalence,
}

/// Table-4-shaped link: the loss model's calibration link for DM1.
fn table4_link() -> AclLink<GilbertElliott> {
    calibration_link(PacketType::Dm1)
}

/// One Table-4 duty cycle: a short burst of payloads, then a quiet
/// span. Returns slots consumed.
fn duty_cycle<C: ChannelModel>(
    link: &mut AclLink<C>,
    rng: &mut SimRng,
    quiet_slots: u64,
    fast: bool,
) -> u64 {
    let before = link.slot_cursor();
    black_box(link.send_payloads(8, rng));
    if fast {
        link.idle_slots(quiet_slots, rng);
    } else {
        link.idle_slots_reference(quiet_slots, rng);
    }
    link.slot_cursor() - before
}

fn bench_idle(spans: u64, quiet_slots: u64) -> IdleBench {
    let mut ref_slots = 0u64;
    let mut link = table4_link();
    let mut rng = SimRng::seed_from(0xB4);
    let start = Instant::now();
    for _ in 0..spans {
        ref_slots += duty_cycle(&mut link, &mut rng, quiet_slots, false);
    }
    let ref_elapsed = start.elapsed().as_secs_f64();

    let mut link = table4_link();
    let mut rng = SimRng::seed_from(0xB4);
    let mut fast_slots = 0u64;
    let start = Instant::now();
    for _ in 0..spans {
        fast_slots += duty_cycle(&mut link, &mut rng, quiet_slots, true);
    }
    let fast_elapsed = start.elapsed().as_secs_f64();
    // The burst channel's idle skip is distribution-exact, not
    // stream-identical, so retransmit counts (and thus slot totals) may
    // drift by a few slots per million; each arm rates its own total.
    let drift = ref_slots.abs_diff(fast_slots) as f64 / ref_slots as f64;
    assert!(drift < 1e-3, "slot totals diverged by {drift:.2e}");

    let ref_rate = ref_slots as f64 / ref_elapsed;
    let fast_rate = fast_slots as f64 / fast_elapsed;
    IdleBench {
        table4_spans: spans,
        slots_total: ref_slots,
        ref_slots_per_s: ref_rate,
        fast_slots_per_s: fast_rate,
        speedup: fast_rate / ref_rate,
    }
}

struct ChainWorld {
    handled: u64,
    budget: u64,
}

impl EventHandler<u32> for ChainWorld {
    fn handle(&mut self, _now: SimTime, lane: u32, s: &mut Scheduler<u32>) {
        self.handled += 1;
        if self.handled < self.budget {
            // Mixed horizons: most events land within the wheel's lap,
            // a few jump far ahead (overflow heap).
            let slots = match lane % 7 {
                0 => 40_000, // beyond one lap
                1..=3 => 1,
                _ => 16,
            };
            s.schedule_after(SimDuration::from_slots(slots), lane.wrapping_add(1));
        }
    }
}

fn run_engine(strategy: QueueStrategy, events: u64) -> (f64, u64) {
    let mut engine: Engine<u32> = Engine::with_strategy(strategy);
    for lane in 0..64u32 {
        engine.scheduler().schedule_at(
            SimTime::ZERO + SimDuration::from_slots(u64::from(lane)),
            lane,
        );
    }
    let mut world = ChainWorld {
        handled: 0,
        budget: events,
    };
    let start = Instant::now();
    engine.run_until(SimTime::from_secs(u64::MAX / 2_000_000), &mut world);
    (start.elapsed().as_secs_f64(), world.handled)
}

fn bench_engine(events: u64) -> EngineBench {
    let (heap_s, heap_n) = run_engine(QueueStrategy::BinaryHeap, events);
    let (wheel_s, wheel_n) = run_engine(QueueStrategy::Wheel, events);
    assert_eq!(heap_n, wheel_n, "strategies must process the same events");
    let heap_rate = heap_n as f64 / heap_s;
    let wheel_rate = wheel_n as f64 / wheel_s;
    EngineBench {
        events: wheel_n,
        heap_events_per_s: heap_rate,
        wheel_events_per_s: wheel_rate,
        speedup: wheel_rate / heap_rate,
    }
}

fn bench_campaign(seeds: &[u64], hours: u64) -> CampaignBench {
    // Per-seed cost of the exact loss calibration every campaign pays,
    // averaged over enough calls to rise above timer resolution.
    const CALIBRATIONS: u32 = 200;
    let mut rng = SimRng::seed_from(seeds[0]);
    let start = Instant::now();
    for _ in 0..CALIBRATIONS {
        black_box(LossModel::calibrate(black_box(1.68e-6), &mut rng));
    }
    let cold_calibration_s = start.elapsed().as_secs_f64() / f64::from(CALIBRATIONS);

    let policies = [
        RecoveryPolicy::RebootOnly,
        RecoveryPolicy::Siras,
        RecoveryPolicy::SirasAndMasking,
    ];
    let duration = SimDuration::from_secs(hours * 3600);
    let start = Instant::now();
    for policy in policies {
        for &seed in seeds {
            let cfg = CampaignConfig::paper(seed, WorkloadKind::Random, policy).duration(duration);
            black_box(Campaign::new(cfg).run());
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total = (seeds.len() * policies.len()) as f64;
    CampaignBench {
        seeds_per_policy: seeds.len(),
        policies: policies.len(),
        simulated_hours: hours as f64,
        cold_calibration_s,
        seeds_per_s: total / elapsed,
    }
}

/// Multi-piconet campaign throughput: the 3-piconet scatternet with a
/// bridge, rated in piconet-seeds/s (piconets x seeds over wall time)
/// so the row is comparable to the single-piconet seeds/s above.
fn bench_topology(seeds: &[u64], hours: u64) -> TopologyBench {
    let topo = btpan_core::topology::Topology::scatternet();
    let piconets = topo.piconets.len();
    let duration = SimDuration::from_secs(hours * 3600);
    let start = Instant::now();
    for &seed in seeds {
        let cfg = CampaignConfig::with_topology(seed, topo.clone(), RecoveryPolicy::Siras)
            .duration(duration);
        let result = Campaign::new(cfg).run();
        assert_eq!(result.piconets.len(), piconets, "scatternet ran short");
        black_box(result.failure_count);
    }
    let elapsed = start.elapsed().as_secs_f64();
    TopologyBench {
        piconets,
        seeds: seeds.len(),
        simulated_hours: hours as f64,
        piconet_seeds_per_s: (piconets * seeds.len()) as f64 / elapsed,
    }
}

fn bench_collect(seeds: &[u64], hours: u64) -> (CollectBench, bool) {
    // A real campaign trace, so the record mix matches production.
    let cfg = CampaignConfig::paper(seeds[0], WorkloadKind::Random, RecoveryPolicy::Siras)
        .duration(SimDuration::from_secs(hours * 3600));
    let result = Campaign::new(cfg).run();
    let mut trace = export_trace(&result.repository);
    // Replicate to a meaningful volume.
    while trace.len() < 4 << 20 {
        let copy = trace.clone();
        trace.push_str(&copy);
    }
    let records = trace.lines().filter(|l| !l.trim().is_empty()).count();

    let start = Instant::now();
    let imported = import_trace(&trace).expect("trace is valid");
    let import_s = start.elapsed().as_secs_f64();
    assert_eq!(imported.len(), records);

    let base = import_trace(&export_trace(&result.repository)).expect("valid");
    let rebuilt = repository_from_records(&base);
    let reexport_ok = export_trace(&rebuilt) == export_trace(&result.repository);

    let start = Instant::now();
    let reexported = export_trace(&repository_from_records(&imported));
    let export_s = start.elapsed().as_secs_f64();
    black_box(reexported.len());

    // Tail path: chunked framing + per-line parse, as `btpan stream`
    // consumes a growing trace.
    let start = Instant::now();
    let mut framer = LineFramer::new();
    let mut parsed = 0usize;
    for chunk in trace.as_bytes().chunks(64 << 10) {
        let chunk = std::str::from_utf8(chunk).expect("ascii trace");
        framer.push_lines(chunk, |line| {
            if !line.trim().is_empty() {
                let rec: btpan_collect::entry::LogRecord =
                    serde_json::from_str(line).expect("valid line");
                black_box(rec.seq);
                parsed += 1;
            }
        });
    }
    if let Some(last) = framer.finish() {
        let _: btpan_collect::entry::LogRecord = serde_json::from_str(&last).expect("valid tail");
        parsed += 1;
    }
    let tail_s = start.elapsed().as_secs_f64();
    assert_eq!(parsed, records);

    (
        CollectBench {
            records,
            export_records_per_s: records as f64 / export_s,
            import_records_per_s: records as f64 / import_s,
            tail_records_per_s: records as f64 / tail_s,
        },
        reexport_ok,
    )
}

/// Bit-identity of the idle fast path for channels whose idle evolution
/// is RNG-free (memoryless) or dwell-boundary-only (interferer):
/// interleave transfers and idle spans on both arms and require equal
/// outcomes *and* an equal downstream RNG stream.
fn check_idle_bit_identity<C: ChannelModel + Clone>(channel: C) -> bool {
    let spans = [1u64, 7, 625, 99_991];
    let cfg = || LinkConfig::new(PacketType::Dh3).retry_limit(3);
    let hop = HopSequence::new(0xFEED);
    let mut fast = AclLink::new(cfg(), channel.clone(), hop);
    let mut refr = AclLink::new(cfg(), channel, hop);
    let mut rng_fast = SimRng::seed_from(77);
    let mut rng_ref = SimRng::seed_from(77);
    for &n in &spans {
        let a = fast.send_payloads(5, &mut rng_fast);
        let b = refr.send_payloads(5, &mut rng_ref);
        if a != b {
            return false;
        }
        fast.idle_slots(n, &mut rng_fast);
        refr.idle_slots_reference(n, &mut rng_ref);
    }
    fast.slot_cursor() == refr.slot_cursor() && rng_fast.uniform01() == rng_ref.uniform01()
}

/// Event-order identity between wheel and heap on a mixed schedule.
fn check_wheel_heap_identity() -> bool {
    struct Recorder(Vec<(u64, u32)>);
    impl EventHandler<u32> for Recorder {
        fn handle(&mut self, now: SimTime, ev: u32, s: &mut Scheduler<u32>) {
            self.0.push((now.as_micros(), ev));
            if ev.is_multiple_of(5) && ev < 400 {
                s.schedule_after(
                    SimDuration::from_slots(u64::from(ev % 17) * 613 + 1),
                    ev + 1,
                );
            }
        }
    }
    let run = |strategy| {
        let mut engine: Engine<u32> = Engine::with_strategy(strategy);
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for ev in 0..500u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let micros = match ev % 4 {
                0 => state % 625,                       // same-bucket collisions
                1 => 625 * (state % 4096),              // within one lap
                2 => 625 * 4096 + state % 10_000_000,   // next laps
                _ => 3_600_000_000 + state % 1_000_000, // far future
            };
            engine
                .scheduler()
                .schedule_at(SimTime::from_micros(micros), ev);
        }
        let mut world = Recorder(Vec::new());
        engine.run_until(SimTime::from_secs(100_000), &mut world);
        world.0
    };
    run(QueueStrategy::Wheel) == run(QueueStrategy::BinaryHeap)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let _ = Scale::quick(); // keep the experiment-scale types linked
    btpan_obs::Registry::global().disable();

    let (spans, quiet, events, seeds, camp_hours, collect_hours): (
        u64,
        u64,
        u64,
        Vec<u64>,
        u64,
        u64,
    ) = if quick {
        (40, 100_000, 300_000, vec![11, 22], 1, 1)
    } else {
        (200, 250_000, 3_000_000, vec![11, 22, 33, 44], 4, 4)
    };

    eprintln!("repro_bench: idle-slot fast path ({spans} Table-4 duty cycles)...");
    let idle = bench_idle(spans, quiet);
    eprintln!(
        "  reference {:.2e} slots/s, fast {:.2e} slots/s, speedup {:.1}x",
        idle.ref_slots_per_s, idle.fast_slots_per_s, idle.speedup
    );

    eprintln!("repro_bench: event-wheel scheduler ({events} chained events)...");
    let engine = bench_engine(events);
    eprintln!(
        "  heap {:.2e} ev/s, wheel {:.2e} ev/s, speedup {:.2}x",
        engine.heap_events_per_s, engine.wheel_events_per_s, engine.speedup
    );

    eprintln!(
        "repro_bench: campaign columns ({} seeds x 3 policies, {camp_hours} h)...",
        seeds.len()
    );
    let campaign = bench_campaign(&seeds, camp_hours);
    eprintln!(
        "  exact loss calibration {:.1} µs per seed, {:.2} seeds/s",
        campaign.cold_calibration_s * 1e6,
        campaign.seeds_per_s
    );

    eprintln!(
        "repro_bench: multi-piconet campaign ({} scatternet seeds, {camp_hours} h)...",
        seeds.len()
    );
    let topology = bench_topology(&seeds, camp_hours);
    eprintln!(
        "  {} piconets x {} seeds: {:.2} piconet-seeds/s",
        topology.piconets, topology.seeds, topology.piconet_seeds_per_s
    );

    eprintln!("repro_bench: collect/stream record paths...");
    let (collect, reexport_ok) = bench_collect(&seeds, collect_hours);
    eprintln!(
        "  export {:.2e} rec/s, import {:.2e} rec/s, tail {:.2e} rec/s over {} records",
        collect.export_records_per_s,
        collect.import_records_per_s,
        collect.tail_records_per_s,
        collect.records
    );

    eprintln!("repro_bench: equivalence checks...");
    let equivalence = Equivalence {
        idle_memoryless_bit_identical: check_idle_bit_identity(MemorylessChannel::new(2e-5)),
        idle_interferer_bit_identical: check_idle_bit_identity(Interferer::wifi(39)),
        wheel_heap_identical_order: check_wheel_heap_identity(),
        reexport_byte_identical: reexport_ok,
    };

    let mut failed = false;
    for (name, ok) in [
        (
            "idle_memoryless_bit_identical",
            equivalence.idle_memoryless_bit_identical,
        ),
        (
            "idle_interferer_bit_identical",
            equivalence.idle_interferer_bit_identical,
        ),
        (
            "wheel_heap_identical_order",
            equivalence.wheel_heap_identical_order,
        ),
        (
            "reexport_byte_identical",
            equivalence.reexport_byte_identical,
        ),
    ] {
        if !ok {
            eprintln!("FAIL: equivalence check {name}");
            failed = true;
        }
    }

    if quick {
        if idle.speedup < FLOOR_IDLE_SPEEDUP {
            eprintln!(
                "FAIL: idle fast path speedup {:.2}x below the {FLOOR_IDLE_SPEEDUP}x floor",
                idle.speedup
            );
            failed = true;
        }
        if idle.fast_slots_per_s < FLOOR_IDLE_SLOTS_PER_S {
            eprintln!(
                "FAIL: fast idle path {:.2e} slots/s below the {FLOOR_IDLE_SLOTS_PER_S:.0e} floor",
                idle.fast_slots_per_s
            );
            failed = true;
        }
    }

    let report = Report {
        mode: if quick { "quick" } else { "full" },
        idle,
        engine,
        campaign,
        topology,
        collect,
        equivalence,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_PR4.json", format!("{json}\n")).expect("write BENCH_PR4.json");
    println!("{json}");

    if failed {
        std::process::exit(1);
    }
    println!("repro_bench: ok");
}
