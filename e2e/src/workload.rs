//! The workloads, and one run of one of them: set-up, timed phases,
//! verification, refresh cycles, metrics.

use crate::fixture::{self, Group, Profile};
use crate::ingest::{self, Cycle};
use crate::layers::{self, Parts};
use crate::load::{self, Harness, Outcome, Pools, TENANTS};
use crate::stats::{self, PerBlock};
use crate::trace::{self, GroupTraffic, Req};
use crate::traced::Span;
use crate::verify::{self, Verifier, Version};
use crate::{machine, Options, Report};
use asqp_core::AnswerabilityEstimator;
use asqp_db::Query;
use asqp_serve::ServedSource;
use asqp_telemetry::{self as telemetry, MemoryRecorder, TelemetryReport};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rounds of an untraced run. A round is the whole benchmark once, on its
/// share of the seconds: set-up, timed phases, verification, refresh cycles.
/// The machine this runs on changes speed by a quarter for seconds at a
/// time, so one stretch of timed phases may never see it at full speed;
/// three stretches, a set-up apart, mostly do. `over_rounds` makes a run's
/// metrics of its rounds'.
const ROUNDS: usize = 3;
/// Idle ingest cycles a round without a writer ends with.
const REFRESH_CYCLES: usize = 3;
/// `peak_rss_mb` is the high-water mark as it stood after this many ingest
/// cycles of a round (after the last, where there were fewer). The writer
/// keeps a snapshot of the data per cycle for the verification pass, so a
/// faster machine, which completes more cycles, would otherwise report
/// more memory.
const RSS_MARK_CYCLE: usize = 8;
/// The generator may run this late (p90 of its best span) before the run
/// is invalid. The guard asks whether the generator keeps up, so it reads
/// p90: with more runnable threads than cores a ready generator now and then
/// waits a scheduler slice or a hypervisor pause, which is what p99 of a
/// 60-request block shows. p99 is reported as `serve.gen_late_us_p99`.
const MAX_LATE_US: f64 = 2_000.0;
/// Share of a request's latency, or of the build time, that may stay
/// unattributed in the traced run.
const MAX_RESIDUAL: f64 = 0.10;
/// `mt_sim`'s hard-coded service costs.
const SIM_SUBSET_US: f64 = 15.0;
const SIM_FULL_US: f64 = 60.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    Hit,
    Miss,
}

pub struct Workload {
    pub name: &'static str,
    pool: Pool,
    /// COW groups that receive traffic.
    groups: &'static [u8],
    /// Requests per group in one block.
    per_group: usize,
    /// Open-loop reference rate: a third to a quarter of what one worker
    /// sustains, so that latency is service time more than queueing.
    open_qps: f64,
    /// Share of the timed seconds the open loop gets (the closed loop gets
    /// the rest): more where requests are slow and samples scarce.
    open_share: f64,
    /// Rates above the reference that the traced run also tries.
    ladder_qps: [f64; 2],
    /// The tail percentile: the highest with at least ten samples beyond
    /// it in a span where requests are cheap, p90 where they are slow.
    tail: f64,
    /// Blocks per span. The tail and the closed-loop rate are taken over
    /// every span of consecutive blocks: 1200 requests where requests are
    /// cheap; one block of 60 where they are slow, whose p90 is the 54th of
    /// the same 60 service times every time.
    span_blocks: usize,
    /// Limit on that percentile for a rate to count as sustained.
    tail_limit_ms: f64,
    /// Closed-loop clients: one per core, or one.
    client_per_core: bool,
    /// A request takes about as long as waking a thread. The hypervisor
    /// has a fast wake-up mode that comes and goes for seconds at a time
    /// and takes 0.1 ms off every such request, so the best round would
    /// report the mode and not the program; see `over_rounds`.
    short_requests: bool,
    /// A writer thread ingests beside the reads.
    writer: bool,
    /// The band `core.subset_share` must stay in for the workload to be
    /// the one it claims to be.
    subset_band: (f64, f64),
}

/// Why each exists is in `BENCHMARK.json` and README.md.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "explore_hit",
        pool: Pool::Hit,
        groups: &[0, 1, 2],
        per_group: 100,
        open_qps: 1000.0,
        open_share: 0.6,
        ladder_qps: [2000.0, 4000.0],
        tail: 0.99,
        span_blocks: 4,
        tail_limit_ms: 25.0,
        client_per_core: true,
        short_requests: true,
        writer: false,
        subset_band: (0.85, 1.0),
    },
    Workload {
        name: "explore_miss",
        pool: Pool::Miss,
        groups: &[0, 1, 2],
        per_group: 20,
        open_qps: 20.0,
        open_share: 0.7,
        ladder_qps: [40.0, 60.0],
        tail: 0.90,
        span_blocks: 1,
        tail_limit_ms: 150.0,
        client_per_core: true,
        short_requests: false,
        writer: false,
        subset_band: (0.0, 0.35),
    },
    Workload {
        name: "ingest_refresh",
        pool: Pool::Hit,
        groups: &[0],
        per_group: 300,
        open_qps: 1000.0,
        open_share: 0.6,
        ladder_qps: [2000.0, 4000.0],
        tail: 0.99,
        span_blocks: 4,
        tail_limit_ms: 25.0,
        client_per_core: false,
        short_requests: true,
        writer: true,
        subset_band: (0.85, 1.0),
    },
];

fn pools_of(groups: &[Group], pool: Pool) -> Pools<'_> {
    groups
        .iter()
        .map(|g| match pool {
            Pool::Hit => g.hit.as_slice(),
            Pool::Miss => g.miss.as_slice(),
        })
        .collect()
}

/// One open-loop phase at one rate.
struct OpenPhase {
    qps: f64,
    trace: Vec<Req>,
    outcomes: Vec<Outcome>,
    /// Per shard, when the phase was traced.
    spans: Vec<Vec<Span>>,
}

impl OpenPhase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(Outcome::latency_ms).collect()
    }

    /// How late the generator sent: percentile `p` per `width` requests.
    fn late_us(&self, width: usize, p: f64) -> PerBlock {
        let late: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| (o.submit_ns - o.due_ns) as f64 / 1e3)
            .collect();
        stats::per_block_percentile(&late, width.min(late.len()), 1, p)
    }

    fn refused_or_failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.served.is_none()).count()
    }

    /// Last completion after the last due time.
    fn drain_s(&self) -> f64 {
        let last_due = self.outcomes.iter().map(|o| o.due_ns).max().unwrap_or(0);
        let last_done = self.outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0);
        last_done.saturating_sub(last_due) as f64 / 1e9
    }
}

struct ClosedPhase {
    start_ns: u64,
    trace: Vec<Req>,
    outcomes: Vec<Outcome>,
}

impl ClosedPhase {
    /// Completions per second, per span of blocks of completions; the
    /// whole phase as one block when it completed less than one span.
    fn rate(&self, block: usize, span: usize) -> PerBlock {
        let done: Vec<u64> = self.outcomes.iter().map(|o| o.done_ns).collect();
        let per_span = stats::per_block_rate(&done, block, span, self.start_ns);
        if per_span.values.is_empty() {
            stats::per_block_rate(&done, done.len().max(1), 1, self.start_ns)
        } else {
            per_span
        }
    }
}

/// Everything the timed phases of one run produced.
struct Phases {
    open: OpenPhase,
    closed: ClosedPhase,
    /// Traced run only: a closed-loop phase with spans and recorder off,
    /// run just before the traced one.
    closed_plain: Option<ClosedPhase>,
    ladder: Vec<OpenPhase>,
    /// The writer's ingest cycles, where the workload has one.
    cycles: Vec<Cycle>,
}

struct Context<'a> {
    w: &'a Workload,
    o: &'a Options,
    /// Length of this round's timed phases.
    secs: f64,
    /// First of the trace streams this round draws; rounds do not share any.
    stream: u64,
    harness: &'a Harness,
    pools: &'a Pools<'a>,
    traffic: &'a [GroupTraffic],
    recorder: Option<&'a Arc<MemoryRecorder>>,
}

impl Context<'_> {
    fn block(&self) -> usize {
        trace::block_len(self.traffic)
    }

    fn open(&self, stream: u64, qps: f64, secs: f64) -> OpenPhase {
        let stream = self.stream + stream;
        let blocks = ((secs * qps) as usize / self.block()).max(self.w.span_blocks);
        let trace = trace::blocks(self.traffic, self.o.seed, stream, blocks);
        let due = trace::paced_due_ns(self.o.seed, stream, qps, trace.len());
        self.harness.sink.drain();
        let outcomes = load::open_loop(self.harness, &trace, &due, self.pools);
        OpenPhase {
            qps,
            trace,
            outcomes,
            spans: self.harness.sink.drain(),
        }
    }

    fn closed(&self, stream: u64, secs: f64) -> ClosedPhase {
        // More than any phase completes; the clients wrap around anyway.
        let blocks = ((secs * 30_000.0) as usize / self.block()).clamp(2, 400);
        let trace = trace::blocks(self.traffic, self.o.seed, self.stream + stream, blocks);
        let clients = if self.w.client_per_core {
            load::nproc()
        } else {
            1
        };
        let (start_ns, outcomes) =
            load::closed_loop(self.harness, &trace, self.pools, clients, secs);
        ClosedPhase {
            start_ns,
            trace,
            outcomes,
        }
    }

    fn set_tracing(&self, on: bool) {
        self.harness.sink.set_enabled(on);
        match (on, self.recorder) {
            (true, Some(r)) => telemetry::install(Arc::clone(r) as Arc<dyn telemetry::Recorder>),
            _ => telemetry::uninstall(),
        }
    }

    /// The timed phases. Untraced: open loop at the reference rate, then
    /// closed loop. Traced: the same two shorter, a plain closed loop
    /// between them to price the tracing, and the rate ladder.
    fn reads(&self) -> Phases {
        let secs = self.secs;
        if !self.o.trace {
            let share = self.w.open_share;
            return Phases {
                open: self.open(1, self.w.open_qps, share * secs),
                closed: self.closed(2, (1.0 - share) * secs),
                closed_plain: None,
                ladder: Vec::new(),
                cycles: Vec::new(),
            };
        }
        self.set_tracing(true);
        let open = self.open(1, self.w.open_qps, 0.4 * secs);
        self.set_tracing(false);
        let plain = self.closed(2, 0.15 * secs);
        self.set_tracing(true);
        let closed = self.closed(2, 0.15 * secs);
        let ladder = (self.w.ladder_qps.iter().zip(3..))
            .map(|(&qps, stream)| self.open(stream, qps, 0.15 * secs))
            .collect();
        self.set_tracing(false);
        Phases {
            open,
            closed,
            closed_plain: Some(plain),
            ladder,
            cycles: Vec::new(),
        }
    }
}

/// Timings of the direct calls the traced run makes beside `Session::new`
/// to split it into its two steps. Each runs on a fresh clone of the
/// database, whose memoised counts are empty as they were for `Session::new`.
#[derive(Default)]
struct SessionSteps {
    materialize_s: f64,
    fit_s: f64,
}

fn session_steps(groups: &[Group]) -> SessionSteps {
    let mut steps = SessionSteps::default();
    for g in groups {
        let model = g.base.state().model.clone();
        let cold = (*g.db).clone();
        let t0 = Instant::now();
        let subset = model.materialize(&cold, None).expect("materialise");
        steps.materialize_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        AnswerabilityEstimator::fit(&model, &cold, &subset, model.config.metric_params())
            .expect("fit");
        steps.fit_s += t0.elapsed().as_secs_f64();
    }
    steps
}

fn embed_us_p50(groups: &[Group], pools: &Pools, distinct: &[(u8, u16)]) -> f64 {
    let us: Vec<f64> = distinct
        .iter()
        .map(|&(g, q)| {
            let query: &Query = &pools[g as usize][q as usize];
            let state = groups[g as usize].base.state();
            let t0 = Instant::now();
            std::hint::black_box(state.model.embedder.embed_query(&query.strip_aggregates()));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us)
}

/// The values a round chose its best block from.
fn show_blocks(name: &str, b: &PerBlock) {
    let values: Vec<String> = b
        .values
        .iter()
        .take(12)
        .map(|v| format!("{v:.4}"))
        .collect();
    println!(
        "    {name}: best of {} x {} samples [{}{}]",
        b.values.len(),
        b.samples_per_block,
        values.join(" "),
        if b.values.len() > 12 { " ..." } else { "" }
    );
}

fn write_spans(path: &std::path::Path, groups: &[Group], open: &OpenPhase) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for g in groups {
        for (step, secs) in [
            ("generate", g.times.generate_s),
            ("train", g.times.train_s),
            ("session_new", g.times.session_s),
        ] {
            writeln!(
                out,
                "{{\"name\": \"setup.{}.{step}\", \"duration_ns\": {}}}",
                g.name,
                (secs * 1e9) as u64
            )?;
        }
    }
    for (shard, spans) in open.spans.iter().enumerate() {
        let mut seq = 0usize;
        for s in spans {
            if s.call == crate::traced::Call::Plan {
                seq += 1;
            }
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"shard\": {shard}, \"request\": {}}}",
                s.call.name(),
                s.start_ns,
                s.end_ns,
                seq.saturating_sub(1)
            )?;
        }
    }
    for o in &open.outcomes {
        writeln!(
            out,
            "{{\"name\": \"request\", \"due_ns\": {}, \"submit_ns\": {}, \"done_ns\": {}, \"trace_index\": {}}}",
            o.due_ns, o.submit_ns, o.done_ns, o.idx
        )?;
    }
    out.flush()
}

/// What one round produced.
struct Round {
    /// The end-to-end metrics, or in the traced run the per-layer ones.
    metrics: BTreeMap<&'static str, f64>,
    /// Requests of the open and the closed loop, and ingest cycles.
    attempted: usize,
    /// Requests refused, failed or answered wrongly, and an ingest that
    /// did not settle.
    failed: usize,
    /// How late the generator ran in its best span (p90).
    late_us_p90: f64,
    invalid: Vec<String>,
}

/// A run's value of a metric from its rounds' values. Noise that only
/// ever slows the program is left out by taking the best round, as the best
/// block is taken inside a round. Where the noise goes both ways the
/// median of the rounds leaves out one odd round in either direction.
fn over_rounds(w: &Workload, name: &str, per_round: &[f64]) -> f64 {
    let lowest = || per_round.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = || per_round.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match name {
        "refresh_s" => lowest(),
        "open_p50_ms" if !w.short_requests => lowest(),
        "closed_qps" if !w.short_requests => highest(),
        // What the allocator kept from an earlier round is still resident
        // in a later one, and only ever adds.
        "peak_rss_mb" => lowest(),
        _ => stats::median(per_round),
    }
}

/// One run of one workload.
pub fn run(w: &Workload, o: &Options) -> Report {
    println!(
        "\n== {} ({}, seed {}, {} s) ==",
        w.name,
        if o.trace { "traced" } else { "untraced" },
        o.seed,
        o.seconds
    );
    let count = if o.trace || o.smoke { 1 } else { ROUNDS };
    let rounds: Vec<Round> = (0..count)
        .map(|i| round(w, o, i, o.seconds / count as f64))
        .collect();

    let mut invalid: Vec<String> = rounds.iter().flat_map(|r| r.invalid.clone()).collect();
    // Like the latencies, judged on the best span: a stall of the whole
    // machine is not the generator failing to keep up. Lateness is part of
    // the latency (measured from the due time), so it never flatters it.
    let late_us_p90 = rounds
        .iter()
        .map(|r| r.late_us_p90)
        .fold(f64::INFINITY, f64::min);
    // Not in a smoke run: its one span is a dozen requests, and the unit
    // tests beside it keep every core busy.
    if !o.smoke && late_us_p90 > MAX_LATE_US {
        invalid.push(format!(
            "the load generator ran {late_us_p90:.0} us late (p90), limit {MAX_LATE_US} us"
        ));
    }

    let names = if o.trace {
        crate::PER_LAYER
    } else {
        crate::END_TO_END
    };
    let mut m = BTreeMap::new();
    for &(name, unit) in names {
        let per_round: Vec<f64> = rounds.iter().map(|r| r.metrics[name]).collect();
        let mut value = over_rounds(w, name, &per_round);
        if !value.is_finite() {
            invalid.push(format!("{name} is not a finite number"));
            value = 0.0;
        }
        m.insert(name, value);
        if count > 1 {
            let shown: Vec<String> = per_round.iter().map(|v| format!("{v:.5}")).collect();
            println!(
                "  {name:28} {value:<14.5} {unit:6} rounds [{}]",
                shown.join(" ")
            );
        } else {
            println!("  {name:28} {value:<14.5} {unit}");
        }
    }
    for reason in &invalid {
        println!("  INVALID: {reason}");
    }
    Report {
        workload: w.name,
        trace: o.trace,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        invalid,
        metrics: m,
    }
}

/// Round `index` of a run: set-up, `secs` seconds of timed phases,
/// verification, refresh cycles.
fn round(w: &Workload, o: &Options, index: usize, secs: f64) -> Round {
    let profile = if o.smoke {
        Profile::SMOKE
    } else {
        Profile::BENCH
    };
    let epoch = Instant::now();
    let recorder = o.trace.then(|| Arc::new(MemoryRecorder::new()));
    if let Some(r) = &recorder {
        telemetry::install(Arc::clone(r) as Arc<dyn telemetry::Recorder>);
    }

    // --- Set-up: generate, train, materialise, start, warm -----------------
    let t0 = Instant::now();
    let groups = fixture::build(profile);
    let harness = Harness::start(&groups, epoch);
    harness.warm(&pools_of(&groups, w.pool), w.groups);
    let setup_s = t0.elapsed().as_secs_f64();
    let pools = pools_of(&groups, w.pool);
    let offline: Option<(TelemetryReport, SessionSteps)> = recorder.as_ref().map(|r| {
        let report = r.report();
        let steps = session_steps(&groups);
        telemetry::uninstall();
        r.reset();
        (report, steps)
    });
    let score_eq1 = fixture::score_eq1(&groups);
    let rss_was_reset = machine::reset_peak_rss();

    // --- The trace and the first version of every group's data -------------
    let shrink = if o.smoke { 20 } else { 1 };
    let traffic: Vec<GroupTraffic> = w
        .groups
        .iter()
        .map(|&g| GroupTraffic {
            group: g,
            pool_len: pools[g as usize].len(),
            tenants: (0..TENANTS)
                .filter(|t| t % groups.len() as u64 == g as u64)
                .collect(),
            per_block: (w.per_group / shrink).max(4),
        })
        .collect();
    let block = trace::block_len(&traffic);
    let distinct: Vec<(u8, u16)> = verify::distinct(&trace::block(&traffic, 0, 0, 0))
        .into_iter()
        .collect();
    let queries_of = |g: usize| -> Vec<u16> {
        (distinct.iter().filter(|(dg, _)| *dg as usize == g))
            .map(|(_, q)| *q)
            .collect()
    };
    let mut subset_exec_us = Vec::new();
    let mut versions: Vec<Vec<Version>> = groups
        .iter()
        .enumerate()
        .map(|(g, group)| {
            vec![Version {
                db: Arc::clone(&group.db),
                from_ns: 0,
                until_ns: u64::MAX,
                subset: verify::snapshot_subset(
                    &group.base,
                    pools[g],
                    &queries_of(g),
                    &mut subset_exec_us,
                ),
            }]
        })
        .collect();

    // --- Timed phases, the writer beside them where the workload has one ---
    let ctx = Context {
        w,
        o,
        secs,
        stream: 10 * index as u64,
        harness: &harness,
        pools: &pools,
        traffic: &traffic,
        recorder: recorder.as_ref(),
    };
    let phases = if w.writer {
        let stop = AtomicBool::new(false);
        let mut imdb_versions = std::mem::take(&mut versions[0]);
        let imdb_queries = queries_of(0);
        let (mut phases, cycles) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                ingest::writer(
                    &stop,
                    &harness.sink,
                    &groups[0],
                    pools[0],
                    &imdb_queries,
                    &mut imdb_versions,
                )
            });
            let reads = ctx.reads();
            stop.store(true, Ordering::SeqCst);
            (reads, writer.join().expect("writer panicked"))
        });
        versions[0] = imdb_versions;
        phases.cycles = cycles;
        phases
    } else {
        ctx.reads()
    };
    let serving = recorder.as_ref().map(|r| r.report());

    // --- Verification: every answer of the two measured phases -------------
    let mut invalid = Vec::new();
    let mut verifier = Verifier::new(&pools, &versions);
    let (mut attempted, mut failed) = (0usize, 0usize);
    let (mut refused, mut wrong) = (0usize, 0usize);
    let (mut recall_sum, mut subset_recall_sum, mut subset_n) = (0.0, 0.0, 0usize);
    for (trace, outcomes) in [
        (&phases.open.trace, &phases.open.outcomes),
        (&phases.closed.trace, &phases.closed.outcomes),
    ] {
        for o in outcomes {
            attempted += 1;
            let Some(served) = o.served else {
                refused += 1;
                failed += 1;
                continue;
            };
            let check = verifier.check(trace[o.idx % trace.len()], o);
            if !check.matches {
                wrong += 1;
                failed += 1;
                continue;
            }
            recall_sum += check.recall;
            if served.source != ServedSource::Full {
                subset_n += 1;
                subset_recall_sum += check.recall;
            }
        }
    }
    let resolved = attempted - failed;
    let subset_share = layers::ratio(subset_n as f64, resolved as f64);

    // --- Refresh: the writer's cycles, or a few idle ones -------------------
    let first_rows = ingest::table_rows(&groups[0].db);
    let (live, cycles) = if w.writer {
        let live = Arc::clone(&versions[0].last().expect("first version").db);
        (live, phases.cycles.clone())
    } else {
        let mut live = groups[0].base.full_db();
        let mut cycles = Vec::new();
        for i in 0..REFRESH_CYCLES {
            let (next, c) = ingest::cycle(&groups[0], &live, i);
            live = next;
            cycles.push(c);
        }
        (live, cycles)
    };
    attempted += cycles.len();
    if cycles.is_empty() || !ingest::settled(&groups[0], &live, first_rows, &cycles) {
        failed += 1;
        invalid.push("ingest did not settle on the live data".to_string());
    }
    let peak_rss_mb =
        (cycles.get(RSS_MARK_CYCLE - 1).or(cycles.last())).map_or(0.0, |c| c.peak_rss_mb);

    // --- Guards --------------------------------------------------------------
    let span = block * w.span_blocks;
    let late_us_p90 = phases.open.late_us(span, 0.90).lowest();
    let late_us_p99 = phases.open.late_us(span, 0.99).lowest();
    let (lo, hi) = w.subset_band;
    if !o.smoke && !(lo..=hi).contains(&subset_share) {
        invalid.push(format!(
            "subset_share {subset_share:.3} left the workload's band {lo}..{hi}"
        ));
    }

    // --- Metrics ---------------------------------------------------------------
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let lat = phases.open.latencies_ms();
    let p50 = stats::per_block_percentile(&lat, block, 1, 0.5);
    let tail = stats::per_block_percentile(&lat, block, w.span_blocks, w.tail);
    let p99 = stats::per_block_percentile(&lat, block, w.span_blocks, 0.99);
    let closed_rate = phases.closed.rate(block, w.span_blocks);
    let requests = attempted - cycles.len();
    let refresh: Vec<f64> = cycles.iter().map(Cycle::total_s).collect();

    println!(
        "  round {index}: {requests} requests, {refused} refused or failed, {wrong} wrong answers{}; open loop at {} q/s: generator late p90 {late_us_p90:.0} us, p99 {late_us_p99:.0} us (best span); subset_share {subset_share:.4}",
        if rss_was_reset {
            ""
        } else {
            " (peak RSS covers set-up too)"
        },
        w.open_qps
    );

    if !o.trace {
        m.insert("setup_s", setup_s);
        m.insert("open_p50_ms", p50.lowest());
        m.insert("closed_qps", closed_rate.highest());
        m.insert(
            "refresh_s",
            refresh.iter().copied().fold(f64::INFINITY, f64::min),
        );
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("answer_recall", layers::ratio(recall_sum, requests as f64));
        m.insert("score_eq1", score_eq1);
        show_blocks("open_p50_ms", &p50);
        show_blocks(&format!("open tail (p{})", w.tail * 100.0), &tail);
        show_blocks("closed_qps", &closed_rate);
        let cycles: Vec<String> = refresh.iter().take(12).map(|s| format!("{s:.3}")).collect();
        println!(
            "    refresh_s: best of {} cycles [{}]",
            refresh.len(),
            cycles.join(" ")
        );
    } else {
        let (offline, steps) = offline.expect("traced run records the set-up");
        let serving = serving.expect("traced run records the phases");
        let plain = phases.closed_plain.as_ref().expect("traced run");

        // Request decomposition, per shard, from the reference open phase.
        let mut parts: Vec<Parts> = Vec::new();
        for shard in 0..harness.shards {
            let sent: Vec<&Outcome> = (phases.open.outcomes.iter())
                .filter(|o| o.served.is_some())
                .filter(|o| harness.shard_of(phases.open.trace[o.idx].tenant) == shard)
                .collect();
            match layers::decompose(&sent, &phases.open.spans[shard]) {
                Some(p) => parts.extend(p),
                None => invalid.push(format!("shard {shard}: spans and requests do not pair")),
            }
        }
        let pick = |f: fn(&Parts) -> f64, keep: fn(&Parts) -> bool| -> Vec<f64> {
            stats::sorted(parts.iter().filter(|p| keep(p)).map(f).collect())
        };
        let pct = |v: &[f64], p: f64| {
            if v.is_empty() {
                0.0
            } else {
                stats::percentile(v, p)
            }
        };
        let all = |_: &Parts| true;
        let queue_wait = pick(|p| p.queue_wait, all);
        let answer_subset = pick(|p| p.answer, |p| p.subset);
        let answer_full = pick(|p| p.answer, |p| !p.subset);
        let latency_sum: f64 = parts.iter().map(|p| p.latency).sum();
        let residual = layers::ratio(parts.iter().map(|p| p.gaps).sum(), latency_sum);
        if residual > MAX_RESIDUAL {
            invalid.push(format!(
                "request residual {residual:.3} exceeds {MAX_RESIDUAL}"
            ));
        }
        let open_wall_ns = {
            let first = phases
                .open
                .outcomes
                .iter()
                .map(|o| o.due_ns)
                .min()
                .unwrap_or(0);
            let last = phases
                .open
                .outcomes
                .iter()
                .map(|o| o.done_ns)
                .max()
                .unwrap_or(0);
            (last - first).max(1) as f64
        };
        let busy_ns: f64 = (phases.open.spans.iter().flatten())
            .map(|s| s.ns() as f64)
            .sum();

        // The rate ladder: the reference rate and the two above it.
        let mut max_ok = 0.0;
        for phase in std::iter::once(&phases.open).chain(&phases.ladder) {
            let lat = stats::sorted(phase.latencies_ms());
            let tail_ms = stats::percentile(&lat, w.tail);
            let fail = layers::ratio(phase.refused_or_failed() as f64, lat.len() as f64);
            let ok = tail_ms <= w.tail_limit_ms && fail <= 0.01 && phase.drain_s() <= 1.0;
            println!(
                "  ladder {:>7} q/s: p{} {tail_ms:.3} ms, fail {fail:.4}, drain {:.3} s, late p99 {:.0} us -> {}",
                phase.qps,
                w.tail * 100.0,
                phase.drain_s(),
                phase.late_us(usize::MAX, 0.99).lowest(),
                if ok { "ok" } else { "not sustained" }
            );
            if ok && phase.qps > max_ok {
                max_ok = phase.qps;
            }
        }

        let stats_now = harness.server.stats();
        m.insert("serve.queue_wait_us_p50", pct(&queue_wait, 0.5));
        m.insert("serve.queue_wait_us_p99", pct(&queue_wait, 0.99));
        m.insert(
            "serve.overhead_us_p50",
            pct(&pick(Parts::overhead, all), 0.5),
        );
        m.insert("serve.reply_us_p50", pct(&pick(|p| p.reply, all), 0.5));
        m.insert(
            "serve.worker_busy_share",
            busy_ns / (open_wall_ns * harness.shards as f64),
        );
        m.insert("serve.rejected", stats_now.rejected as f64);
        m.insert("serve.fatal", stats_now.fatal as f64);
        m.insert(
            "serve.shared_scan_hits",
            harness.server.shared_scan_hits() as f64,
        );
        m.insert("serve.gen_late_us_p99", late_us_p99);
        m.insert(
            "serve.fail_share",
            layers::ratio((refused + wrong) as f64, (attempted - cycles.len()) as f64),
        );
        m.insert("serve.max_ok_rate_qps", max_ok);
        m.insert("serve.open_tail_ms", tail.lowest());
        m.insert("serve.open_p99_ms", p99.lowest());
        m.insert(
            "serve.sim_subset_cost_ratio",
            pct(&pick(Parts::service, |p| p.subset), 0.5) / SIM_SUBSET_US,
        );
        m.insert(
            "serve.sim_full_cost_ratio",
            pct(&pick(Parts::service, |p| !p.subset), 0.5) / SIM_FULL_US,
        );
        m.insert("serve.request_residual_share", residual);
        m.insert("core.subset_share", subset_share);
        m.insert(
            "core.subset_recall",
            layers::ratio(subset_recall_sum, subset_n as f64),
        );
        m.insert("core.route_us_p50", pct(&pick(|p| p.route, all), 0.5));
        m.insert("core.answer_subset_us_p50", pct(&answer_subset, 0.5));
        m.insert("core.answer_subset_us_p99", pct(&answer_subset, 0.99));
        m.insert("core.answer_full_us_p50", pct(&answer_full, 0.5));
        m.insert("core.answer_full_us_p99", pct(&answer_full, 0.99));
        m.insert("core.finish_us_p50", pct(&pick(|p| p.finish, all), 0.5));

        // The estimator against realised fractions, on each group's
        // latest version.
        let (mut precision, mut recall) = (Vec::new(), Vec::new());
        for &g in w.groups {
            let v = versions[g as usize].len() - 1;
            let qs = queries_of(g as usize);
            let queries: Vec<Query> = qs
                .iter()
                .map(|&q| pools[g as usize][q as usize].clone())
                .collect();
            let fractions: Vec<f64> = qs
                .iter()
                .map(|&q| {
                    let rows = versions[g as usize][v].subset[&q].rows;
                    verifier.fraction(g, q, v, rows)
                })
                .collect();
            let state = groups[g as usize].base.state();
            let (p, r) = state.estimator.precision_recall(&queries, &fractions);
            precision.push(p);
            recall.push(r);
        }
        m.insert("core.estimator_precision", stats::mean(&precision));
        m.insert("core.estimator_recall", stats::mean(&recall));
        m.insert(
            "embed.embed_query_us_p50",
            embed_us_p50(&groups, &pools, &distinct),
        );
        m.insert("db.exec_subset_us_mean", stats::mean(&subset_exec_us));
        m.insert("db.exec_full_us_mean", stats::mean(&verifier.full_exec_us));

        // What the program's own telemetry saw during the traced phases.
        for (name, span) in [
            ("db.optimize_us_mean", "db.optimize"),
            ("db.scan_us_mean", "db.exec.scan"),
            ("db.join_us_mean", "db.exec.join"),
            ("db.project_us_mean", "db.exec.project"),
        ] {
            m.insert(name, layers::span_mean_us(&serving, span));
        }
        let count = |name: &str| layers::counter(&serving, name);
        let (hit, miss) = (count("db.plan_cache.hit"), count("db.plan_cache.miss"));
        m.insert("db.plan_cache_hit_share", layers::ratio(hit, hit + miss));
        m.insert(
            "db.rows_scanned_per_row_out",
            layers::ratio(count("db.scan.rows_in"), count("db.rows_out")),
        );
        m.insert(
            "db.zonemap_tables_pruned",
            count("db.zonemap.tables_pruned"),
        );
        m.insert(
            "db.result_rows_mean",
            layers::ratio(
                count("db.rows_out"),
                layers::span_total(&serving, "db.execute").0 as f64,
            ),
        );

        // Writes.
        let cycle_mean =
            |f: fn(&Cycle) -> f64| stats::mean(&cycles.iter().map(f).collect::<Vec<_>>());
        m.insert("db.clone_s", cycle_mean(|c| c.clone_s));
        m.insert(
            "db.append_rows_per_s",
            layers::ratio(
                cycles.iter().map(|c| c.rows as f64).sum(),
                cycles.iter().map(|c| c.append_s).sum(),
            ),
        );
        m.insert("core.observe_data_s", cycle_mean(|c| c.observe_s));

        // The offline pipeline, summed over the three datasets.
        let sum = |f: fn(&Group) -> f64| groups.iter().map(f).sum::<f64>();
        let build_s = sum(|g| g.times.train_s + g.times.session_s);
        let preprocess_s = layers::span_total(&offline, "train.preprocess").1;
        let collect_s = layers::span_total(&offline, "rl.collect").1;
        let update_s = layers::span_total(&offline, "rl.update").1;
        let env_steps = sum(|g| g.env_steps as f64);
        let attributed = preprocess_s + collect_s + update_s + steps.materialize_s + steps.fit_s;
        let build_residual = (build_s - attributed).abs() / build_s;
        if build_residual > MAX_RESIDUAL {
            invalid.push(format!(
                "build residual {build_residual:.3} exceeds {MAX_RESIDUAL}"
            ));
        }
        m.insert("core.materialize_s", steps.materialize_s);
        m.insert("core.estimator_fit_s", steps.fit_s);
        m.insert("data.generate_s", sum(|g| g.times.generate_s));
        m.insert("core.build_s", build_s);
        m.insert("core.preprocess_s", preprocess_s);
        m.insert("core.action_space_size", sum(|g| g.actions as f64));
        m.insert(
            "core.reps_kept",
            layers::counter(&offline, "preprocess.reps_kept"),
        );
        m.insert("core.iterations_run", sum(|g| g.iterations_run as f64));
        m.insert("core.build_residual_share", build_residual);
        m.insert("rl.collect_s", collect_s);
        m.insert("rl.update_s", update_s);
        m.insert("rl.env_steps", env_steps);
        m.insert("rl.steps_per_s", layers::ratio(env_steps, collect_s));
        m.insert(
            "nn.forward_s",
            layers::histogram_sum_s(&offline, "nn.forward_ns"),
        );
        m.insert(
            "nn.backward_s",
            layers::histogram_sum_s(&offline, "nn.backward_ns"),
        );
        m.insert(
            "telemetry.overhead_share",
            1.0 - layers::ratio(
                closed_rate.highest(),
                plain.rate(block, w.span_blocks).highest(),
            ),
        );
        if let Some(path) = &o.trace_out {
            match write_spans(path, &groups, &phases.open) {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => invalid.push(format!("writing {}: {e}", path.display())),
            }
        }
    }

    Round {
        metrics: m,
        attempted,
        failed,
        late_us_p90,
        invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_combine_by_the_direction_of_their_noise() {
        let rounds = [3.0, 1.0, 2.0];
        let [hit, miss, ingest] = WORKLOADS else {
            panic!("three workloads");
        };
        for w in [hit, miss, ingest] {
            for best in ["refresh_s", "peak_rss_mb"] {
                assert_eq!(over_rounds(w, best, &rounds), 1.0);
            }
            for median in ["setup_s", "answer_recall", "score_eq1"] {
                assert_eq!(over_rounds(w, median, &rounds), 2.0);
            }
        }
        // Long requests: the best round. Short ones: the median.
        assert_eq!(over_rounds(miss, "open_p50_ms", &rounds), 1.0);
        assert_eq!(over_rounds(miss, "closed_qps", &rounds), 3.0);
        for w in [hit, ingest] {
            assert_eq!(over_rounds(w, "open_p50_ms", &rounds), 2.0);
            assert_eq!(over_rounds(w, "closed_qps", &rounds), 2.0);
        }
        // The traced run is one round.
        assert_eq!(over_rounds(hit, "serve.queue_wait_us_p50", &[7.0]), 7.0);
    }
}
