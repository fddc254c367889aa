//! The traced run: per-layer costs, timed from outside the program.
//!
//! `maxload_fig5` and `oldi_online` drive the fixed-load input through the
//! benchmark's own loop over `tailguard_simcore::Scheduler` and
//! `tailguard_sched::QueryHandler`, timing every handler call and every
//! schedule/pop. The loop is a twin of the simulator's driver for these
//! feature sets (same RNG streams, same event order), so its outcome must
//! equal the untraced run's exactly. `gray_ops` runs the program's own
//! traced simulation and replays the recorded events through the
//! observability layer; `sas_testbed` times the sensor store. Every
//! workload replays its task stream, timed, into the policy queue and the
//! lifecycle store, and times the estimator and latency reservoir on its
//! own inputs. Layers a workload does not exercise report 0.

use crate::checks::{self, Checker, QueueReplay};
use crate::util::{median, ns_since, Metrics};
use crate::workloads::{self, round, Kind, Setup};
use crate::{Args, Outcome};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tailguard::{DeadlineEstimator, SimReport};
use tailguard_metrics::LatencyReservoir;
use tailguard_obs::{BinaryRecorder, Registry, SloMonitor};
use tailguard_sched::{
    AdmitDecision, DispatchedTask, LeaseToken, QueryArrival, QueryHandler, TraceEvent, TraceSink,
};
use tailguard_simcore::{Scheduler, SimDuration, SimRng, SimTime};

/// Repetitions of the small set-up spans; each reports its median.
const REPS: usize = 3;

/// The cost of one `Instant::now()` pair, subtracted from every span.
fn timer_cost_ns() -> f64 {
    let n = 10_000;
    let start = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    ns_since(start) / f64::from(n)
}

/// `ns` spread over `n` operations, net of one timer reading; 0 when
/// there were none.
fn per_op(ns: f64, timer: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        (ns - timer) / n as f64
    }
}

/// Median nanoseconds of `f` over [`REPS`] runs.
fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ns_since(t)
        })
        .collect();
    median(&v)
}

/// A sink that only buffers, so that checking costs nothing inside the
/// timed handler calls; the loop drains it between calls.
struct BufferSink(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceSink for BufferSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("buffer lock").push(*event);
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(usize),
    Finish {
        task: u32,
        token: LeaseToken,
        busy: SimDuration,
    },
}

/// Span totals of the instrumented loop.
#[derive(Default)]
struct LoopSpans {
    clone_ns: f64,
    sched_ns: f64,
    arrival_ns: f64,
    arrivals: u64,
    complete_ns: f64,
    completes: u64,
    events: u64,
    peak_pending: usize,
    /// `(class, fanout, targets)` of every admitted query.
    budget_log: Vec<(u8, u32, Vec<u32>)>,
    /// Latencies of recorded queries, in completion order.
    latencies: Vec<SimDuration>,
    completed: u64,
    rejected: u64,
}

/// The simulator's driver loop for runs without faults, hedging, leases
/// or multi-query requests, with every layer call timed. With a checker
/// the handler also emits its trace stream into it; without one it keeps
/// its default null sink, as the untraced run does, so the span timings
/// carry no tracing cost.
fn instrumented_loop(setup: &Setup, mut checker: Option<&mut Checker>, timer: f64) -> LoopSpans {
    let cfg = &setup.subs[0].config;
    let mut sp = LoopSpans::default();
    // `run_simulation` clones its input once per run.
    let t = Instant::now();
    let input = black_box(setup.subs[0].input.clone());
    sp.clone_ns = ns_since(t) - timer;

    let mut master = SimRng::seed(cfg.seed);
    let mut placement_rng = master.split();
    let mut service_rng = master.split();
    let estimator = workloads::build_estimator(cfg);
    let servers = cfg.cluster.servers();
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let mut handler = QueryHandler::new(
        cfg.policy,
        cfg.classes.clone(),
        servers,
        estimator,
        cfg.admission,
    );
    if checker.is_some() {
        handler = handler.with_trace_sink(Box::new(BufferSink(Arc::clone(&buffer))));
    }
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let mut services: Vec<SimDuration> = Vec::with_capacity(input.query_count() * 2);
    let (mut targets, mut svc, mut started) = (Vec::new(), Vec::new(), Vec::new());
    let mut issued = 0u64;
    let mut drained = Vec::new();

    let timed_schedule = |sched: &mut Scheduler<Ev>, sp: &mut LoopSpans, at: SimTime, ev: Ev| {
        let t = Instant::now();
        sched.schedule_at(at, ev);
        sp.sched_ns += ns_since(t) - timer;
    };
    if let Some(first) = input.requests.first() {
        timed_schedule(&mut sched, &mut sp, first.arrival, Ev::Arrive(0));
    }
    loop {
        let t = Instant::now();
        let next = sched.pop();
        sp.sched_ns += ns_since(t) - timer;
        let Some(scheduled) = next else { break };
        let now = scheduled.at();
        sp.events += 1;
        match scheduled.event {
            Ev::Arrive(i) => {
                if let Some(r) = input.requests.get(i + 1) {
                    timed_schedule(&mut sched, &mut sp, r.arrival.max(now), Ev::Arrive(i + 1));
                }
                let spec = &input.requests[i].queries[0];
                targets.clear();
                match &spec.servers {
                    Some(s) => targets.extend_from_slice(s),
                    None => targets.extend(
                        placement_rng
                            .sample_distinct(servers, spec.fanout as usize)
                            .into_iter()
                            .map(|s| s as u32),
                    ),
                }
                svc.clear();
                for &s in &targets {
                    let ms = cfg.cluster.service_of(s as usize).sample(&mut service_rng);
                    svc.push(SimDuration::from_millis_f64(ms));
                }
                let record = issued >= cfg.warmup_queries as u64;
                let t = Instant::now();
                let decision = handler.on_query_arrival(
                    now,
                    QueryArrival {
                        class: spec.class,
                        targets: &targets,
                        sizes: Some(&svc),
                        budget_override: None,
                        task_budgets: None,
                        record,
                    },
                    &mut started,
                );
                sp.arrival_ns += ns_since(t) - timer;
                sp.arrivals += 1;
                if let AdmitDecision::Admitted { .. } = decision {
                    issued += 1;
                    services.extend_from_slice(&svc);
                    sp.budget_log
                        .push((spec.class, spec.fanout, targets.clone()));
                    for d in &started {
                        let busy = services[d.task as usize];
                        timed_schedule(&mut sched, &mut sp, now + busy, finish(d, busy));
                    }
                } else {
                    sp.rejected += 1;
                }
            }
            Ev::Finish { task, token, busy } => {
                let t = Instant::now();
                let c = handler.on_task_complete(now, task, token, busy);
                sp.complete_ns += ns_since(t) - timer;
                sp.completes += 1;
                if let Some(next) = c.next {
                    let busy = services[next.task as usize];
                    timed_schedule(&mut sched, &mut sp, now + busy, finish(&next, busy));
                }
                if let Some(done) = c.done {
                    if done.recorded {
                        sp.latencies.push(done.latency);
                        sp.completed += 1;
                    }
                }
            }
        }
        sp.peak_pending = sp.peak_pending.max(sched.len());
        if let Some(c) = checker.as_deref_mut() {
            std::mem::swap(&mut *buffer.lock().expect("buffer lock"), &mut drained);
            for ev in drained.drain(..) {
                c.observe(&ev);
            }
        }
    }
    drop(handler);
    if let Some(c) = checker {
        for ev in buffer.lock().expect("buffer lock").drain(..) {
            c.observe(&ev);
        }
    }
    sp
}

fn finish(d: &DispatchedTask, busy: SimDuration) -> Ev {
    Ev::Finish {
        task: d.task,
        token: d.lease,
        busy,
    }
}

/// Estimator layer: budget lookups over the run's own queries, online
/// updates over its own completions, and explicit refreshes.
fn estimator_layer(
    m: &mut Metrics,
    setup: &Setup,
    budget_log: &[(u8, u32, Vec<u32>)],
    post_queuing: &[(u32, SimDuration)],
    timer: f64,
) {
    let cfg = &setup.subs[0].config;
    let build_ns = time_median(|| workloads::build_estimator(cfg));
    let mut est: DeadlineEstimator = workloads::build_estimator(cfg);
    let t = Instant::now();
    for (class, fanout, targets) in budget_log {
        black_box(est.budget(*class, *fanout, targets));
    }
    let budget_ns = per_op(ns_since(t), timer, budget_log.len());
    let refreshes_before = est.refresh_count();
    let t = Instant::now();
    for &(server, busy) in post_queuing {
        est.record_post_queuing(server as usize, busy);
    }
    let record_ns = per_op(ns_since(t), timer, post_queuing.len());
    let refreshes = est.refresh_count() - refreshes_before;
    let refresh_ns = time_median(|| est.refresh_now());
    m.put("estimator.build_ms", build_ns / 1e6, "ms");
    m.put("estimator.budget_ns", budget_ns, "ns");
    m.put("estimator.budget_calls", budget_log.len() as f64, "count");
    m.put("estimator.record_ns", record_ns, "ns");
    m.put("estimator.refresh_ms", refresh_ns / 1e6, "ms");
    m.put("estimator.refreshes", refreshes as f64, "count");
}

/// Latency reservoir layer over the run's own recorded latencies.
fn metrics_layer(m: &mut Metrics, latencies: &[SimDuration], timer: f64) {
    let mut r = LatencyReservoir::with_capacity(latencies.len());
    let t = Instant::now();
    for &d in latencies {
        r.record(d);
    }
    let record_ns = per_op(ns_since(t), timer, latencies.len());
    let t = Instant::now();
    black_box(r.percentile(0.99));
    let pct_ns = ns_since(t) - timer;
    m.put("metrics.record_ns", record_ns, "ns");
    m.put("metrics.percentile_ms", pct_ns / 1e6, "ms");
    m.put("metrics.samples", latencies.len() as f64, "count");
}

/// Policy queue and lifecycle store layers: the recorded task stream
/// replayed, timed, into fresh instances.
fn queue_and_store_layers(
    m: &mut Metrics,
    setup: &Setup,
    checker: &Checker,
    problems: &mut Vec<String>,
) {
    let cfg = &setup.subs[0].config;
    let QueueReplay {
        pushes,
        peak_depth,
        mismatch,
        ns,
    } = checks::replay_queues(cfg.policy, cfg.cluster.servers(), &checker.queue_ops);
    problems.extend(mismatch);
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    m.put("policy.push_pop_ns", per(ns, pushes), "ns");
    m.put("policy.peak_depth", peak_depth as f64, "tasks");
    let (ps, store, ns) = checks::replay_store(cfg.lease, &checker.store_ops);
    problems.extend(ps);
    m.put("lifecycle.ns_per_attempt", per(ns, checker.attempts), "ns");
    m.put("lifecycle.records", store.len() as f64, "count");
    m.put("lifecycle.reclaims", checker.reclaims as f64, "count");
    m.put(
        "lifecycle.duplicates_suppressed",
        store.stats().duplicates_suppressed as f64,
        "count",
    );
}

/// Hedging and health counters from a simulated report.
fn mitigation_layer(m: &mut Metrics, report: Option<&SimReport>) {
    let (hedges, wins, ejections, rerouted) = report.map_or((0, 0, 0, 0), |r| {
        (
            r.robustness.hedges_issued,
            r.robustness.hedge_wins,
            r.health.ejections,
            r.health.rerouted_tasks,
        )
    });
    m.put("mitigation.hedges", hedges as f64, "count");
    m.put(
        "mitigation.hedge_win_ratio",
        if hedges == 0 {
            0.0
        } else {
            wins as f64 / hedges as f64
        },
        "ratio",
    );
    m.put("health.ejections", ejections as f64, "count");
    m.put("health.rerouted", rerouted as f64, "count");
}

/// Observability layer: the recorded events replayed through the binary
/// recorder, its decoder, the SLO monitor and the registry.
fn obs_layer(
    m: &mut Metrics,
    events: &[TraceEvent],
    observed_dequeues: u64,
    dequeues: u64,
    timer: f64,
) {
    if events.is_empty() {
        for (name, unit) in [
            ("obs.record_ns_per_event", "ns"),
            ("obs.decode_ms", "ms"),
            ("obs.slo_ingest_ms", "ms"),
            ("obs.registry_ingest_ms", "ms"),
            ("obs.events_recorded", "count"),
            ("obs.events_dropped", "count"),
            ("obs.slo_coverage", "ratio"),
        ] {
            m.put(name, 0.0, unit);
        }
        return;
    }
    let recorder = BinaryRecorder::with_capacity(workloads::gray_obs_options().ring_capacity);
    let mut sink = recorder.sink();
    let batch = sink.batch_hint().max(1);
    let t = Instant::now();
    for chunk in events.chunks(batch) {
        sink.record_batch(chunk);
    }
    drop(sink);
    let record_ns = (ns_since(t) - timer) / events.len() as f64;
    let t = Instant::now();
    let decoded = recorder.events();
    let decode_ns = ns_since(t) - timer;
    let mut slo = SloMonitor::new(checks::gray_slo_config());
    let t = Instant::now();
    slo.ingest(&decoded);
    let slo_ns = ns_since(t) - timer;
    let mut registry = Registry::new();
    let t = Instant::now();
    registry.ingest_events(&decoded);
    let reg_ns = ns_since(t) - timer;
    m.put("obs.record_ns_per_event", record_ns, "ns");
    m.put("obs.decode_ms", decode_ns / 1e6, "ms");
    m.put("obs.slo_ingest_ms", slo_ns / 1e6, "ms");
    m.put("obs.registry_ingest_ms", reg_ns / 1e6, "ms");
    m.put(
        "obs.events_recorded",
        recorder.total_recorded() as f64,
        "count",
    );
    m.put("obs.events_dropped", recorder.dropped() as f64, "count");
    m.put(
        "obs.slo_coverage",
        observed_dequeues as f64 / dequeues.max(1) as f64,
        "ratio",
    );
}

/// Sensor store layer: generation, and range scans drawn as the testbed's
/// load generator draws them.
fn testbed_layer(
    m: &mut Metrics,
    setup: &Setup,
    round_ns: f64,
    records: u64,
    tasks: u64,
    timer: f64,
) {
    let tb = setup.subs[0].testbed.as_ref();
    let gen_ns = tb.map_or(0.0, |tb| time_median(|| workloads::sensor_stores(tb.seed)));
    let (mut scan_ns, mut unattributed) = (0.0, 0.0);
    if !setup.stores.is_empty() {
        let days = workloads::STORE_DAYS as usize;
        let mut rng = SimRng::seed(setup.subs[0].scenario.seed);
        let scans = 20_000;
        let plan: Vec<(usize, u32, u32)> = (0..scans)
            .map(|_| {
                let node = rng.index(setup.stores.len());
                let len = 1 + rng.index(30.min(days)) as u32;
                let max_start = (days as u32).saturating_sub(len).max(1);
                (node, rng.index(max_start as usize) as u32, len)
            })
            .collect();
        let t = Instant::now();
        for &(node, start, len) in &plan {
            let r = setup.stores[node].range_query(start, len);
            black_box(tailguard_testbed::SensorStore::aggregate(r));
        }
        scan_ns = (ns_since(t) - timer) / scans as f64;
        let queries = setup.kind.queries() as f64;
        unattributed = (round_ns - gen_ns - tasks as f64 * scan_ns) / queries;
    }
    m.put("testbed.store_gen_ms", gen_ns / 1e6, "ms");
    m.put("testbed.range_query_ns", scan_ns, "ns");
    m.put("testbed.records_retrieved", records as f64, "count");
    m.put("testbed.unattributed_ns_per_query", unattributed, "ns");
}

/// The traced run of `args.kind`.
pub fn run(args: &Args) -> Outcome {
    let kind = args.kind;
    let timer = timer_cost_ns();
    let (mut setup, _) = workloads::setup(kind, args.seed);
    let mut problems = checks::check_budgets(&mut setup);
    let mut m = Metrics::default();

    let queries = kind.queries();
    let input_ns = time_median(|| setup.subs[0].scenario.input(kind.load(), queries));
    m.put(
        "workload.input_ns_per_query",
        input_ns / queries as f64,
        "ns",
    );

    // The untraced reference: rounds exactly as the timed run does them.
    let mut round_times = Vec::with_capacity(REPS);
    let mut reference = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = round(&setup, 0);
        round_times.push(ns_since(t));
        reference = Some(r);
    }
    let reference = reference.expect("at least one round");
    let round_ns = median(&round_times);

    let cfg = &setup.subs[0].config;
    let slo = (kind == Kind::GrayOps).then(checks::gray_slo_config);
    let mut checker = Checker::new(cfg.cluster.servers(), cfg.policy, slo);
    let traced = Instant::now();
    let mut budget_log = Vec::new();
    let mut latencies = Vec::new();
    let mut sim_report = None;
    match kind {
        Kind::MaxloadFig5 | Kind::OldiOnline => {
            // Spans come from a pass without a sink; the task stream for the
            // checks and replays from a second pass with one.
            let sp = instrumented_loop(&setup, None, timer);
            let streamed = instrumented_loop(&setup, Some(&mut checker), timer);
            checker.finish();
            if streamed.latencies != sp.latencies || streamed.events != sp.events {
                problems.push("tracing changed the instrumented loop's outcome".into());
            }
            let d = &reference.digest;
            if sp.completed != d.completed || sp.rejected != d.rejected {
                problems.push(format!(
                    "instrumented loop completed {} / rejected {}, the run {} / {}",
                    sp.completed, sp.rejected, d.completed, d.rejected
                ));
            }
            if let Some(r) = &reference.report {
                if sp.events != r.events_processed {
                    problems.push(format!(
                        "instrumented loop processed {} events, the run {}",
                        sp.events, r.events_processed
                    ));
                }
                problems.extend(checks::sim_report_checks(&setup, r, &checker));
            }
            let events = sp.events.max(1) as f64;
            m.put("simcore.events", sp.events as f64, "count");
            m.put("simcore.ns_per_event", sp.sched_ns / events, "ns");
            m.put("simcore.peak_pending", sp.peak_pending as f64, "count");
            m.put(
                "handler.arrival_ns",
                sp.arrival_ns / sp.arrivals.max(1) as f64,
                "ns",
            );
            m.put(
                "handler.complete_ns",
                sp.complete_ns / sp.completes.max(1) as f64,
                "ns",
            );
            m.put("core.input_clone_ms", sp.clone_ns / 1e6, "ms");
            let covered = sp.clone_ns + sp.sched_ns + sp.arrival_ns + sp.complete_ns;
            m.put(
                "core.unattributed_ns_per_event",
                (round_ns - covered) / events,
                "ns",
            );
            budget_log = sp.budget_log;
            latencies = sp.latencies;
        }
        Kind::GrayOps => {
            let (c, report) = checks::traced_sim_checks(&setup, true);
            checker = c;
            if let Some(r) = &reference.report {
                problems.extend(checks::sim_report_checks(&setup, r, &checker));
            }
            m.put("simcore.events", report.events_processed as f64, "count");
            for (name, unit) in [
                ("simcore.ns_per_event", "ns"),
                ("simcore.peak_pending", "count"),
                ("handler.arrival_ns", "ns"),
                ("handler.complete_ns", "ns"),
                ("core.input_clone_ms", "ms"),
                ("core.unattributed_ns_per_event", "ns"),
            ] {
                m.put(name, 0.0, unit);
            }
            for ev in &checker.events {
                if let TraceEvent::QueryAdmitted { class, fanout, .. } = *ev {
                    budget_log.push((class, fanout, Vec::new()));
                }
            }
            let mut all = LatencyReservoir::new();
            for r in report.query_latency_by_class.values() {
                all.merge(r);
            }
            latencies = all
                .sorted_samples()
                .iter()
                .map(|&ns| SimDuration::from_nanos(ns))
                .collect();
            sim_report = Some(report);
        }
        Kind::SasTestbed => {
            for (name, unit) in [
                ("simcore.events", "count"),
                ("simcore.ns_per_event", "ns"),
                ("simcore.peak_pending", "count"),
                ("handler.arrival_ns", "ns"),
                ("handler.complete_ns", "ns"),
                ("core.input_clone_ms", "ms"),
                ("core.unattributed_ns_per_event", "ns"),
            ] {
                m.put(name, 0.0, unit);
            }
            // The twin's input and placements: the budgets the testbed's
            // handler stamps.
            for r in &setup.subs[0].input.requests {
                let q = &r.queries[0];
                budget_log.push((q.class, q.fanout, q.servers.clone().unwrap_or_default()));
            }
            if let Some(tb) = &reference.testbed {
                for r in tb.latency_by_class.values() {
                    latencies.extend(
                        r.clone()
                            .sorted_samples()
                            .iter()
                            .map(|&ns| SimDuration::from_nanos(ns)),
                    );
                }
            }
        }
    }
    problems.append(&mut checker.problems);

    m.put("handler.tasks", checker.attempts as f64, "count");
    m.put("handler.deadline_misses", checker.misses as f64, "count");
    queue_and_store_layers(&mut m, &setup, &checker, &mut problems);
    estimator_layer(&mut m, &setup, &budget_log, &checker.post_queuing, timer);
    metrics_layer(&mut m, &latencies, timer);
    mitigation_layer(&mut m, sim_report.as_ref());
    let observed: u64 = reference.digest.slo_dequeues.iter().sum();
    obs_layer(&mut m, &checker.events, observed, checker.dequeues, timer);
    let (records, tasks) = match &reference.testbed {
        Some(tb) => (
            tb.records_retrieved,
            setup.subs[0]
                .input
                .requests
                .iter()
                .map(|r| u64::from(r.queries[0].fanout))
                .sum(),
        ),
        None => (0, 0),
    };
    testbed_layer(&mut m, &setup, round_ns, records, tasks, timer);
    let traced_ns = ns_since(traced);
    m.put("trace.untraced_wall_s", round_ns / 1e9, "s");
    m.put("trace.wall_s", traced_ns / 1e9, "s");
    m.put("trace.overhead_ratio", traced_ns / round_ns, "ratio");
    // As in the untraced run, gray_ops' SLO report is one more operation,
    // failed when it disagrees with the whole-run dequeue counts.
    let (reports, failed_reports) = if kind == Kind::GrayOps {
        (
            1,
            u64::from(reference.digest.slo_dequeues != checker.dequeues_by_class),
        )
    } else {
        (0, 0)
    };
    Outcome {
        problems,
        attempted: queries as u64 + reports,
        failed: reference.digest.lost + failed_reports,
        metrics: m,
    }
}
