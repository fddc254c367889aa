//! The four workloads: their make-up, their set-up, and one timed round
//! of each.
//!
//! Every round of a workload repeats exactly the same operations on the
//! same inputs, so the latency and load figures it yields are identical
//! from round to round (a round that disagrees with the first is a
//! determinism failure), and the number of rounds only scales the work.

use crate::util::{mix, ns_since};
use std::collections::BTreeMap;
use std::time::Instant;
use tailguard::{
    max_load, run_simulation, run_simulation_observed, scenarios, AdaptiveWindow, AdmissionConfig,
    DeadlineEstimator, DriftKind, DriftPlan, EstimatorMode, FaultEpisode, FaultKind, FaultPlan,
    HealthConfig, MaxLoadOptions, MitigationConfig, ObsOptions, Scenario, SimConfig, SimInput,
    SimReport, FLIGHT_RING_CAPACITY,
};
use tailguard_metrics::LatencyReservoir;
use tailguard_policy::Policy;
use tailguard_simcore::{SimDuration, SimRng, SimTime};
use tailguard_testbed::{run_testbed, SensorStore, TestbedConfig, TestbedMode, TestbedReport};
use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, TailbenchWorkload};

/// The workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 5: two classes, paper fanout mix, analytic estimator,
    /// `tailguard::max_load` bisection.
    MaxloadFig5,
    /// Figs. 6–7: fanout 100 to every server, online estimator, admission
    /// armed.
    OldiOnline,
    /// Gray failure under diurnal drift with every optional feature on and
    /// the full observed pipeline.
    GrayOps,
    /// Fig. 9: the tokio SaS testbed in paused time.
    SasTestbed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MaxloadFig5,
        Kind::OldiOnline,
        Kind::GrayOps,
        Kind::SasTestbed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MaxloadFig5 => "maxload_fig5",
            Kind::OldiOnline => "oldi_online",
            Kind::GrayOps => "gray_ops",
            Kind::SasTestbed => "sas_testbed",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Queries per round: one run of one sub-input. Rounds are short, so
    /// that a run holds hundreds of them (see `queries_per_s`).
    pub fn queries(self) -> usize {
        match self {
            Kind::MaxloadFig5 => 8_000,
            Kind::OldiOnline => 1_000,
            Kind::GrayOps => 4_000,
            Kind::SasTestbed => 3_000,
        }
    }

    /// Sub-inputs, each from its own seed drawn from `--seed`. The latency
    /// metrics pool the first pass over all of them; later rounds cycle
    /// through them again.
    pub fn sub_inputs(self) -> usize {
        match self {
            Kind::MaxloadFig5 => 50,
            Kind::OldiOnline => 16,
            Kind::GrayOps => 16,
            Kind::SasTestbed => 12,
        }
    }

    /// The fixed offered load of the latency metrics.
    pub fn load(self) -> f64 {
        match self {
            Kind::MaxloadFig5 => 0.4,
            Kind::OldiOnline => 0.3,
            Kind::GrayOps => 0.4,
            Kind::SasTestbed => 0.35,
        }
    }

    /// The `max_load` bisection: bracket, tolerance and queries per probe.
    pub fn search(self) -> MaxLoadOptions {
        let (queries, lo, hi, tolerance) = match self {
            Kind::MaxloadFig5 => (400_000, 0.3, 0.7, 0.01),
            Kind::OldiOnline => (20_000, 0.4, 0.75, 0.02),
            Kind::GrayOps => (30_000, 0.3, 0.9, 0.02),
            Kind::SasTestbed => (6_000, 0.2, 0.8, 0.02),
        };
        MaxLoadOptions {
            queries,
            lo,
            hi,
            tolerance,
            warmup_fraction: 0.05,
        }
    }

    /// True for the three discrete-event workloads.
    pub fn simulated(self) -> bool {
        self != Kind::SasTestbed
    }
}

/// One sub-input: its scenario, generated input and run configuration.
pub struct Sub {
    pub scenario: Scenario,
    /// The fixed-load input (for the testbed, its twin's load plan; the
    /// testbed generates its own copy internally).
    pub input: SimInput,
    /// The configuration of the fixed-load run.
    pub config: SimConfig,
    /// The testbed configuration (`sas_testbed` only).
    pub testbed: Option<TestbedConfig>,
}

/// Everything fixed before the first timed query.
pub struct Setup {
    pub kind: Kind,
    pub subs: Vec<Sub>,
    /// The estimator of sub-input 0, built and seeded as its run builds
    /// it — kept for the Eq. 1–2 check.
    pub estimator: DeadlineEstimator,
    /// Sensor stores of the 32 edge nodes of sub-input 0 (`sas_testbed`).
    pub stores: Vec<SensorStore>,
}

/// The SLO of `gray_ops`' single class, ms.
const GRAY_SLO_MS: f64 = 5.0;
const GRAY_DEGRADED: u32 = 10;
const GRAY_PEAK: f64 = 8.0;
/// Pi time per unit of (paused) tokio time. The clock resolves whole
/// milliseconds, so latencies come in steps of this many Pi milliseconds.
const TESTBED_TIME_SCALE: f64 = 5.0;
/// Days of sensor history per testbed node.
pub const STORE_DAYS: u32 = 45;

fn gray_horizon_ms(queries: usize) -> f64 {
    // ~22 queries/ms arrive at 40% load on this cluster.
    (queries as f64 / 22.0).max(200.0)
}

/// Servers `0..10` ramp to 8× service time over `[0.25, 0.40)` of the
/// horizon, then hold 8× to the end.
fn gray_faults(queries: usize) -> FaultPlan {
    let h = gray_horizon_ms(queries);
    let ramp_start = SimTime::from_millis_f64(h * 0.25);
    let ramp_end = SimTime::from_millis_f64(h * 0.40);
    let far = SimTime::from_millis_f64(h * 100.0);
    let mut plan = FaultPlan::new();
    for server in 0..GRAY_DEGRADED {
        plan = plan
            .with_episode(FaultEpisode::new(
                server,
                ramp_start,
                ramp_end,
                FaultKind::DegradeRamp { peak: GRAY_PEAK },
            ))
            .with_episode(FaultEpisode::new(
                server,
                ramp_end,
                far,
                FaultKind::Slowdown { factor: GRAY_PEAK },
            ));
    }
    plan
}

/// The workload's scenario with its seed taken from `--seed`.
pub fn scenario(kind: Kind, seed: u64, queries: usize) -> Scenario {
    let mut s = match kind {
        Kind::MaxloadFig5 => scenarios::two_class(
            TailbenchWorkload::Masstree,
            1.0,
            ArrivalProcess::poisson(1.0),
        ),
        Kind::OldiOnline => scenarios::oldi_two_class(TailbenchWorkload::Masstree, 1.0, 1.5),
        Kind::GrayOps => {
            let mut s = scenarios::single_class(TailbenchWorkload::Masstree, GRAY_SLO_MS, 100);
            s.mix = QueryMix::single(FanoutDist::fixed(10));
            s.with_drift(DriftPlan::new(vec![DriftKind::Diurnal {
                period: SimDuration::from_millis_f64(gray_horizon_ms(queries) / 2.0),
                amplitude: 0.25,
            }]))
        }
        // `run_testbed` generates its load plan from this scenario with its
        // own fixed seed, whatever `TestbedConfig::seed` says; keeping that
        // seed here makes the twin input the plan the testbed runs.
        Kind::SasTestbed => return scenarios::sas_testbed(),
    };
    s.seed = mix(seed, kind as u64 + 1);
    s
}

/// The run configuration for `queries` queries of `scenario`.
pub fn config(kind: Kind, scenario: &Scenario, queries: usize) -> SimConfig {
    let base = scenario.config(Policy::TfEdf).with_warmup(queries / 20);
    match kind {
        Kind::MaxloadFig5 | Kind::SasTestbed => base,
        Kind::OldiOnline => base
            .with_estimator(EstimatorMode::online_default())
            .with_admission(AdmissionConfig::new(SimDuration::from_millis(100), 0.05)),
        Kind::GrayOps => base
            // Latencies are recorded once the degradation is in full
            // effect: the healthy prefix, the ramp and the adaptation
            // transient are warm-up.
            .with_warmup(queries / 2)
            .with_estimator(EstimatorMode::Online {
                refresh_every: 2_000,
                offline_samples: 2_000,
            })
            .with_faults(gray_faults(queries))
            .with_adaptive(AdaptiveWindow::new(20_000, 0.25))
            .with_health(HealthConfig::new())
            .with_lease(SimDuration::from_millis_f64(GRAY_SLO_MS))
            .with_mitigation(
                MitigationConfig::new()
                    .with_hedge_after(0.8)
                    .with_hedge_budget(16),
            ),
    }
}

/// The testbed configuration at `load` with `queries` queries.
pub fn testbed_config(seed: u64, load: f64, queries: usize) -> TestbedConfig {
    TestbedConfig {
        policy: Policy::TfEdf,
        queries,
        target_load: load,
        mode: TestbedMode::PausedTime,
        time_scale: TESTBED_TIME_SCALE,
        seed: mix(seed, 0x7E57),
        store_days: STORE_DAYS,
        ..TestbedConfig::default()
    }
}

/// Builds and seeds the estimator exactly as the simulator does for
/// `config` (the same RNG split), or as the testbed's twin for
/// `sas_testbed`.
pub fn build_estimator(config: &SimConfig) -> DeadlineEstimator {
    let mut master = SimRng::seed(config.seed);
    let _placement = master.split();
    let _service = master.split();
    let mut rng = master.split();
    let mut est = DeadlineEstimator::new(
        &config.cluster,
        config.classes.clone(),
        config.estimator.clone(),
    );
    if let EstimatorMode::Online {
        offline_samples, ..
    } = config.estimator
    {
        est.seed_offline(&config.cluster, offline_samples, &mut rng);
    }
    est
}

/// The 32 edge nodes' sensor stores, as the testbed generates them.
pub fn sensor_stores(testbed_seed: u64) -> Vec<SensorStore> {
    (0..32u64)
        .map(|node| SensorStore::generate_days(testbed_seed ^ (0x1000 + node), STORE_DAYS))
        .collect()
}

/// One set-up: input generation, estimator build and seeding, and (for the
/// testbed) sensor-store generation. Returns the set-up and its duration.
pub fn setup(kind: Kind, seed: u64) -> (Setup, f64) {
    let start = Instant::now();
    let queries = kind.queries();
    let subs: Vec<Sub> = (0..kind.sub_inputs() as u64)
        .map(|i| {
            let sub_seed = mix(seed, 100 + i);
            let scenario = scenario(kind, sub_seed, queries);
            let input = scenario.input(kind.load(), queries);
            let config = config(kind, &scenario, queries);
            let testbed =
                (kind == Kind::SasTestbed).then(|| testbed_config(sub_seed, kind.load(), queries));
            Sub {
                scenario,
                input,
                config,
                testbed,
            }
        })
        .collect();
    let estimator = build_estimator(&subs[0].config);
    let stores = subs[0]
        .testbed
        .as_ref()
        .map_or_else(Vec::new, |tb| sensor_stores(tb.seed));
    let secs = ns_since(start) / 1e9;
    (
        Setup {
            kind,
            subs,
            estimator,
            stores,
        },
        secs,
    )
}

/// Latencies pooled over rounds: every recorded query, and per query type
/// with its SLO.
#[derive(Default)]
pub struct Pool {
    pub all: LatencyReservoir,
    pub by_type: BTreeMap<(u8, u32), (LatencyReservoir, SimDuration)>,
}

impl Pool {
    fn add(&mut self, class: u8, fanout: u32, slo: SimDuration, r: &LatencyReservoir) {
        self.all.merge(r);
        self.by_type
            .entry((class, fanout))
            .or_insert_with(|| (LatencyReservoir::new(), slo))
            .0
            .merge(r);
    }

    /// Adds one round's recorded latencies.
    pub fn add_round(&mut self, round: &Round) {
        if let Some(report) = &round.report {
            for (k, r) in &report.query_latency_by_type {
                let slo = report.classes[k.class as usize].slo;
                self.add(k.class, k.fanout, slo, r);
            }
        }
        if let Some(report) = &round.testbed {
            // One fanout per SaS class: the class is the query type.
            for (class, r) in &report.latency_by_class {
                self.add(*class, 0, report.slos[*class as usize], r);
            }
        }
    }

    /// p50 and p99 over all queries, ms.
    pub fn percentiles_ms(&mut self) -> (f64, f64) {
        (
            self.all.percentile(0.5).as_millis_f64(),
            self.all.percentile(0.99).as_millis_f64(),
        )
    }

    /// The highest per-type p99 over that type's SLO, among types with at
    /// least `SimReport::MIN_TYPE_SAMPLES` samples (the paper's rule).
    pub fn worst_tail_ratio(&mut self) -> f64 {
        self.by_type
            .values_mut()
            .filter(|(r, _)| r.len() >= SimReport::MIN_TYPE_SAMPLES)
            .map(|(r, slo)| r.percentile(0.99).as_millis_f64() / slo.as_millis_f64())
            .fold(0.0, f64::max)
    }
}

/// The deterministic outcome of one round; equal whenever the same
/// sub-input runs again.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub p99_ms: f64,
    pub completed: u64,
    pub rejected: u64,
    pub lost: u64,
    /// Dequeues the observed run's SLO report counted per class
    /// (`gray_ops` only).
    pub slo_dequeues: Vec<u64>,
    /// Dequeues the run's own load accounting counted (`gray_ops` only).
    pub dequeues: u64,
}

impl Digest {
    /// Whether the round produced an SLO report, and whether it covers
    /// every dequeue of the run.
    pub fn slo_report(&self) -> Option<bool> {
        (!self.slo_dequeues.is_empty())
            .then(|| self.slo_dequeues.iter().sum::<u64>() == self.dequeues)
    }
}

/// What one round did.
pub struct Round {
    pub digest: Digest,
    /// Queries offered to the program in this round.
    pub queries: u64,
    /// The run's report (simulated workloads).
    pub report: Option<SimReport>,
    /// The run's testbed report (`sas_testbed`).
    pub testbed: Option<TestbedReport>,
}

/// The observed pipeline of `gray_ops`: the always-on flight recorder
/// (`FLIGHT_RING_CAPACITY`, the newest 16 384 events), whose ring every
/// round overflows.
pub fn gray_obs_options() -> ObsOptions {
    ObsOptions {
        ring_capacity: FLIGHT_RING_CAPACITY,
        ..ObsOptions::default()
    }
}

/// Runs one round: the fixed-load run of sub-input `i`.
pub fn round(setup: &Setup, i: usize) -> Round {
    let sub = &setup.subs[i];
    let queries = setup.kind.queries() as u64;
    if let Some(tb) = &sub.testbed {
        let report = run_testbed(tb);
        let mut all = LatencyReservoir::new();
        for r in report.latency_by_class.values() {
            all.merge(r);
        }
        return Round {
            digest: Digest {
                p99_ms: all.percentile(0.99).as_millis_f64(),
                completed: report.completed_queries,
                rejected: report.rejected_queries,
                lost: report.robustness.failed_queries + report.worker_panics,
                slo_dequeues: Vec::new(),
                dequeues: 0,
            },
            queries,
            report: None,
            testbed: Some(report),
        };
    }
    let (report, slo) = if setup.kind == Kind::GrayOps {
        let run = run_simulation_observed(&sub.config, &sub.input, &gray_obs_options());
        (run.report, Some(run.slo))
    } else {
        (run_simulation(&sub.config, &sub.input), None)
    };
    let mut all = LatencyReservoir::new();
    for r in report.query_latency_by_class.values() {
        all.merge(r);
    }
    Round {
        digest: Digest {
            p99_ms: all.percentile(0.99).as_millis_f64(),
            completed: report.completed_queries,
            rejected: report.rejected_queries,
            lost: report.robustness.failed_queries,
            slo_dequeues: slo
                .as_ref()
                .map(|s| s.classes.iter().map(|c| c.dequeues).collect())
                .unwrap_or_default(),
            dequeues: if slo.is_some() {
                // `LoadStats` counts every dequeue as a task completion of
                // the queuing phase.
                report.load.tasks_completed_count()
            } else {
                0
            },
        },
        queries,
        report: Some(report),
        testbed: None,
    }
}

/// The same bisection as `tailguard::max_load`, over any probe.
pub fn bisect(opts: &MaxLoadOptions, mut meets: impl FnMut(f64) -> bool) -> f64 {
    if meets(opts.hi) {
        return opts.hi;
    }
    if !meets(opts.lo) {
        return opts.lo;
    }
    let (mut lo, mut hi) = (opts.lo, opts.hi);
    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The highest load at which every query type meets its SLO, on
/// sub-input 0's seed. On `maxload_fig5` this is `tailguard::max_load`
/// itself; the other workloads run the same bisection over their own
/// configuration and runtime (probes run without admission control, which
/// would otherwise trade refusals for tail latency).
pub fn search_max_load(kind: Kind, seed: u64) -> f64 {
    let opts = kind.search();
    let sub_seed = mix(seed, 100);
    match kind {
        Kind::MaxloadFig5 => max_load(
            &scenario(kind, sub_seed, opts.queries),
            Policy::TfEdf,
            &opts,
        ),
        Kind::SasTestbed => bisect(&opts, |load| {
            run_testbed(&testbed_config(sub_seed, load, opts.queries)).meets_all_slos()
        }),
        Kind::OldiOnline | Kind::GrayOps => bisect(&opts, |load| {
            let s = scenario(kind, sub_seed, opts.queries);
            let input = s.input(load, opts.queries);
            let mut cfg = config(kind, &s, opts.queries);
            cfg.admission = None;
            run_simulation(&cfg, &input).meets_all_slos()
        }),
    }
}
