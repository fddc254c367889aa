//! Checks of the program's outputs against computations made apart from
//! it: the Eq. 1–2 unloaded tails, EDF order on `t_D`, conservation of
//! queries and attempts, the measured load, the testbed's calibration and
//! readings, and whole-run SLO accounting.

use crate::workloads::{Kind, Round, Setup};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use tailguard::{
    run_simulation_traced, scenarios::SasCluster, DeadlineEstimator, EstimatorMode, SimConfig,
    SimReport,
};
use tailguard_dist::{Cdf, Distribution};
use tailguard_lifecycle::{AttemptKind, LeaseToken, TaskStateStore};
use tailguard_obs::{SloConfig, SloMonitor};
use tailguard_policy::{Policy, QueuedTask, ServiceClass, TaskQueue};
use tailguard_sched::{TraceEvent, TraceSink};
use tailguard_simcore::{SimDuration, SimRng, SimTime};
use tailguard_testbed::TestbedReport;

/// Relative agreement required of the analytic estimator with Eq. 1–2
/// computed here: the estimator's solver stops at `f64` resolution, and
/// both sides round to whole nanoseconds.
pub const ANALYTIC_TOL: f64 = 1e-6;
/// Relative agreement required of the online estimator on `oldi_online`
/// with the empirical quantile of its own offline seeding sample: its
/// histogram buckets are 1% wide. How far that sample's quantile may sit
/// from the true one is checked separately, as a 4-sigma order-statistic
/// interval (at fanout 100 the per-task percentile `0.99^(1/100)` lies only
/// about ten of the 100 000 samples deep, so that interval is wide).
pub const ONLINE_TOL: f64 = 0.02;
/// Measured load (busy time over capacity) against `λ·E[k]·T̄/N` computed
/// from the input itself.
pub const LOAD_TOL: f64 = 0.03;
/// Testbed per-cluster mean post-queuing time against the calibrated means
/// of `SasCluster::paper_stats`.
pub const SAS_MEAN_TOL: f64 = 0.10;
/// The sensor model's physical ranges (`SensorStore::generate_days`):
/// node bias 18–24 °C ± 4 diurnal ± 6 seasonal ± 0.5 noise, and 35–55 %
/// humidity ± 8 diurnal ± 1 noise.
pub const TEMPERATURE_RANGE: (f64, f64) = (7.5, 34.5);
pub const HUMIDITY_RANGE: (f64, f64) = (26.0, 64.0);

/// The outcome of all checks on one run.
pub struct Verdict {
    pub problems: Vec<String>,
    /// `gray_ops` only: whether the observed run's SLO report matches the
    /// whole-run per-class dequeue counts.
    pub slo_report_ok: Option<bool>,
}

/// `x_p^u(k) = F⁻¹(p^{1/k})` for `k` i.i.d. tasks (Eq. 1–2, homogeneous).
pub fn homogeneous_tail_ms(dist: &dyn Distribution, p: f64, k: u32) -> f64 {
    dist.quantile(p.powf(1.0 / f64::from(k)))
}

/// Solves `Π_l F_l(t)^{n_l} = p` by bisection (Eq. 1–2 over heterogeneous
/// servers), `groups` being `(cdf, tasks on it)`.
pub fn heterogeneous_tail_ms(groups: &[(&dyn Cdf, u32)], p: f64) -> f64 {
    let product = |t: f64| -> f64 {
        groups
            .iter()
            .map(|(f, n)| f.cdf(t).powf(f64::from(*n)))
            .product()
    };
    let mut hi = 1.0;
    while product(hi) < p {
        hi *= 2.0;
        assert!(hi < 1e12, "tail beyond any service time");
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if product(mid) >= p {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Compares one estimator output with the value computed here, allowing
/// `abs_tol_ms`.
pub fn check_close(what: &str, got_ms: f64, want_ms: f64, abs_tol_ms: f64) -> Option<String> {
    // One nanosecond of rounding on either side is always allowed.
    let tol = abs_tol_ms + 2e-6;
    ((got_ms - want_ms).abs() > tol).then(|| {
        format!("{what}: program {got_ms:.6} ms, expected {want_ms:.6} ms (tolerance {tol:.6} ms)")
    })
}

/// The offline seeding sample of a homogeneous online estimator, drawn
/// exactly as `DeadlineEstimator::seed_offline` draws it for `config`
/// (the simulator's third RNG split, servers in order), sorted.
pub fn seeding_sample(config: &SimConfig, samples: usize) -> Vec<f64> {
    let mut master = SimRng::seed(config.seed);
    let _placement = master.split();
    let _service = master.split();
    let mut rng = master.split();
    let servers = config.cluster.servers();
    let per_server = samples.div_ceil(servers);
    let mut xs = Vec::with_capacity(per_server * servers);
    for server in 0..servers {
        let d = config.cluster.service_of(server);
        for _ in 0..per_server {
            xs.push(d.sample(&mut rng));
        }
    }
    xs.sort_by(f64::total_cmp);
    xs
}

/// The empirical `q`-quantile of a sorted sample and the values at ranks
/// four binomial standard deviations either side of it: the interval in
/// which the true quantile lies unless the sample is a 4-sigma outlier.
pub fn empirical_quantile(sorted: &[f64], q: f64) -> (f64, f64, f64) {
    let n = sorted.len() as f64;
    let at = |rank: f64| sorted[(rank.max(0.0) as usize).min(sorted.len() - 1)];
    let sd = (n * q * (1.0 - q)).sqrt();
    (
        at((n * q).ceil() - 1.0),
        at((n * q - 4.0 * sd).floor() - 1.0),
        at((n * q + 4.0 * sd).ceil()),
    )
}

/// Checks one class and fanout `k` (on `servers`, for a heterogeneous
/// cluster): the estimator's unloaded tail against `want_ms`, and its Eq. 6
/// budget against `slo_ms − want_ms`, both to `rel_tol` of the tail, since
/// a tail that is off by δ gives a budget that is off by δ.
#[allow(clippy::too_many_arguments)]
pub fn check_tail_and_budget(
    est: &mut DeadlineEstimator,
    what: &str,
    class: u8,
    k: u32,
    servers: &[u32],
    slo_ms: f64,
    want_ms: f64,
    rel_tol: f64,
) -> Vec<String> {
    let tol_ms = rel_tol * want_ms;
    let got = est.unloaded_query_tail(class, k, servers).as_millis_f64();
    let budget = est.budget(class, k, servers).as_millis_f64();
    let mut out = Vec::new();
    out.extend(check_close(&format!("x_p^u {what}"), got, want_ms, tol_ms));
    out.extend(check_close(
        &format!("budget {what}"),
        budget,
        (slo_ms - want_ms).max(0.0),
        tol_ms,
    ));
    out
}

/// Eq. 1–2 and Eq. 6 for every class and fanout/placement the workload
/// stamps, on the estimator the workload's runs build. The analytic
/// estimator (`maxload_fig5`, and the SaS twin over the testbed's plan)
/// must agree with the quantiles computed here to [`ANALYTIC_TOL`]. The
/// online estimator of `oldi_online` must agree with the empirical quantile
/// of its own seeding sample to [`ONLINE_TOL`], and the true quantile must
/// lie within that sample's 4-sigma order-statistic interval. `gray_ops`
/// is not checked here: its service distribution and fanout are covered by
/// `maxload_fig5`, and its 2 000 seeding samples put the per-task
/// percentile of fanout 10 about two samples deep, too shallow for a
/// bounded comparison.
pub fn check_budgets(setup: &mut Setup) -> Vec<String> {
    if setup.kind == Kind::GrayOps {
        return Vec::new();
    }
    let mut out = Vec::new();
    let cfg = &setup.subs[0].config;
    let est = &mut setup.estimator;
    let sample = match cfg.estimator {
        EstimatorMode::Online {
            offline_samples, ..
        } => Some(seeding_sample(cfg, offline_samples)),
        _ => None,
    };
    for (class, spec) in cfg.classes.iter().enumerate() {
        let class = class as u8;
        let slo_ms = spec.slo.as_millis_f64();
        // (what, servers, fanout, analytic tail, per-task quantile)
        let mut cases: Vec<(String, Vec<u32>, u32, f64, f64)> = Vec::new();
        if setup.kind == Kind::SasTestbed {
            // The twin's placements: one node of any cluster (class A), one
            // per cluster (B), every node (C).
            let placements: Vec<Vec<u32>> = match class {
                0 => (0..4).map(|c| vec![c * 8]).collect(),
                1 => vec![vec![0, 8, 16, 24]],
                _ => vec![(0..32).collect()],
            };
            let dists: Vec<_> = SasCluster::ALL
                .iter()
                .map(SasCluster::service_dist)
                .collect();
            for servers in placements {
                let mut per_cluster = [0u32; 4];
                for &s in &servers {
                    per_cluster[s as usize / 8] += 1;
                }
                let groups: Vec<(&dyn Cdf, u32)> = dists
                    .iter()
                    .zip(per_cluster)
                    .filter(|(_, n)| *n > 0)
                    .map(|(d, n)| (d as &dyn Cdf, n))
                    .collect();
                let want = heterogeneous_tail_ms(&groups, spec.percentile);
                let k = servers.len() as u32;
                cases.push((
                    format!("class {class} on {servers:?}"),
                    servers,
                    k,
                    want,
                    f64::NAN,
                ));
            }
        } else {
            let dist = cfg.cluster.service_of(0).clone();
            for &k in setup.subs[0].scenario.mix.classes()[0].fanout.support() {
                let q = spec.percentile.powf(1.0 / f64::from(k));
                let want = homogeneous_tail_ms(dist.as_ref(), spec.percentile, k);
                cases.push((format!("class {class} fanout {k}"), Vec::new(), k, want, q));
            }
        }
        for (what, servers, k, analytic, q) in cases {
            let (want, tol) = match &sample {
                Some(xs) => {
                    let (emp, lo, hi) = empirical_quantile(xs, q);
                    if !(lo..=hi).contains(&analytic) {
                        out.push(format!(
                            "{what}: true tail {analytic:.6} ms outside the seeding sample's interval [{lo:.6}, {hi:.6}] ms"
                        ));
                    }
                    (emp, ONLINE_TOL)
                }
                None => (analytic, ANALYTIC_TOL),
            };
            out.extend(check_tail_and_budget(
                est, &what, class, k, &servers, slo_ms, want, tol,
            ));
        }
    }
    out
}

/// One recorded operation on a server's policy queue.
#[derive(Debug, Clone, Copy)]
pub enum QueueOp {
    Push {
        server: u32,
        task: u32,
        class: u8,
        deadline: SimTime,
        at: SimTime,
    },
    /// Pop expecting `task`.
    Pop { server: u32, task: u32 },
}

/// One recorded operation on the lifecycle store.
#[derive(Debug, Clone, Copy)]
pub enum StoreOp {
    Original {
        task: u32,
        query: u32,
        server: u32,
        deadline: SimTime,
    },
    Duplicate {
        task: u32,
        slot: u32,
        server: u32,
        kind: AttemptKind,
    },
    Lease {
        task: u32,
        at: SimTime,
        token: LeaseToken,
    },
    Commit {
        task: u32,
    },
    Fail {
        task: u32,
    },
    Cancel {
        task: u32,
    },
    Reclaim {
        task: u32,
        token: LeaseToken,
        at: SimTime,
    },
}

/// Consumes the handler's trace stream in emission order and checks it
/// against a separate per-server ordered queue and running counts.
#[derive(Default)]
pub struct Checker {
    /// Per server: queued `(t_D, task)`, the benchmark's own EDF order.
    queued: Vec<BTreeSet<(u64, u32)>>,
    /// Deadline and server of each queued task, by task id.
    pending: Vec<Option<(u64, u32)>>,
    dequeued_before: Vec<bool>,
    pub problems: Vec<String>,
    pub admitted: u64,
    pub rejected: u64,
    pub attempts: u64,
    pub enqueues: u64,
    pub dequeues: u64,
    pub dispatches: u64,
    pub redispatches: u64,
    pub cancelled_queued: u64,
    pub cancelled_in_service: u64,
    pub reclaims: u64,
    pub misses: u64,
    pub dequeues_by_class: Vec<u64>,
    /// Every event seen, in order (kept only when asked for).
    pub keep_events: bool,
    pub events: Vec<TraceEvent>,
    /// Queue and store operations in order, for the timed replays.
    pub queue_ops: Vec<QueueOp>,
    pub store_ops: Vec<StoreOp>,
    /// `(server, busy)` per completion, for the estimator replay.
    pub post_queuing: Vec<(u32, SimDuration)>,
    /// The whole-run SLO monitor: every dequeue, nothing evicted.
    pub slo: Option<SloMonitor>,
    /// Only EDF policies order on `t_D`.
    edf: bool,
}

impl Checker {
    pub fn new(servers: usize, policy: Policy, slo: Option<SloConfig>) -> Self {
        Checker {
            queued: vec![BTreeSet::new(); servers],
            slo: slo.map(SloMonitor::new),
            edf: matches!(policy, Policy::TfEdf | Policy::TEdf),
            ..Checker::default()
        }
    }

    fn fail(&mut self, msg: String) {
        // Keep the report short: the first few violations say enough.
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// Removes `task` from `server`'s queue, checking that it held the
    /// earliest deadline there.
    fn leave_queue(&mut self, task: u32, server: u32, what: &str) {
        let Some((deadline, at_server)) = self.pending.get(task as usize).copied().flatten() else {
            self.fail(format!("{what} of task {task} that is not queued"));
            return;
        };
        if at_server != server {
            self.fail(format!(
                "{what} of task {task} at server {server}, queued at {at_server}"
            ));
            return;
        }
        let q = &mut self.queued[server as usize];
        if self.edf {
            if let Some(&(min, _)) = q.first() {
                if min < deadline {
                    let msg = format!(
                        "server {server} took task {task} (t_D {deadline} ns) while it held t_D {min} ns"
                    );
                    self.fail(msg);
                }
            }
        }
        self.queued[server as usize].remove(&(deadline, task));
        self.pending[task as usize] = None;
        self.queue_ops.push(QueueOp::Pop { server, task });
    }

    pub fn observe(&mut self, ev: &TraceEvent) {
        if self.keep_events {
            self.events.push(*ev);
        }
        if let Some(m) = &mut self.slo {
            m.observe(ev);
        }
        match *ev {
            TraceEvent::QueryAdmitted { .. } => self.admitted += 1,
            TraceEvent::QueryRejected { .. } => self.rejected += 1,
            TraceEvent::TaskEnqueued {
                at,
                task,
                slot,
                query,
                class,
                server,
                kind,
                deadline,
            } => {
                self.enqueues += 1;
                let t = task as usize;
                if t == self.pending.len() {
                    self.attempts += 1;
                    self.pending.push(None);
                    self.dequeued_before.push(false);
                    self.store_ops.push(if kind == AttemptKind::Original {
                        StoreOp::Original {
                            task,
                            query,
                            server,
                            deadline,
                        }
                    } else {
                        StoreOp::Duplicate {
                            task,
                            slot,
                            server,
                            kind,
                        }
                    });
                } else if t > self.pending.len() {
                    self.fail(format!(
                        "task id {task} skips ahead of {}",
                        self.pending.len()
                    ));
                    return;
                }
                if self.pending[t].is_some() {
                    self.fail(format!("task {task} enqueued twice"));
                    return;
                }
                if server as usize >= self.queued.len() {
                    self.fail(format!("task {task} on unknown server {server}"));
                    return;
                }
                let d = deadline.as_nanos();
                self.pending[t] = Some((d, server));
                self.queued[server as usize].insert((d, task));
                self.queue_ops.push(QueueOp::Push {
                    server,
                    task,
                    class,
                    deadline,
                    at,
                });
            }
            TraceEvent::TaskDequeued {
                at,
                task,
                class,
                server,
                token,
                slack_ns,
                ..
            } => {
                self.dequeues += 1;
                self.leave_queue(task, server, "dequeue");
                let c = class as usize;
                if self.dequeues_by_class.len() <= c {
                    self.dequeues_by_class.resize(c + 1, 0);
                }
                self.dequeues_by_class[c] += 1;
                if slack_ns < 0 {
                    self.misses += 1;
                }
                if let Some(seen) = self.dequeued_before.get_mut(task as usize) {
                    if *seen {
                        self.redispatches += 1;
                    } else {
                        *seen = true;
                        self.dispatches += 1;
                    }
                }
                self.store_ops.push(StoreOp::Lease { task, at, token });
            }
            TraceEvent::TaskCancelled { task, server, .. } => {
                let queued = matches!(
                    self.pending.get(task as usize),
                    Some(Some((_, s))) if *s == server
                );
                if queued {
                    self.cancelled_queued += 1;
                    self.leave_queue(task, server, "cancel");
                } else {
                    self.cancelled_in_service += 1;
                }
                self.store_ops.push(StoreOp::Cancel { task });
            }
            TraceEvent::TaskCompleted {
                task, server, busy, ..
            } => {
                self.post_queuing.push((server, busy));
                self.store_ops.push(StoreOp::Commit { task });
            }
            TraceEvent::TaskLost { task, .. } => {
                self.store_ops.push(StoreOp::Fail { task });
            }
            TraceEvent::LeaseReclaimed {
                at, task, token, ..
            } => {
                self.reclaims += 1;
                self.store_ops.push(StoreOp::Reclaim { task, token, at });
            }
            TraceEvent::DuplicateSuppressed { task, .. } => {
                self.store_ops.push(StoreOp::Commit { task });
            }
            _ => {}
        }
    }

    /// End-of-stream checks: queues drained, every queue entry left
    /// exactly once, and dequeues = dispatches + reclaims.
    pub fn finish(&mut self) {
        if let Some(m) = &mut self.slo {
            m.finish();
        }
        let left: usize = self.queued.iter().map(BTreeSet::len).sum();
        if left > 0 {
            self.fail(format!("{left} tasks still queued at the end"));
        }
        if self.enqueues != self.dequeues + self.cancelled_queued {
            let msg = format!(
                "enqueues {} != dequeues {} + cancelled in queue {}",
                self.enqueues, self.dequeues, self.cancelled_queued
            );
            self.fail(msg);
        }
        let requeued = self.reclaims.saturating_sub(self.cancelled_in_service);
        if self.dequeues != self.dispatches + requeued || self.redispatches != requeued {
            let msg = format!(
                "dequeues {} != dispatches {} + reclaims re-enqueued {requeued}",
                self.dequeues, self.dispatches
            );
            self.fail(msg);
        }
    }
}

/// What replaying the recorded queue operations found.
pub struct QueueReplay {
    pub pushes: u64,
    /// The deepest any one server's queue got.
    pub peak_depth: usize,
    /// The first pop that disagreed with the run.
    pub mismatch: Option<String>,
    /// Nanoseconds the replay took.
    pub ns: f64,
}

/// Replays the recorded queue operations into the program's own queues,
/// checking that each pop returns the task the run dequeued.
pub fn replay_queues(policy: Policy, servers: usize, ops: &[QueueOp]) -> QueueReplay {
    let mut queues: Vec<Box<dyn TaskQueue>> = (0..servers).map(|_| policy.new_queue()).collect();
    let (mut pushes, mut peak_depth, mut mismatch) = (0u64, 0usize, None);
    let start = std::time::Instant::now();
    for op in ops {
        match *op {
            QueueOp::Push {
                server,
                task,
                class,
                deadline,
                at,
            } => {
                pushes += 1;
                let q = &mut queues[server as usize];
                q.push(QueuedTask::new(
                    u64::from(task),
                    ServiceClass(class),
                    deadline,
                    at,
                ));
                peak_depth = peak_depth.max(q.len());
            }
            QueueOp::Pop { server, task } => {
                let got = queues[server as usize].pop().map(|t| t.task_id);
                if got != Some(u64::from(task)) && mismatch.is_none() {
                    mismatch = Some(format!(
                        "replayed queue of server {server} popped {got:?}, the run took {task}"
                    ));
                }
            }
        }
    }
    QueueReplay {
        pushes,
        peak_depth,
        mismatch,
        ns: crate::util::ns_since(start),
    }
}

/// Replays the recorded lifecycle operations into a fresh store; returns
/// the problems found, the store and the nanoseconds the replay took.
pub fn replay_store(
    lease: Option<SimDuration>,
    ops: &[StoreOp],
) -> (Vec<String>, TaskStateStore, f64) {
    let mut store = TaskStateStore::new(lease);
    let mut problems = Vec::new();
    let start = std::time::Instant::now();
    for op in ops {
        match *op {
            StoreOp::Original {
                task,
                query,
                server,
                deadline,
            } => {
                let id = store.push_original(query, server, deadline, None);
                if id != task && problems.is_empty() {
                    problems.push(format!("store minted attempt {id}, the run {task}"));
                }
            }
            StoreOp::Duplicate {
                task,
                slot,
                server,
                kind,
            } => {
                let id = store.push_duplicate(slot, server, kind);
                if id != task && problems.is_empty() {
                    problems.push(format!("store minted attempt {id}, the run {task}"));
                }
            }
            StoreOp::Lease { task, at, token } => {
                let t = store.lease(task, at);
                store.mark_running(task);
                if t != token && problems.is_empty() {
                    problems.push(format!("lease of {task}: store {t:?}, run {token:?}"));
                }
            }
            StoreOp::Commit { task } => {
                let token = store.current_token(task).unwrap_or(LeaseToken(0));
                let _ = store.commit(task, token);
            }
            StoreOp::Fail { task } => {
                let token = store.current_token(task).unwrap_or(LeaseToken(0));
                let _ = store.fail(task, token);
            }
            StoreOp::Cancel { task } => store.cancel(task),
            StoreOp::Reclaim { task, token, at } => {
                if !store.reclaim_expired(task, token, at) && problems.is_empty() {
                    problems.push(format!("reclaim of {task} refused by the replayed store"));
                }
            }
        }
    }
    let ns = crate::util::ns_since(start);
    let s = store.stats();
    if s.queued + s.leased + s.running > 0 {
        problems.push(format!(
            "lifecycle store not empty at the end: {} queued, {} leased, {} running",
            s.queued, s.leased, s.running
        ));
    }
    (problems, store, ns)
}

/// A trace sink feeding a shared [`Checker`] as events arrive.
pub struct CheckSink(pub Arc<Mutex<Checker>>);

impl TraceSink for CheckSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("checker lock").observe(event);
    }
}

/// Queries offered = completed + warm-up + rejected + failed.
pub fn check_conservation(
    offered: u64,
    completed: u64,
    warmup: u64,
    rejected: u64,
    failed: u64,
) -> Option<String> {
    (offered != completed + warmup + rejected + failed).then(|| {
        format!(
            "offered {offered} != completed {completed} + warm-up {warmup} + rejected {rejected} + failed {failed}"
        )
    })
}

/// `λ·E[k]·T̄/N` from the input itself, against the measured load.
fn check_load(setup: &Setup, report: &SimReport) -> Option<String> {
    let tasks: u64 = setup.subs[0]
        .input
        .requests
        .iter()
        .flat_map(|r| &r.queries)
        .map(|q| u64::from(q.fanout))
        .sum();
    let capacity_ms =
        report.elapsed.as_nanos() as f64 / 1e6 * setup.subs[0].config.cluster.servers() as f64;
    let expected = tasks as f64 * setup.subs[0].scenario.mean_task_work_ms / capacity_ms;
    let measured = report.accepted_load();
    let ok = if setup.kind == Kind::GrayOps {
        // A tenth of the servers serve at up to 8× service time: the busy
        // time can only grow, by at most 70%.
        measured >= expected * (1.0 - LOAD_TOL) && measured <= expected * 1.7
    } else {
        (measured - expected).abs() <= LOAD_TOL * expected
    };
    (!ok).then(|| format!("measured load {measured:.4} against λ·E[k]·T̄/N = {expected:.4}"))
}

/// Properties of the testbed's report: calibration, conservation, no
/// panics, plausible readings.
fn check_testbed(setup: &Setup, report: &TestbedReport) -> Vec<String> {
    let mut out = Vec::new();
    for (obs, cluster) in report.clusters.iter().zip(SasCluster::ALL) {
        let want = cluster.paper_stats().0;
        if (obs.mean_ms - want).abs() > SAS_MEAN_TOL * want {
            out.push(format!(
                "{} mean post-queuing {:.1} ms, calibrated {want} ms",
                obs.name, obs.mean_ms
            ));
        }
    }
    if report.worker_panics > 0 {
        out.push(format!("{} worker panics", report.worker_panics));
    }
    let queries = setup.kind.queries() as u64;
    out.extend(check_conservation(
        queries,
        report.completed_queries,
        0,
        report.rejected_queries,
        report.robustness.failed_queries,
    ));
    let (t, h) = report.mean_reading;
    if !(TEMPERATURE_RANGE.0..=TEMPERATURE_RANGE.1).contains(&t)
        || !(HUMIDITY_RANGE.0..=HUMIDITY_RANGE.1).contains(&h)
    {
        out.push(format!(
            "merged reading ({t:.2} °C, {h:.2} %) outside the sensor model"
        ));
    }
    if report.records_retrieved == 0 {
        out.push("no sensor records retrieved".into());
    }
    out
}

/// The SLO config the observed pipeline uses for `gray_ops`.
pub fn gray_slo_config() -> SloConfig {
    SloConfig {
        target: 0.99,
        ..SloConfig::default()
    }
}

/// Runs the fixed-load input once more with a checking sink and checks
/// the stream and the report; returns the checker for further use.
pub fn traced_sim_checks(setup: &Setup, keep_events: bool) -> (Checker, SimReport) {
    let cfg = &setup.subs[0].config;
    let slo = (setup.kind == Kind::GrayOps).then(gray_slo_config);
    let mut checker = Checker::new(cfg.cluster.servers(), cfg.policy, slo);
    checker.keep_events = keep_events;
    let shared = Arc::new(Mutex::new(checker));
    let report = run_simulation_traced(
        cfg,
        &setup.subs[0].input,
        Box::new(CheckSink(Arc::clone(&shared))),
    );
    let mut checker = Arc::try_unwrap(shared)
        .ok()
        .expect("the handler dropped its sink")
        .into_inner()
        .expect("checker lock");
    checker.finish();
    (checker, report)
}

/// Checks on a simulated run's report and its traced twin.
pub fn sim_report_checks(setup: &Setup, report: &SimReport, checker: &Checker) -> Vec<String> {
    let mut out = Vec::new();
    let offered = setup.subs[0].input.query_count() as u64;
    let admitted = offered - report.rejected_queries;
    let warmup = (setup.subs[0].config.warmup_queries as u64).min(admitted);
    out.extend(check_conservation(
        offered,
        report.completed_queries,
        warmup,
        report.rejected_queries,
        report.robustness.failed_queries + report.robustness.partial_completions,
    ));
    if checker.admitted + checker.rejected != offered {
        out.push(format!(
            "trace shows {} admitted + {} rejected of {offered} offered",
            checker.admitted, checker.rejected
        ));
    }
    // `LoadStats` counts a dequeue as the task completing its queuing.
    if checker.dequeues != report.load.tasks_completed_count() {
        out.push(format!(
            "trace shows {} dequeues, the report {}",
            checker.dequeues,
            report.load.tasks_completed_count()
        ));
    }
    if checker.misses != report.load.deadline_miss_count() {
        out.push(format!(
            "trace shows {} deadline misses, the report {}",
            checker.misses,
            report.load.deadline_miss_count()
        ));
    }
    out.extend(check_load(setup, report));
    out
}

/// Every check of an untraced run: budgets, the traced twin's stream,
/// the report, and the `gray_ops` SLO report.
pub fn check_run(setup: &mut Setup, first: &Round, max_load: f64) -> Verdict {
    let mut problems = check_budgets(setup);
    let mut slo_report_ok = None;
    let kind = setup.kind;
    let search = kind.search();
    if !(max_load > search.lo && max_load < search.hi) {
        problems.push(format!(
            "max_load {max_load} not inside its bracket [{}, {}]",
            search.lo, search.hi
        ));
    }
    if first.digest.rejected > 0 {
        problems.push(format!(
            "{} queries rejected at the fixed load",
            first.digest.rejected
        ));
    }
    if kind.simulated() {
        let report = first
            .report
            .as_ref()
            .expect("simulated round keeps its report");
        let (mut checker, traced_report) = traced_sim_checks(setup, false);
        problems.append(&mut checker.problems);
        if traced_report.completed_queries != report.completed_queries
            || traced_report.elapsed != report.elapsed
        {
            problems.push("tracing changed the run's outcome".into());
        }
        problems.extend(sim_report_checks(setup, report, &checker));
        let (ps, _, _) = replay_store(setup.subs[0].config.lease, &checker.store_ops);
        problems.extend(ps);
        let replay = replay_queues(
            setup.subs[0].config.policy,
            setup.subs[0].config.cluster.servers(),
            &checker.queue_ops,
        );
        problems.extend(replay.mismatch);
        if kind == Kind::GrayOps {
            let whole = checker
                .slo
                .as_ref()
                .expect("gray_ops checker carries a monitor")
                .snapshot();
            let want: Vec<u64> = whole.classes.iter().map(|c| c.dequeues).collect();
            if want != checker.dequeues_by_class {
                problems.push("whole-run monitor disagrees with the trace".into());
            }
            let ok = first.digest.slo_dequeues == want;
            if !ok {
                eprintln!(
                    "gray_ops: observed SLO report counts {:?} dequeues per class, the whole run {:?} (failed operation)",
                    first.digest.slo_dequeues, want
                );
            }
            slo_report_ok = Some(ok);
        }
    } else if let Some(report) = &first.testbed {
        problems.extend(check_testbed(setup, report));
    }
    Verdict {
        problems,
        slo_report_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard::{ClassSpec, ClusterSpec};
    use tailguard_dist::Exponential;

    fn enqueue(task: u32, server: u32, deadline_ns: u64) -> TraceEvent {
        TraceEvent::TaskEnqueued {
            at: SimTime::ZERO,
            task,
            slot: task,
            query: task,
            class: 0,
            server,
            kind: AttemptKind::Original,
            deadline: SimTime::from_nanos(deadline_ns),
        }
    }

    fn dequeue(task: u32, server: u32, token: u64) -> TraceEvent {
        TraceEvent::TaskDequeued {
            at: SimTime::from_nanos(1),
            task,
            slot: task,
            query: task,
            class: 0,
            kind: AttemptKind::Original,
            server,
            token: LeaseToken(token),
            waited: SimDuration::ZERO,
            slack_ns: 1,
        }
    }

    fn run(events: &[TraceEvent]) -> Checker {
        let mut c = Checker::new(2, Policy::TfEdf, None);
        for ev in events {
            c.observe(ev);
        }
        c.finish();
        c
    }

    #[test]
    fn edf_order_accepts_earliest_deadline_first() {
        let c = run(&[
            enqueue(0, 0, 10),
            enqueue(1, 0, 5),
            dequeue(1, 0, 1),
            dequeue(0, 0, 2),
        ]);
        assert!(c.problems.is_empty(), "{:?}", c.problems);
        assert_eq!(c.dequeues, 2);
        let r = replay_queues(Policy::TfEdf, 2, &c.queue_ops);
        assert!(r.mismatch.is_none());
        assert_eq!(r.peak_depth, 2);
    }

    #[test]
    fn edf_order_rejects_a_misordered_dequeue() {
        let c = run(&[
            enqueue(0, 0, 10),
            enqueue(1, 0, 5),
            dequeue(0, 0, 1),
            dequeue(1, 0, 2),
        ]);
        assert!(
            c.problems.iter().any(|p| p.contains("while it held")),
            "{:?}",
            c.problems
        );
        // The program's own queue, replayed, disagrees with that order too.
        let r = replay_queues(Policy::TfEdf, 2, &c.queue_ops);
        assert!(r.mismatch.is_some());
    }

    #[test]
    fn order_is_per_server() {
        let c = run(&[
            enqueue(0, 0, 10),
            enqueue(1, 1, 5),
            dequeue(0, 0, 1),
            dequeue(1, 1, 2),
        ]);
        assert!(c.problems.is_empty(), "{:?}", c.problems);
    }

    #[test]
    fn a_task_left_in_a_queue_is_reported() {
        let c = run(&[enqueue(0, 0, 10), enqueue(1, 0, 5), dequeue(1, 0, 1)]);
        assert!(
            c.problems.iter().any(|p| p.contains("still queued")),
            "{:?}",
            c.problems
        );
    }

    #[test]
    fn store_replay_requires_every_attempt_resolved() {
        let c = run(&[enqueue(0, 0, 10), dequeue(0, 0, 1)]);
        let (problems, _, _) = replay_store(None, &c.store_ops);
        assert!(
            problems.iter().any(|p| p.contains("not empty")),
            "{problems:?}"
        );
        let done = TraceEvent::TaskCompleted {
            at: SimTime::from_nanos(2),
            task: 0,
            slot: 0,
            query: 0,
            server: 0,
            busy: SimDuration::from_nanos(1),
            won: true,
        };
        let c = run(&[enqueue(0, 0, 10), dequeue(0, 0, 1), done]);
        let (problems, store, _) = replay_store(None, &c.store_ops);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(store.stats().completed, 1);
    }

    #[test]
    fn conservation_rejects_a_dropped_query() {
        assert!(check_conservation(100, 90, 5, 5, 0).is_none());
        assert!(check_conservation(100, 89, 5, 5, 0).is_some());
        assert!(check_conservation(100, 90, 5, 4, 0).is_some());
    }

    #[test]
    fn eq12_matches_the_closed_form_and_rejects_a_wrong_budget() {
        // Exponential(mean 1): F⁻¹(q) = −ln(1 − q).
        let d = Exponential::with_mean(1.0);
        let want = -(1.0 - 0.99f64.powf(0.1)).ln();
        assert!((homogeneous_tail_ms(&d, 0.99, 10) - want).abs() < 1e-9);
        let one: [(&dyn Cdf, u32); 1] = [(&d, 10)];
        assert!((heterogeneous_tail_ms(&one, 0.99) - want).abs() < 1e-9);

        let cluster = ClusterSpec::homogeneous(10, d);
        let slo = SimDuration::from_millis(20);
        let mut est =
            DeadlineEstimator::new(&cluster, vec![ClassSpec::p99(slo)], EstimatorMode::Analytic);
        let budget = est.budget(0, 10, &[]).as_millis_f64();
        let expected = 20.0 - want;
        let tol = ANALYTIC_TOL * want;
        assert!(check_close("budget", budget, expected, tol).is_none());
        assert!(check_close("budget", budget * 1.01, expected, tol).is_some());
        assert!(check_close("budget", budget + 0.001, expected, tol).is_some());
    }

    #[test]
    fn budget_check_accepts_exactly_the_tail_error_the_tail_check_accepts() {
        // Exponential(mean 1) at fanout 10 with an SLO of twice the tail,
        // as on `oldi_online` (tail about 0.55 ms, SLO 1 ms): a reference
        // tail off by half of ONLINE_TOL passes both checks, one off by
        // twice ONLINE_TOL fails both.
        let d = Exponential::with_mean(1.0);
        let tail = homogeneous_tail_ms(&d, 0.99, 10);
        let cluster = ClusterSpec::homogeneous(10, d);
        let slo_ms = 2.0 * tail;
        let mut est = DeadlineEstimator::new(
            &cluster,
            vec![ClassSpec::p99(SimDuration::from_millis_f64(slo_ms))],
            EstimatorMode::Analytic,
        );
        for (off, fails) in [(0.5, false), (-0.5, false), (2.0, true), (-2.0, true)] {
            let want = tail * (1.0 + off * ONLINE_TOL);
            let problems =
                check_tail_and_budget(&mut est, "case", 0, 10, &[], slo_ms, want, ONLINE_TOL);
            let n = if fails { 2 } else { 0 };
            assert_eq!(problems.len(), n, "off by {off} tolerances: {problems:?}");
        }
    }

    #[test]
    fn seeding_interval_holds_the_true_quantile() {
        // A uniform grid sample: the 0.9 quantile is 0.9.
        let xs: Vec<f64> = (1..=10_000).map(|i| f64::from(i) / 10_000.0).collect();
        let (emp, lo, hi) = empirical_quantile(&xs, 0.9);
        assert!((emp - 0.9).abs() < 1e-9);
        assert!(lo < 0.9 && 0.9 < hi);
        assert!(!(lo..=hi).contains(&0.95));
    }
}
