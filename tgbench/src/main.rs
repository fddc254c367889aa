//! The TailGuard benchmark: one workload per process, on one thread.
//!
//! ```text
//! tgbench --workload <maxload_fig5|oldi_online|gray_ops|sas_testbed>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it searches the workload's `max_load`, runs whole
//! rounds of the workload for `--seconds` (setting the workload up again at
//! even intervals, for the median set-up time), checks the outputs against
//! computations made apart from the program, and prints the end-to-end
//! metrics. Set-up times and the round rate are scaled to a nominal host
//! speed (see `util::HostSpeed`). With `--trace 1` it instead drives
//! the same inputs through its own instrumented loop and prints the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod traced;
mod util;
mod workloads;

use std::time::Instant;
use util::{median, peak_rss_mb, result_json, HostSpeed, Metrics};
use workloads::{round, search_max_load, Digest, Kind, Pool, Setup};

/// Set-ups timed per run; `setup_s` is the median of their scaled times.
const SETUP_REPS: usize = 15;
/// Seconds between reference passes in the timed region. Rounds run back
/// to back in between, so most start with the caches as the previous round
/// left them rather than as the 2 MB reference kernel left them.
const REFERENCE_INTERVAL_S: f64 = 0.05;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints.
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Sets the workload up once. Returns the set-up and its duration on the
/// nominal host: scaled by the mean speed of the reference pass just before
/// it (`speed`) and of one just after it, which becomes `speed`.
fn timed_setup(kind: Kind, seed: u64, host: &mut HostSpeed, speed: &mut f64) -> (Setup, f64) {
    let (setup, secs) = workloads::setup(kind, seed);
    let after = host.sample();
    let scaled = secs * 0.5 * (*speed + after);
    *speed = after;
    (setup, scaled)
}

/// The untraced run: the `max_load` search, set-up, timed rounds, checks,
/// end-to-end metrics.
fn end_to_end(args: &Args) -> Outcome {
    let kind = args.kind;
    // The search runs first, while the benchmark holds no inputs of its
    // own: its probes are the largest runs of the program in the process,
    // so the peak resident set up to here is the program's.
    let max_load = search_max_load(kind, args.seed);
    let rss = peak_rss_mb();

    // Set-ups are timed throughout the run, the first before the timed
    // region and the others between rounds, evenly spaced: the host's speed
    // drifts over seconds, and set-ups taken in one burst would sample a
    // single moment of it. A reference pass follows every set-up, and one
    // runs between rounds every `REFERENCE_INTERVAL_S` (see `HostSpeed`).
    let mut host = HostSpeed::new();
    let mut speed = host.sample();
    let (mut setup, secs) = timed_setup(kind, args.seed, &mut host, &mut speed);
    let mut setup_secs = vec![secs];

    // Timed rounds cycle through the sub-inputs. The first pass over them
    // gives the latency metrics; every later pass must repeat it exactly.
    let k = kind.sub_inputs();
    let mut problems = Vec::new();
    let mut pool = Pool::default();
    let mut digests: Vec<Digest> = Vec::with_capacity(k);
    let mut first = None;
    let (mut rounds, mut queries, mut lost) = (0u64, 0u64, 0u64);
    let (mut reports, mut failed_reports) = (0u64, 0u64);
    let (mut best_rate, mut best_speed, mut next_pass) = (0.0f64, 0.0f64, 0.0f64);
    let start = Instant::now();
    loop {
        let i = rounds as usize % k;
        let round_start = Instant::now();
        let r = round(&setup, i);
        best_rate = best_rate.max(r.queries as f64 / round_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= next_pass {
            speed = host.sample();
            best_speed = best_speed.max(speed);
            next_pass += REFERENCE_INTERVAL_S;
        }
        rounds += 1;
        queries += r.queries;
        lost += r.digest.lost;
        if let Some(complete) = r.digest.slo_report() {
            reports += 1;
            failed_reports += u64::from(!complete);
        }
        if digests.len() < k {
            pool.add_round(&r);
            digests.push(r.digest.clone());
            if i == 0 {
                first = Some(r);
            }
        } else if r.digest != digests[i] {
            problems.push(format!(
                "round {rounds} on sub-input {i} differs from its first run: {:?} vs {:?}",
                r.digest, digests[i]
            ));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if setup_secs.len() < SETUP_REPS
            && elapsed >= args.seconds * setup_secs.len() as f64 / SETUP_REPS as f64
        {
            let (again, secs) = timed_setup(kind, args.seed, &mut host, &mut speed);
            setup_secs.push(secs);
            setup = again;
        }
        if digests.len() == k && setup_secs.len() == SETUP_REPS && elapsed >= args.seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let first = first.expect("sub-input 0 ran");
    let (p50, p99) = pool.percentiles_ms();
    let worst = pool.worst_tail_ratio();

    let verdict = checks::check_run(&mut setup, &first, max_load);
    problems.extend(verdict.problems);
    if verdict
        .slo_report_ok
        .is_some_and(|ok| ok != (failed_reports == 0))
    {
        problems.push("the SLO report check disagrees with the per-round count".into());
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_secs), "s");
    m.put("queries_per_s", best_rate / best_speed, "1/s");
    m.put("peak_rss_mb", rss, "MB");
    m.put("query_p50_ms", p50, "ms");
    m.put("query_p99_ms", p99, "ms");
    m.put("worst_tail_ratio", worst, "ratio");
    m.put("max_load", max_load, "load");
    eprintln!(
        "{}: {rounds} rounds, {queries} queries in {wall:.3} s; {failed_reports} of {reports} SLO reports incomplete; \
         unscaled: fastest round {best_rate:.0} queries/s; fastest reference pass {best_speed:.4} of nominal",
        kind.name()
    );
    // Operations: every query of every round, plus gray_ops' SLO report
    // of each round.
    Outcome {
        problems,
        attempted: queries + reports,
        failed: lost + failed_reports,
        metrics: m,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tgbench: {e}");
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced::run(&args)
    } else {
        end_to_end(&args)
    };
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "{}",
        result_json(
            out.problems.is_empty(),
            out.attempted,
            out.failed,
            &out.metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload gray_ops --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.kind, Kind::GrayOps);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload gray_ops --trace 2")).is_err());
        assert!(parse_args(&argv("--workload gray_ops --seconds")).is_err());
    }
}
