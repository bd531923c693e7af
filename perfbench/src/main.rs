//! # lmas-perfbench — wall-clock benchmark of the lmas emulator
//!
//! ```text
//! lmas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`sort_managed`, `sort_faulted_par`,
//! `tenants_aware` or `terraflow`; `BENCHMARK.json` at the repository
//! root says why each was chosen) in this process and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! - `--trace 0` times whole ops with no tracing at all and prints the
//!   end-to-end metrics: host seconds per op, set-up seconds, peak RSS,
//!   and the virtual-time fidelity metrics that guard the model.
//! - `--trace 1` times whole ops for the first half of the run, then
//!   the same work split into spans around its calls into each crate
//!   for the second half, and prints the per-layer metrics, the
//!   tracing overhead (traced over untraced median) and whether the
//!   workload's stated dominant layer holds.
//! - `--setup-only 1` (with `--workload` and `--seed` only) builds the
//!   workload's inputs once and prints the host seconds that took. The
//!   run starts itself this way between ops to time the set-up in
//!   fresh processes.
//!
//! Inputs are generated from `--seed`; the library only sees the
//! generated inputs. Every op's output is checked outside the timed
//! region, and every repetition must reproduce the virtual-time digest
//! of the first (for `sort_faulted_par`, of a one-thread reference run).
//! Traced ops do the same work as untraced ones and are held to the same
//! checks. A failed check, or a dominant layer the traced run does not
//! confirm, makes the command exit with code 1.

mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{median, Layers, Op, Outcome, TracedOp, Workload};

const USAGE: &str =
    "usage: lmas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// End-to-end metrics (`--trace 0`), in print order, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("op_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "s"),
    ("sim_latency_p50_s", "s"),
    ("sim_latency_tail_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in print order, with their units.
/// Every workload prints every one; a layer the workload does not call
/// reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("core.generate_s", "s"),
    ("sort.split_s", "s"),
    ("sort.pass1_s", "s"),
    ("sort.pass2_s", "s"),
    ("sort.faulty_s", "s"),
    ("sort.verify_s", "s"),
    ("emulator.events", "count"),
    ("emulator.ns_per_event_pass1", "ns"),
    ("emulator.ns_per_event_pass2", "ns"),
    ("emulator.records", "count"),
    ("emulator.fault_retries", "count"),
    ("emulator.fault_drops", "count"),
    ("emulator.reweights", "count"),
    ("emulator.mem_violations", "count"),
    ("sim.par.windows", "count"),
    ("sim.par.remote_messages", "count"),
    ("sim.par.critical_dispatched", "count"),
    ("sim.par.barrier_wait_s", "s"),
    ("storage.disk_ops", "count"),
    ("storage.disk_bytes", "bytes"),
    ("plan.solo_s", "s"),
    ("plan.residual_call_s", "s"),
    ("plan.share_est", "fraction"),
    ("sched.run_s", "s"),
    ("sched.jobs", "count"),
    ("sched.rejections", "count"),
    ("sched.mean_queue_wait_s", "s"),
    ("gis.step1_s", "s"),
    ("gis.sort_s", "s"),
    ("gis.label_s", "s"),
    ("unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Fewest ops a run times, however long they take.
const MIN_OPS: usize = 3;

/// Host seconds of set-up processes after each op; the mean of their
/// set-up times is one `setup_s` sample.
const SETUP_SLICE_S: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Build the inputs once, print the host seconds it took and exit.
    setup_only: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setup_only = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
            let switch = || match value.as_str() {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(format!("{flag} takes 0 or 1, not {value:?}")),
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => trace = Some(switch()?),
                "--setup-only" => setup_only = switch()?,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let missing = |f: &str| format!("missing {f}");
        let workload = workload.ok_or_else(|| missing("--workload"))?;
        let seed = seed.ok_or_else(|| missing("--seed"))?;
        if setup_only {
            return Ok(Args {
                workload,
                seed,
                seconds: 0,
                trace: false,
                setup_only,
            });
        }
        let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            setup_only,
        })
    }
}

/// Quartiles as Python's `statistics.quantiles(data, n=4)` gives them
/// (the default "exclusive" method), from sorted samples.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len() as i64;
    if ld < 2 {
        return [sorted.first().copied().unwrap_or(0.0); 3];
    }
    let m = ld + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    })
}

/// Process high-water resident set (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Attempts, failures and what failed.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Count a failed check that is not an op.
    fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(e);
    }

    /// Count one op. `expected` is the digest it must match; `None`
    /// adopts this op's digest for the ops after it.
    fn add(
        &mut self,
        arrivals: u64,
        outcome: Result<Outcome, String>,
        expected: &mut Option<u64>,
    ) -> Option<Outcome> {
        self.attempted += arrivals;
        let checked = outcome.and_then(|o| match *expected {
            Some(d) if d != o.digest => Err(format!(
                "virtual-time digest {:016x} differs from the reference {d:016x}",
                o.digest
            )),
            _ => {
                expected.get_or_insert(o.digest);
                Ok(o)
            }
        });
        match checked {
            Ok(o) => {
                if o.lost > 0 {
                    self.errors
                        .push(format!("{} arrivals refused or never completed", o.lost));
                }
                self.failed += o.lost;
                Some(o)
            }
            Err(e) => {
                self.errors.push(e);
                self.failed += arrivals;
                None
            }
        }
    }
}

/// One set-up in a fresh process: this program again with
/// `--setup-only 1`, which builds the inputs and prints the host seconds
/// that took.
fn setup_process(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--setup-only",
            "1",
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("set-up process {}: {}", out.status, err.trim()));
    }
    text.trim()
        .parse()
        .map_err(|e| format!("set-up process printed {text:?}: {e}"))
}

/// Run set-up processes for [`SETUP_SLICE_S`] of host time (at least
/// one) and keep the mean of their set-up times as one sample. The
/// slices sit between the ops, so the set-up's median samples the same
/// stretch of machine time as the ops'.
///
/// A fresh process sets up as the benchmark itself does before its
/// first op: on a new heap whose pages it faults in, not in memory and
/// caches an op has just warmed. It is also steadier. Repeated in one
/// process, terraflow's millisecond of terrain generation ran at one of
/// two speeds, about 0.9 ms or 1.6 ms, and which one dominated depended
/// on the process; a slice of fresh processes averages over both.
fn resetup(args: &Args, setup: &mut Vec<f64>, tally: &mut Tally) {
    let start = Instant::now();
    let (mut sum, mut count) = (0.0, 0u32);
    while count == 0 || start.elapsed().as_secs_f64() < SETUP_SLICE_S {
        match setup_process(args) {
            Ok(s) => {
                sum += s;
                count += 1;
            }
            Err(e) => return tally.fail(format!("set-up: {e}")),
        }
    }
    setup.push(sum / f64::from(count));
}

/// Run untraced ops, each followed by a set-up, until `budget` has
/// passed (at least [`MIN_OPS`]). Returns each op's host seconds.
fn untraced_ops(
    args: &Args,
    w: &dyn Workload,
    budget: Duration,
    tally: &mut Tally,
    expected: &mut Option<u64>,
    setup: &mut Vec<f64>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_OPS || start.elapsed() < budget {
        let Op { wall_s, outcome } = w.op();
        walls.push(wall_s);
        tally.add(w.arrivals(), outcome, expected);
        resetup(args, setup, tally);
    }
    walls
}

/// Print a sample summary: median, quartiles and count.
fn summary(name: &str, samples: &[f64]) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let [q1, q2, q3] = quartiles(&s);
    println!(
        "{name}: median {:.6} s, quartiles [{q1:.6}, {q2:.6}, {q3:.6}] s, n = {}",
        median(&s),
        s.len()
    );
}

/// Nearest-rank latency percentiles of one op's jobs: the median, and
/// the highest percentile with at least ten completed jobs beyond it.
/// A one-job op has one latency, which is both.
fn latency_metrics(latencies: &[f64]) -> (f64, f64) {
    let mut ls = latencies.to_vec();
    ls.sort_by(f64::total_cmp);
    let n = ls.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let p50 = ls[n.div_ceil(2) - 1];
    let (rank, note) = if n > 10 {
        (
            n - 10,
            format!(
                "p{:.1}, 10 of {n} jobs beyond it",
                100.0 * (n - 10) as f64 / n as f64
            ),
        )
    } else {
        (n, format!("the maximum: only {n} job(s), fewer than 11"))
    };
    println!(
        "sim_latency: p50 {p50:.6} s, tail {:.6} s ({note})",
        ls[rank - 1]
    );
    (p50, ls[rank - 1])
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match workloads::setup(&args.workload, args.seed) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "machine: {{\"cores\": {cores}, \"rustc\": \"{}\", \"profile\": \"{}\", \"git_commit\": \"{}\"}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_GIT_COMMIT")
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let w = match workloads::build(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(1);
        }
    };

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut setup = Vec::new();
    let mut expected = w.reference_digest();
    // Warm-up: caches fill and lazy set-up finishes; its output is
    // checked and its digest becomes the reference when there is none.
    let warm = tally.add(w.arrivals(), w.op().outcome, &mut expected);

    let budget = Duration::from_secs(args.seconds);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let walls = untraced_ops(&args, &*w, budget, &mut tally, &mut expected, &mut setup);
        summary("op_wall_s", &walls);
        summary("setup_s", &setup);
        let rss = match peak_rss_mb() {
            Ok(v) => v,
            Err(e) => {
                tally.errors.push(e);
                0.0
            }
        };
        // Every checked repetition reproduces the warm-up's virtual times.
        let makespan = warm.as_ref().map_or(0.0, |o| o.makespan_s);
        let (p50, tail) = latency_metrics(warm.as_ref().map_or(&[][..], |o| &o.latencies_s[..]));
        let values = [median(&walls), median(&setup), rss, makespan, p50, tail];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
    } else {
        let walls = untraced_ops(
            &args,
            &*w,
            budget / 2,
            &mut tally,
            &mut expected,
            &mut setup,
        );
        let start = Instant::now();
        let mut traced_walls = Vec::new();
        let mut per_op: Vec<Layers> = Vec::new();
        while traced_walls.len() < MIN_OPS || start.elapsed() < budget / 2 {
            let TracedOp {
                wall_s,
                layers,
                outcome,
            } = w.traced_op();
            traced_walls.push(wall_s);
            if tally.add(w.arrivals(), outcome, &mut expected).is_some() {
                per_op.push(layers);
            }
        }
        summary("untraced op_wall_s", &walls);
        summary("traced op_wall_s", &traced_walls);
        let (untraced_s, traced_s) = (median(&walls), median(&traced_walls));
        let mut layers = Layers::new();
        for (name, _) in PER_LAYER {
            let v: Vec<f64> = per_op.iter().filter_map(|l| l.get(name).copied()).collect();
            if !v.is_empty() {
                layers.insert(name, median(&v));
            }
        }
        layers.insert("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
        println!(
            "tracing overhead: traced median {traced_s:.6} s - untraced median {untraced_s:.6} s = {:.6} s",
            traced_s - untraced_s
        );
        match w.probes(&layers) {
            Ok(p) => layers.extend(p),
            Err(e) => tally.fail(e),
        }
        for name in per_op.iter().flat_map(|l| l.keys()).chain(layers.keys()) {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a per-layer metric of BENCHMARK.json"
            );
        }
        if let (Some(&events), Some(&critical)) = (
            layers.get("emulator.events"),
            layers.get("sim.par.critical_dispatched"),
        ) {
            println!(
                "virtual parallelism (dispatched / critical_dispatched; a model of the best case, \
                 not a speedup): {:.2}",
                events / critical
            );
        }
        if per_op.is_empty() {
            tally.fail(
                "no traced op passed its checks, so the dominant layer is unconfirmed".into(),
            );
        } else {
            let (claim, holds) = w.dominant(&layers, traced_s);
            let verdict = if holds { "confirmed" } else { "NOT confirmed" };
            println!("dominant layer on {}: {claim}: {verdict}", args.workload);
            if !holds {
                tally.fail(format!("dominant layer not confirmed: {claim}"));
            }
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    }

    let correct = tally.errors.is_empty() && tally.failed == 0;
    for e in &tally.errors {
        println!("FAILED: {e}");
    }
    println!(
        "failed_frac: {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(data, n=4) for each sorted input.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            (&[1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.0, 4.5]),
            (
                &[1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0, 6.0, 9.0],
                [1.75, 3.5, 5.25],
            ),
        ];
        for (data, want) in cases {
            assert_eq!(quartiles(data), want, "{data:?}");
        }
    }
}
