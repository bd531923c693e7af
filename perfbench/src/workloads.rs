//! The four workloads. Each owns its generated inputs, runs one op
//! untraced (untimed preparation, the timed call, then the untimed
//! output check) or traced (the same work split into spans around its
//! calls into each crate), and reports a virtual-time digest that every
//! repetition must reproduce.

use lmas_core::functor::lib::RelayFunctor;
use lmas_core::functor::Functor;
use lmas_core::{
    generate_rec128, packetize, EdgeKind, FlowGraph, KeyDist, NodeId, Placement, Rec128, Rec8,
    Record, RoutingPolicy,
};
use lmas_emulator::{
    asu_index, run_job, BalanceSpec, ClusterConfig, EmulationReport, FaultSpec, Job,
};
use lmas_gis::{
    build_restructure_job, fractal_terrain, run_terraflow, watershed_oracle, CellRec, Grid,
    WatershedFunctor,
};
use lmas_plan::ResidualCapacity;
use lmas_sched::{run_scheduled, ArrivalSpec, Policy, SchedOutcome, SchedSpec};
use lmas_sim::{FaultPlan, LogHist, SimDuration, SimTime};
use lmas_sort::{
    choose_splitters, plan_pass1_coded, plan_pass1_residual, reconstruct_sorted, run_dsm_sort,
    run_dsm_sort_faulty, run_pass1, run_pass1_with, run_pass2, split_across_asus,
    verify_rec128_output, DsmConfig, LoadMode,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer figures by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a checked op produced, in virtual time.
pub struct Outcome {
    /// FNV-1a over makespans, dispatch counts and per-stage records in
    /// (the scheduler's full deterministic JSON for `tenants_aware`).
    pub digest: u64,
    /// Virtual makespan of the op.
    pub makespan_s: f64,
    /// Virtual arrival-to-completion latency of every completed job.
    pub latencies_s: Vec<f64>,
    /// Arrivals refused or never completed.
    pub lost: u64,
}

/// One untraced op.
pub struct Op {
    /// Host seconds of the timed call alone.
    pub wall_s: f64,
    /// The checked outcome, or why the call or its check failed.
    pub outcome: Result<Outcome, String>,
}

/// One traced op: the op's wall time, its spans and layer counters.
pub struct TracedOp {
    /// Host seconds from the first traced call to the last.
    pub wall_s: f64,
    /// Span seconds and counters by metric name, plus
    /// `unattributed_frac`.
    pub layers: Layers,
    /// Same contract as [`Op::outcome`].
    pub outcome: Result<Outcome, String>,
}

/// A workload the harness can time, trace and check.
pub trait Workload {
    /// Attempts one op stands for.
    fn arrivals(&self) -> u64 {
        1
    }
    /// Run one op untraced.
    fn op(&self) -> Op;
    /// Run one op as spans around its calls into each crate.
    fn traced_op(&self) -> TracedOp;
    /// Digest of an out-of-band reference run that every untraced
    /// repetition must also match.
    fn reference_digest(&self) -> Option<u64> {
        None
    }
    /// Layer figures measured outside the ops, once per traced run;
    /// `traced` holds the medians of the traced ops.
    fn probes(&self, _traced: &Layers) -> Result<Layers, String> {
        Ok(Layers::new())
    }
    /// The layer this workload was chosen to stress, and whether the
    /// traced medians confirm it.
    fn dominant(&self, layers: &Layers, op_s: f64) -> (String, bool);
}

/// Build a workload from its name and seed.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sort_managed" => Box::new(SortManaged::build(seed)),
        "sort_faulted_par" => Box::new(SortFaulted::build(seed)?),
        "tenants_aware" => Box::new(Tenants::build(seed)?),
        "terraflow" => Box::new(Terraflow::build(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Build a workload's inputs from its seed, as its set-up does before
/// the first op, and return the host seconds that took. The benchmark's
/// reference computations are not part of it.
pub fn setup(name: &str, seed: u64) -> Result<f64, String> {
    match name {
        "sort_managed" | "sort_faulted_par" => Ok(timed(|| sort_inputs(seed)).0),
        "tenants_aware" => {
            let (s, inputs) = timed(|| tenant_inputs(seed));
            inputs.map(|_| s)
        }
        "terraflow" => Ok(timed(|| terraflow_inputs(seed)).0),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Host seconds of one call of `f`, whose result is dropped untimed.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn report<R: Record>(&mut self, r: &EmulationReport<R>) {
        self.word(r.makespan.as_nanos());
        self.word(r.dispatched);
        for &n in &r.stage_records_in {
            self.word(n);
        }
    }
}

/// Spans and counters of one traced op.
struct Spans {
    layers: Layers,
    covered_s: f64,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            layers: Layers::new(),
            covered_s: 0.0,
        }
    }

    /// Time `f` as a span of the op under `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (s, v) = timed(f);
        *self.layers.entry(name).or_default() += s;
        self.covered_s += s;
        v
    }

    /// Add to a figure that is not a span of the op (a counter, or a
    /// check timed after it).
    fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_default() += v;
    }

    /// The emulator, partition-sync and storage counters of `reports`.
    fn reports<R: Record>(&mut self, reports: &[&EmulationReport<R>]) {
        for r in reports {
            self.add("emulator.events", r.dispatched as f64);
            self.add("emulator.records", r.records_processed as f64);
            self.add("emulator.fault_retries", r.fault.retries as f64);
            self.add("emulator.fault_drops", r.fault.drops as f64);
            self.add("emulator.reweights", r.reweights as f64);
            self.add("emulator.mem_violations", r.mem_violations.len() as f64);
            for n in &r.nodes {
                self.add("storage.disk_ops", (n.disk.0 + n.disk.1) as f64);
                self.add("storage.disk_bytes", (n.disk.2 + n.disk.3) as f64);
            }
            if let Some(p) = &r.par {
                self.add("sim.par.windows", p.windows as f64);
                self.add("sim.par.remote_messages", p.remote_messages as f64);
                self.add("sim.par.critical_dispatched", p.critical_dispatched as f64);
                self.add(
                    "sim.par.barrier_wait_s",
                    approx_total_s(&p.barrier_wait_hist),
                );
            }
        }
    }

    /// Close the op: its wall time and the share no span covers.
    fn finish(mut self, wall: Duration, outcome: Result<Outcome, String>) -> TracedOp {
        let wall_s = wall.as_secs_f64();
        self.layers.insert(
            "unattributed_frac",
            1.0 - self.covered_s / wall_s.max(f64::MIN_POSITIVE),
        );
        TracedOp {
            wall_s,
            layers: self.layers,
            outcome,
        }
    }
}

/// A layer figure, 0 when the run did not produce it.
fn at(l: &Layers, name: &str) -> f64 {
    l.get(name).copied().unwrap_or(0.0)
}

/// Approximate total of a log2 histogram of nanoseconds: each value is
/// taken as the middle of its bucket `[2^i, 2^(i+1))`.
fn approx_total_s(h: &LogHist) -> f64 {
    h.nonzero()
        .map(|(i, c)| c as f64 * 1.5 * (1u64 << i) as f64)
        .sum::<f64>()
        / 1e9
}

// ---------------------------------------------------------------------
// sort_managed / sort_faulted_par: the 256-node DSM-Sort cell.

const SORT_HOSTS: usize = 64;
const SORT_ASUS: usize = 192;
const SORT_RECORDS: u64 = 524_288;
const SORT_MODE: LoadMode = LoadMode::Managed(RoutingPolicy::RoundRobin);

fn sort_dsm() -> DsmConfig {
    DsmConfig::new(4, 256, 8, 64)
}

/// Set-up shared by both sort workloads: the input and the cluster.
fn sort_inputs(seed: u64) -> (Vec<Rec128>, ClusterConfig) {
    (
        generate_rec128(SORT_RECORDS, KeyDist::Uniform, seed),
        ClusterConfig::era_2002(SORT_HOSTS, SORT_ASUS, 8.0),
    )
}

/// `core.generate_s`: the median of three `generate_rec128` calls.
fn generate_probe(seed: u64) -> f64 {
    let s: Vec<f64> = (0..3)
        .map(|_| timed(|| generate_rec128(SORT_RECORDS, KeyDist::Uniform, seed)).0)
        .collect();
    median(&s)
}

/// The outcome of a one-job op: it arrives at time zero, so its latency
/// is its makespan.
fn single_job(digest: u64, total: SimDuration) -> Outcome {
    Outcome {
        digest,
        makespan_s: total.as_secs_f64(),
        latencies_s: vec![total.as_secs_f64()],
        lost: 0,
    }
}

/// `run_dsm_sort` on one engine thread: calendar, dispatch, routing and
/// the functor kernels.
struct SortManaged {
    seed: u64,
    cluster: ClusterConfig,
    data: Vec<Rec128>,
    dsm: DsmConfig,
}

impl SortManaged {
    fn build(seed: u64) -> SortManaged {
        let (data, cluster) = sort_inputs(seed);
        SortManaged {
            seed,
            cluster,
            data,
            dsm: sort_dsm(),
        }
    }
}

impl Workload for SortManaged {
    fn op(&self) -> Op {
        let data = self.data.clone();
        let t = Instant::now();
        let out = run_dsm_sort(&self.cluster, data, &self.dsm, SORT_MODE);
        let wall_s = t.elapsed().as_secs_f64();
        let outcome = out.map_err(|e| e.to_string()).and_then(|o| {
            verify_rec128_output(&o.output, SORT_RECORDS).map_err(|e| e.to_string())?;
            let mut d = Fnv::new();
            d.report(&o.pass1);
            d.report(&o.pass2);
            Ok(single_job(d.0, o.total))
        });
        Op { wall_s, outcome }
    }

    fn traced_op(&self) -> TracedOp {
        let data = self.data.clone();
        let (cluster, dsm) = (&self.cluster, &self.dsm);
        let mut sp = Spans::new();
        let t = Instant::now();
        let (splitters, per_asu) = sp.time("sort.split_s", || {
            (
                choose_splitters(&data, dsm.alpha),
                split_across_asus(&data, cluster.asus),
            )
        });
        drop(data);
        let run = || -> Result<_, String> {
            let p1 = sp.time("sort.pass1_s", || {
                run_pass1(cluster, per_asu, splitters.clone(), dsm, SORT_MODE)
            });
            let p1 = p1.map_err(|e| e.to_string())?;
            let p2 = sp.time("sort.pass2_s", || {
                run_pass2(cluster, p1.runs_per_asu, splitters, dsm)
            });
            Ok((p1.report, p2.map_err(|e| e.to_string())?))
        };
        let res = run();
        let wall = t.elapsed();
        let outcome = res.and_then(|(pass1, p2)| {
            let tv = Instant::now();
            let checked = verify_rec128_output(&p2.output, SORT_RECORDS);
            sp.add("sort.verify_s", tv.elapsed().as_secs_f64());
            checked.map_err(|e| e.to_string())?;
            sp.reports(&[&pass1, &p2.report]);
            let per_event = |s: f64, events: u64| s * 1e9 / events.max(1) as f64;
            let ns1 = per_event(sp.layers["sort.pass1_s"], pass1.dispatched);
            let ns2 = per_event(sp.layers["sort.pass2_s"], p2.report.dispatched);
            sp.add("emulator.ns_per_event_pass1", ns1);
            sp.add("emulator.ns_per_event_pass2", ns2);
            let mut d = Fnv::new();
            d.report(&pass1);
            d.report(&p2.report);
            Ok(single_job(d.0, pass1.makespan + p2.report.makespan))
        });
        sp.finish(wall, outcome)
    }

    fn probes(&self, _traced: &Layers) -> Result<Layers, String> {
        Ok(Layers::from([(
            "core.generate_s",
            generate_probe(self.seed),
        )]))
    }

    fn dominant(&self, l: &Layers, op_s: f64) -> (String, bool) {
        let par: f64 = [
            "sim.par.windows",
            "sim.par.remote_messages",
            "sim.par.critical_dispatched",
        ]
        .iter()
        .map(|k| at(l, k))
        .sum();
        let passes = at(l, "sort.pass1_s") + at(l, "sort.pass2_s");
        (
            format!(
                "sim.par.* is zero ({par}) and the two emulated passes take {:.1}% of the op",
                100.0 * passes / op_s
            ),
            par == 0.0,
        )
    }
}

/// `run_dsm_sort_faulty` at two engine threads under a crash, a
/// recovery, a lossy link and the snapshot balancer.
struct SortFaulted {
    seed: u64,
    cluster: ClusterConfig,
    spec: FaultSpec,
    data: Vec<Rec128>,
    dsm: DsmConfig,
    /// Digest of the whole sort, and of pass 1 alone, at one thread.
    reference: u64,
    reference_pass1: u64,
}

impl SortFaulted {
    fn build(seed: u64) -> Result<SortFaulted, String> {
        let (data, base) = sort_inputs(seed);
        let dsm = sort_dsm();
        // Reference runs, outside set-up: the fault-free sort fixes the
        // crash instant at a third of its pass-1 makespan, and one
        // sequential run of the faulted spec fixes the digest the
        // two-thread repetitions must match.
        let clean =
            run_dsm_sort(&base, data.clone(), &dsm, SORT_MODE).map_err(|e| e.to_string())?;
        let t_crash = SimTime(clean.pass1.makespan.as_nanos() / 3);
        drop(clean);
        let asu1 = asu_index(&base, 1);
        let plan = FaultPlan::new()
            .crash(asu1, t_crash)
            .recover(asu1, t_crash + SimDuration::from_millis(40))
            .link_loss(0, asu_index(&base, 0), SimTime::ZERO, 0.05);
        let spec = FaultSpec::with_plan(plan);
        let balanced = base.with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
        let mut w = SortFaulted {
            seed,
            cluster: balanced.with_threads(2),
            spec,
            data,
            dsm,
            reference: 0,
            reference_pass1: 0,
        };
        let one = run_dsm_sort_faulty(&balanced, &w.spec, w.data.clone(), &w.dsm, SORT_MODE)
            .map_err(|e| format!("one-thread reference: {e}"))?;
        w.reference = faulty_digest(&one);
        let mut d = Fnv::new();
        d.report(&one.pass1);
        w.reference_pass1 = d.0;
        Ok(w)
    }
}

fn faulty_digest(o: &lmas_sort::FaultyDsmOutcome<Rec128>) -> u64 {
    let mut d = Fnv::new();
    d.report(&o.pass1);
    if let Some(r) = &o.repair {
        d.report(r);
    }
    d.report(&o.pass2);
    d.word(o.recovered_records);
    d.0
}

impl Workload for SortFaulted {
    fn op(&self) -> Op {
        let data = self.data.clone();
        let t = Instant::now();
        let out = run_dsm_sort_faulty(&self.cluster, &self.spec, data, &self.dsm, SORT_MODE);
        let wall_s = t.elapsed().as_secs_f64();
        let outcome = out.map_err(|e| e.to_string()).and_then(|o| {
            verify_rec128_output(&o.output, SORT_RECORDS).map_err(|e| e.to_string())?;
            Ok(single_job(faulty_digest(&o), o.total))
        });
        Op { wall_s, outcome }
    }

    fn reference_digest(&self) -> Option<u64> {
        Some(self.reference)
    }

    fn traced_op(&self) -> TracedOp {
        let data = self.data.clone();
        let mut sp = Spans::new();
        let t = Instant::now();
        let out = sp.time("sort.faulty_s", || {
            run_dsm_sort_faulty(&self.cluster, &self.spec, data, &self.dsm, SORT_MODE)
        });
        let wall = t.elapsed();
        let outcome = out.map_err(|e| e.to_string()).and_then(|o| {
            let tv = Instant::now();
            let checked = verify_rec128_output(&o.output, SORT_RECORDS);
            sp.add("sort.verify_s", tv.elapsed().as_secs_f64());
            checked.map_err(|e| e.to_string())?;
            let reports: Vec<&EmulationReport<Rec128>> =
                [Some(&o.pass1), o.repair.as_ref(), Some(&o.pass2)]
                    .into_iter()
                    .flatten()
                    .collect();
            sp.reports(&reports);
            Ok(single_job(faulty_digest(&o), o.total))
        });
        sp.finish(wall, outcome)
    }

    /// Pass 1 of the faulted sort cannot be timed apart from the rest
    /// from outside `run_dsm_sort_faulty`, so it is run again on its own
    /// (`run_pass1_with`, the op's first step) and checked against the
    /// one-thread reference's pass 1.
    fn probes(&self, _traced: &Layers) -> Result<Layers, String> {
        let mut walls = Vec::new();
        let mut per_event = Vec::new();
        for _ in 0..3 {
            let splitters = choose_splitters(&self.data, self.dsm.alpha);
            let per_asu = split_across_asus(&self.data, self.cluster.asus);
            let t = Instant::now();
            let p1 = run_pass1_with(
                &self.cluster,
                &self.spec,
                per_asu,
                splitters,
                &self.dsm,
                SORT_MODE,
            );
            let s = t.elapsed().as_secs_f64();
            let p1 = p1.map_err(|e| e.to_string())?;
            let mut d = Fnv::new();
            d.report(&p1.report);
            if d.0 != self.reference_pass1 {
                return Err("pass-1 probe differs from the one-thread reference".into());
            }
            walls.push(s);
            per_event.push(s * 1e9 / p1.report.dispatched.max(1) as f64);
        }
        Ok(Layers::from([
            ("core.generate_s", generate_probe(self.seed)),
            ("sort.pass1_s", median(&walls)),
            ("emulator.ns_per_event_pass1", median(&per_event)),
        ]))
    }

    fn dominant(&self, l: &Layers, _op_s: f64) -> (String, bool) {
        let remote = at(l, "sim.par.remote_messages");
        (
            format!(
                "partition sync runs: {remote} remote messages over {} windows, \
                 ~{:.3} s parked at barriers",
                at(l, "sim.par.windows"),
                at(l, "sim.par.barrier_wait_s")
            ),
            remote > 0.0,
        )
    }
}

// ---------------------------------------------------------------------
// tenants_aware: open Poisson arrivals through the scheduler.

const TENANTS: usize = 3;
const TENANT_UTIL: f64 = 0.9;
/// Arrivals per op.
const TENANT_JOBS: usize = 120;
/// Interactive and batch job sizes, in `Rec8` records, and their 3:1 mix.
const TENANT_KINDS: [u64; 2] = [2_500, 10_000];
const TENANT_MIX: [u64; 2] = [3, 1];

/// The cluster, the sort configuration and the arrival trace.
fn tenant_inputs(seed: u64) -> Result<(ClusterConfig, DsmConfig, SchedSpec), String> {
    let cluster = ClusterConfig::era_2002(16, 16, 2.0);
    let dsm = DsmConfig::new(8, 256, 4, 64);
    // The arrival rate comes from the planner's solo cost of the mix:
    // offered utilization ρ with T tenants of mean inter-arrival M is
    // E[C]·T/M.
    let mut cost_ns = 0.0;
    for (&n, &w) in TENANT_KINDS.iter().zip(&TENANT_MIX) {
        let (_, solo) = plan_pass1_coded::<Rec8>(&cluster, &dsm, n, &[1])
            .map_err(|e| format!("solo planning failed: {e}"))?;
        cost_ns += w as f64 * solo.estimate.makespan_ns;
    }
    cost_ns /= TENANT_MIX.iter().sum::<u64>() as f64;
    let mean_ns = (cost_ns * TENANTS as f64 / TENANT_UTIL).max(1.0);
    // The Poisson stream conditioned on exactly TENANT_JOBS arrivals in
    // its expected horizon H, so every seed gives an op of the same size
    // and length: the first n arrival times divided by the (n+1)-th are
    // distributed as n sorted uniforms, so scaling them by H gives that
    // process.
    let horizon_ns = TENANT_JOBS as f64 / TENANTS as f64 * mean_ns;
    let stream = ArrivalSpec::poisson(
        seed,
        TENANTS,
        SimDuration::from_nanos(mean_ns as u64),
        SimDuration::from_nanos((2.0 * horizon_ns) as u64),
        &TENANT_MIX,
    )
    .sorted_events();
    let end = stream
        .get(TENANT_JOBS)
        .map_or(2.0 * horizon_ns, |e| e.at.as_nanos() as f64);
    let arrivals = stream
        .iter()
        .take(TENANT_JOBS)
        .fold(ArrivalSpec::new(), |a, e| {
            let at = (e.at.as_nanos() as f64 * horizon_ns / end) as u64;
            a.job(e.tenant, e.kind, SimTime(at))
        });
    let deep = arrivals.len().max(1);
    let spec = SchedSpec::new(arrivals, TENANT_KINDS.to_vec())
        .with_policy(Policy::WeightedFair)
        .with_quota(2)
        .with_queue_cap(deep)
        .with_load_limit(1.2)
        .with_aware(true)
        .with_seed(seed ^ 0x7E4A_4175);
    Ok((cluster, dsm, spec))
}

/// `run_scheduled` with weighted-fair dispatch and interference-aware
/// residual planning.
struct Tenants {
    cluster: ClusterConfig,
    dsm: DsmConfig,
    spec: SchedSpec,
    /// Arrivals per job kind.
    per_kind: [u64; 2],
}

impl Tenants {
    fn build(seed: u64) -> Result<Tenants, String> {
        let (cluster, dsm, spec) = tenant_inputs(seed)?;
        let mut per_kind = [0u64; 2];
        for e in spec.arrivals.sorted_events() {
            per_kind[e.kind] += 1;
        }
        Ok(Tenants {
            cluster,
            dsm,
            spec,
            per_kind,
        })
    }

    fn check(&self, out: SchedOutcome) -> Outcome {
        // A refused job never completes, so every arrival without a
        // completion is lost.
        let mut d = Fnv::new();
        d.bytes(out.to_json().as_bytes());
        Outcome {
            digest: d.0,
            makespan_s: out.makespan.as_secs_f64(),
            latencies_s: out.latencies().iter().map(|l| l.as_secs_f64()).collect(),
            lost: self.arrivals().saturating_sub(out.completed() as u64),
        }
    }
}

impl Workload for Tenants {
    fn arrivals(&self) -> u64 {
        self.spec.arrivals.len() as u64
    }

    fn op(&self) -> Op {
        let t = Instant::now();
        let out = run_scheduled(&self.cluster, &self.dsm, &self.spec);
        let wall_s = t.elapsed().as_secs_f64();
        let outcome = out.map_err(|e| format!("{e:?}")).map(|o| self.check(o));
        Op { wall_s, outcome }
    }

    fn traced_op(&self) -> TracedOp {
        let mut sp = Spans::new();
        let t = Instant::now();
        let out = sp.time("sched.run_s", || {
            run_scheduled(&self.cluster, &self.dsm, &self.spec)
        });
        let wall = t.elapsed();
        let outcome = out.map_err(|e| format!("{e:?}")).map(|o| {
            sp.add("sched.jobs", o.jobs.len() as f64);
            sp.add("sched.rejections", o.rejections.len() as f64);
            sp.add("sched.mean_queue_wait_s", o.mean_queue_wait().as_secs_f64());
            sp.add("emulator.records", o.records_processed as f64);
            self.check(o)
        });
        sp.finish(wall, outcome)
    }

    /// The planner's calls, timed apart: `run_scheduled` makes one
    /// `plan_pass1_residual` call per arrival, so calls × per-call time
    /// over the op estimates the planner's share of it.
    fn probes(&self, traced: &Layers) -> Result<Layers, String> {
        let nodes = self.cluster.hosts + self.cluster.asus;
        let time_calls = |f: &dyn Fn(u64) -> Result<(), String>| -> Result<[f64; 2], String> {
            let mut per_call = [0.0; 2];
            for (k, &n) in TENANT_KINDS.iter().enumerate() {
                let mut s = Vec::new();
                for _ in 0..5 {
                    let t = Instant::now();
                    f(n)?;
                    s.push(t.elapsed().as_secs_f64());
                }
                per_call[k] = median(&s);
            }
            Ok(per_call)
        };
        let solo = time_calls(&|n| {
            plan_pass1_coded::<Rec8>(&self.cluster, &self.dsm, n, &[1])
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        let residual = time_calls(&|n| {
            plan_pass1_residual::<Rec8>(&self.cluster, &self.dsm, n, &ResidualCapacity::full(nodes))
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        let mix: f64 = TENANT_MIX.iter().sum::<u64>() as f64;
        let weighted = |c: [f64; 2]| (0..2).map(|k| c[k] * TENANT_MIX[k] as f64).sum::<f64>() / mix;
        let planned: f64 = (0..2).map(|k| residual[k] * self.per_kind[k] as f64).sum();
        Ok(Layers::from([
            ("plan.solo_s", weighted(solo)),
            ("plan.residual_call_s", weighted(residual)),
            (
                "plan.share_est",
                planned / traced["sched.run_s"].max(f64::MIN_POSITIVE),
            ),
        ]))
    }

    fn dominant(&self, l: &Layers, _op_s: f64) -> (String, bool) {
        let share = at(l, "plan.share_est");
        (
            format!(
                "residual planning is an estimated {:.1}% of the op",
                100.0 * share
            ),
            share > 0.5,
        )
    }
}

// ---------------------------------------------------------------------
// terraflow: the watershed pipeline on one host.

const TERRAIN_SIDE: usize = 257;

/// The terrain and the cluster. The terrain is F-TF's landscape
/// (`fractal_terrain` seed 13) plus a fractal drawn from the seed at a
/// tenth of its amplitude. The labeler's work follows the terrain's
/// large-scale contours, and between independent fractal seeds it
/// varies by ±35%; fixing those contours keeps every seed's op the same
/// size (within about ±5%) while the seed still moves every cell.
fn terraflow_inputs(seed: u64) -> (Grid, ClusterConfig) {
    let side = TERRAIN_SIDE;
    let base = fractal_terrain(side, side, 0.55, 13);
    let detail = fractal_terrain(side, side, 0.55, seed);
    let cells = (0..side)
        .flat_map(|y| (0..side).map(move |x| (x, y)))
        .map(|(x, y)| base.at(x, y) + 0.1 * detail.at(x, y))
        .collect();
    (
        Grid::from_rows(side, side, cells),
        ClusterConfig::era_2002(1, 8, 8.0),
    )
}

/// Step 3 of `run_terraflow`: the sorted cells streamed from ASU 0 to
/// the watershed labeler on host 0.
fn label_job(sorted: Vec<CellRec>, packet_records: usize) -> Result<Job<CellRec>, String> {
    let mut graph: FlowGraph<CellRec> = FlowGraph::new();
    let src = graph.add_source_stage(1, |_| {
        Box::new(RelayFunctor::new("stream-sorted")) as Box<dyn Functor<CellRec>>
    });
    let shed = graph.add_stage(1, |_| {
        Box::new(WatershedFunctor::new(1 << 16)) as Box<dyn Functor<CellRec>>
    });
    graph
        .connect(src, shed, RoutingPolicy::Static, EdgeKind::Stream)
        .map_err(|e| format!("{e:?}"))?;
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(shed, 0, NodeId::Host(0));
    let inputs = BTreeMap::from([((src.0, 0usize), packetize(sorted, packet_records))]);
    Ok(Job {
        graph,
        placement,
        inputs,
    })
}

/// The outcome of one terraflow op from its four reports, in pipeline
/// order, its watershed count and its virtual makespan.
fn terraflow_outcome(
    reports: [&EmulationReport<CellRec>; 4],
    watersheds: u32,
    total: SimDuration,
) -> Outcome {
    let mut d = Fnv::new();
    for r in reports {
        d.report(r);
    }
    d.word(u64::from(watersheds));
    single_job(d.0, total)
}

/// `run_terraflow` on a fractal terrain with H1/D8, c = 8, static
/// placement.
struct Terraflow {
    cluster: ClusterConfig,
    dsm: DsmConfig,
    grid: Grid,
    oracle: Vec<u32>,
}

impl Terraflow {
    fn build(seed: u64) -> Terraflow {
        let (grid, cluster) = terraflow_inputs(seed);
        let mut dsm = DsmConfig::new(8, 1024, 8, 4096);
        dsm.input_packet_records = 512;
        // Reference, outside set-up: the sequential in-memory labeling.
        let oracle = watershed_oracle(&grid);
        Terraflow {
            cluster,
            dsm,
            grid,
            oracle,
        }
    }

    fn check_colors(&self, colors: &[u32]) -> Result<(), String> {
        if colors.len() != self.oracle.len() {
            return Err("color grid has the wrong size".into());
        }
        match colors.iter().zip(&self.oracle).position(|(a, b)| a != b) {
            Some(i) => Err(format!(
                "cell {i} colored {}, oracle {}",
                colors[i], self.oracle[i]
            )),
            None => Ok(()),
        }
    }
}

impl Workload for Terraflow {
    fn op(&self) -> Op {
        let t = Instant::now();
        let out = run_terraflow(&self.cluster, &self.grid, &self.dsm, LoadMode::Static);
        let wall_s = t.elapsed().as_secs_f64();
        let outcome = out.map_err(|e| e.to_string()).and_then(|o| {
            self.check_colors(&o.colors)?;
            Ok(terraflow_outcome(
                [&o.step1, &o.sort.pass1, &o.sort.pass2, &o.step3],
                o.watersheds,
                o.total(),
            ))
        });
        Op { wall_s, outcome }
    }

    /// The three steps as `run_terraflow` runs them, each a span.
    fn traced_op(&self) -> TracedOp {
        let (cluster, dsm) = (&self.cluster, &self.dsm);
        let mut sp = Spans::new();
        let t = Instant::now();
        let mut run = || -> Result<_, String> {
            let step1 = sp.time("gis.step1_s", || {
                run_job(cluster, build_restructure_job(cluster, &self.grid, dsm))
            });
            let step1 = step1.map_err(|e| format!("{e:?}"))?;
            let cells = step1.sink_records();
            let sort = sp.time("gis.sort_s", || {
                run_dsm_sort(cluster, cells, dsm, LoadMode::Static)
            });
            let sort = sort.map_err(|e| e.to_string())?;
            let sorted = reconstruct_sorted(&sort.output).map_err(|e| e.to_string())?;
            let job = label_job(sorted, dsm.input_packet_records)?;
            let step3 = sp.time("gis.label_s", || run_job(cluster, job));
            let step3 = step3.map_err(|e| format!("{e:?}"))?;
            let w = self.grid.width();
            let mut colors = vec![0u32; self.grid.len()];
            let mut watersheds = 0;
            for c in step3.sink_packets().flat_map(|p| p.records()) {
                colors[c.y as usize * w + c.x as usize] = c.color;
                watersheds = watersheds.max(c.color + 1);
            }
            Ok((step1, sort, step3, colors, watersheds))
        };
        let res = run();
        let wall = t.elapsed();
        let outcome = res.and_then(|(step1, sort, step3, colors, watersheds)| {
            self.check_colors(&colors)?;
            let reports = [&step1, &sort.pass1, &sort.pass2, &step3];
            sp.reports(&reports);
            let total = step1.makespan + sort.total + step3.makespan;
            Ok(terraflow_outcome(reports, watersheds, total))
        });
        sp.finish(wall, outcome)
    }

    fn dominant(&self, l: &Layers, op_s: f64) -> (String, bool) {
        let label = at(l, "gis.label_s");
        let share = label / op_s;
        (
            format!("gis.label_s is {:.1}% of the op", 100.0 * share),
            label > at(l, "gis.step1_s") + at(l, "gis.sort_s"),
        )
    }
}
