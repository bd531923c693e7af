//! Unit tests for the reasons a threaded run is clamped to one
//! partition (`EmulationReport::par_fallback`). Each of the four reasons
//! — `"scheduler"`, `"backlog routing"`, `"zero latency"`,
//! `"fault plan"` — is pinned by a run that triggers exactly it, and by
//! behaviour: the `threads=4` report equals the `threads=1` report on
//! makespan, dispatch count and the rendered trace. The zero-latency
//! eligibility boundary is tested from both sides: a zero
//! `link_latency` with a positive NIC frame overhead still yields a
//! positive minimum cross-node delay and parallelizes, while a truly
//! zero delay cannot support conservative lookahead and falls back.

use lmas_core::functor::lib::MapFunctor;
use lmas_core::{
    generate_rec8, packetize, EdgeKind, FlowGraph, Functor, KeyDist, NodeId, Placement, Rec8,
    RoutingPolicy, Work,
};
use lmas_emulator::{
    asu_index, run_job, run_job_with_faults, run_jobs, BalanceSpec, ClusterConfig, EmulationReport,
    FaultSpec, GateDecision, Job, SchedGate, TenantJob,
};
use lmas_sim::{FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;

fn identity_factory() -> impl Fn(usize) -> Box<dyn Functor<Rec8>> + Send + 'static {
    |_| Box::new(MapFunctor::new("id", Work::compares(8), |r: Rec8| r))
}

/// Two-host job with a replicated downstream stage so every routing
/// policy (and the balancer) has freedom to exercise.
fn job(routing: RoutingPolicy) -> Job<Rec8> {
    let data = generate_rec8(4_000, KeyDist::Uniform, 9);
    let mut g: FlowGraph<Rec8> = FlowGraph::new();
    let src = g.add_source_stage(2, identity_factory());
    let dst = g.add_stage(2, identity_factory());
    g.connect(src, dst, routing, EdgeKind::Set).unwrap();
    let mut placement = Placement::new();
    placement.assign(src, 0, NodeId::Asu(0));
    placement.assign(src, 1, NodeId::Asu(1));
    placement.assign(dst, 0, NodeId::Host(0));
    placement.assign(dst, 1, NodeId::Host(1));
    let mut inputs = BTreeMap::new();
    inputs.insert((0usize, 0usize), packetize(data.clone(), 100));
    inputs.insert((0usize, 1usize), packetize(data, 100));
    Job { graph: g, placement, inputs }
}

fn cfg() -> ClusterConfig {
    ClusterConfig::era_2002(2, 2, 8.0)
        .with_trace(4096)
        .with_threads(4)
}

fn expect_sequential(r: &EmulationReport<Rec8>, reason: &str) {
    assert!(r.par.is_none(), "run must stay on one partition ({reason})");
    assert_eq!(r.par_fallback, Some(reason), "fallback reason");
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A clamped `threads=4` run is the `threads=1` run: same makespan,
/// same dispatch count, byte-identical trace.
fn expect_same_as_one_thread(four: &EmulationReport<Rec8>, one: &EmulationReport<Rec8>) {
    assert!(!one.trace.is_empty(), "the comparison needs a trace");
    assert_eq!(four.makespan, one.makespan, "makespan");
    assert_eq!(four.dispatched, one.dispatched, "dispatched");
    assert_eq!(
        fnv1a(four.trace.render().bytes()),
        fnv1a(one.trace.render().bytes()),
        "trace"
    );
}

fn expect_parallel(r: &EmulationReport<Rec8>) {
    let stats = r.par.as_ref().expect("run must use the partitioned engine");
    assert_eq!(stats.partitions, 2, "two hosts bound the partition count");
    assert_eq!(r.par_fallback, None);
}

/// Admits every job on arrival.
struct AdmitAll;

impl SchedGate for AdmitAll {
    fn on_arrival(&mut self, _job: usize, _now: SimTime) -> GateDecision {
        GateDecision::Dispatch
    }
    fn on_completion(&mut self, _job: usize, _now: SimTime) -> Vec<usize> {
        Vec::new()
    }
}

#[test]
fn scheduler_runs_fall_back() {
    let run = |cfg: &ClusterConfig| {
        let jobs = vec![
            TenantJob {
                tenant: 0,
                arrival: SimTime::ZERO,
                job: job(RoutingPolicy::RoundRobin),
            },
            TenantJob {
                tenant: 1,
                arrival: SimTime(150_000),
                job: job(RoutingPolicy::RoundRobin),
            },
        ];
        run_jobs(cfg, jobs, Box::new(AdmitAll)).unwrap()
    };
    let four = run(&cfg());
    expect_sequential(&four.report, "scheduler");
    let one = run(&cfg().with_threads(1));
    assert_eq!(one.report.par_fallback, None);
    expect_same_as_one_thread(&four.report, &one.report);
    assert_eq!(four.events, one.events, "gate transitions");
}

#[test]
fn backlog_routing_falls_back() {
    for routing in [RoutingPolicy::PowerOfTwoChoices, RoutingPolicy::LoadAware] {
        let r = run_job(&cfg(), job(routing)).unwrap();
        expect_sequential(&r, "backlog routing");
        let one = run_job(&cfg().with_threads(1), job(routing)).unwrap();
        expect_same_as_one_thread(&r, &one);
    }
    // Partition-local policies stay eligible, with or without the
    // (snapshot-protocol) balancer.
    let r = run_job(&cfg(), job(RoutingPolicy::SimpleRandomization)).unwrap();
    expect_parallel(&r);
    let snap = cfg().with_balancer(BalanceSpec::every(SimDuration::from_micros(500)));
    let r = run_job(&snap, job(RoutingPolicy::SimpleRandomization)).unwrap();
    expect_parallel(&r);
}

#[test]
fn zero_latency_falls_back_only_when_the_minimum_delay_is_truly_zero() {
    // Zero propagation latency AND zero per-frame NIC overhead: no
    // cross-node message can be bounded away from "now" — no lookahead.
    let mut zero = cfg();
    zero.link_latency = SimDuration::ZERO;
    zero.nic_frame_overhead_bytes = 0;
    let r = run_job(&zero, job(RoutingPolicy::RoundRobin)).unwrap();
    expect_sequential(&r, "zero latency");
    let one = run_job(&zero.with_threads(1), job(RoutingPolicy::RoundRobin)).unwrap();
    expect_same_as_one_thread(&r, &one);

    // Zero propagation latency but a positive per-frame overhead: the
    // minimum cross-node delay is the NIC service time of an empty
    // frame, which is a valid (if narrow) conservative lookahead.
    let framed = zero.with_nic_frame_overhead(64);
    let seq = run_job(&framed.with_threads(1), job(RoutingPolicy::RoundRobin)).unwrap();
    let par = run_job(&framed, job(RoutingPolicy::RoundRobin)).unwrap();
    expect_parallel(&par);
    assert_eq!(seq.makespan, par.makespan, "virtual time is engine-invariant");
    assert_eq!(seq.dispatched, par.dispatched);
    assert_eq!(seq.stage_records_in, par.stage_records_in);
}

#[test]
fn fail_fast_fault_plans_fall_back_but_ordinary_plans_do_not() {
    let plan = || FaultPlan::new().crash(asu_index(&cfg(), 0), SimTime(200_000));
    let fast = FaultSpec::with_plan(plan()).failing_fast(true);
    let r = run_job_with_faults(&cfg(), &fast, job(RoutingPolicy::RoundRobin)).unwrap();
    expect_sequential(&r, "fault plan");
    let one = run_job_with_faults(
        &cfg().with_threads(1),
        &fast,
        job(RoutingPolicy::RoundRobin),
    )
    .unwrap();
    expect_same_as_one_thread(&r, &one);

    // The same plan without fail_fast runs partitioned.
    let spec = FaultSpec::with_plan(plan());
    let r = run_job_with_faults(&cfg(), &spec, job(RoutingPolicy::RoundRobin)).unwrap();
    expect_parallel(&r);
}

#[test]
fn sequential_runs_never_carry_a_fallback_reason() {
    // threads == 1 never consults the eligibility chain — even a run
    // that would be ineligible reports None.
    let mut one = cfg();
    one.threads = 1;
    let r = run_job(&one, job(RoutingPolicy::PowerOfTwoChoices)).unwrap();
    assert!(r.par.is_none());
    assert_eq!(r.par_fallback, None);
}
