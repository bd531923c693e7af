//! Admission control and fairness policies.
//!
//! [`PolicyGate`] is the crate's [`SchedGate`] implementation: a
//! per-tenant token/quota admission controller with a load-based gate
//! (predicted per-node CPU occupancy against a saturation threshold),
//! bounded per-tenant queues, and a pluggable dispatch [`Policy`] —
//! FCFS, shortest-predicted-job-first, or weighted-fair
//! (deficit-round-robin over tenants in predicted makespan-seconds).
//!
//! Everything the gate consults is *predicted* (phase-1 planner
//! estimates), so its decisions are a pure function of the
//! arrival/completion sequence — the whole multi-tenant run stays
//! deterministic.

use crate::error::SchedError;
use lmas_emulator::{GateDecision, SchedGate};
use lmas_sim::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Dispatch-order policy for queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served, globally: strict arrival order with
    /// head-of-line blocking.
    Fcfs,
    /// Shortest predicted job first: of every queued job whose tenant
    /// has quota and whose load fits, the smallest predicted makespan
    /// dispatches first.
    Spjf,
    /// Weighted fair queueing: deficit round robin over tenants,
    /// spending predicted makespan-nanoseconds against per-tenant
    /// deficit counters that grow in proportion to tenant weight.
    WeightedFair,
}

impl Policy {
    /// Stable lower-case name (report keys, CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Spjf => "spjf",
            Policy::WeightedFair => "wfq",
        }
    }
}

/// What the gate knows about one job before it runs: who submitted it
/// and what the phase-1 planner predicts it costs.
#[derive(Debug, Clone)]
pub struct JobShape {
    /// Submitting tenant (dense index).
    pub tenant: usize,
    /// Predicted makespan in nanoseconds (the planner estimate; the
    /// currency SPJF and weighted-fair schedule in).
    pub cost_ns: u64,
    /// Predicted CPU occupancy fraction per planner node (hosts first,
    /// then ASUs): `node_cpu_ns / makespan_ns` from the estimate.
    pub cpu_share: Vec<f64>,
}

/// Knobs of a [`PolicyGate`].
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Dispatch policy for queued jobs.
    pub policy: Policy,
    /// Number of tenants.
    pub tenants: usize,
    /// Max jobs a tenant may have *running* at once (its token quota).
    pub quota: usize,
    /// Max jobs a tenant may have *queued* at once; an arrival beyond
    /// this is rejected with a typed [`SchedError`].
    pub queue_cap: usize,
    /// Saturation threshold for the load gate: a job only dispatches
    /// while every node's predicted CPU occupancy (running jobs plus
    /// this one) stays at or below this fraction. `≥ 1.0` with
    /// single-job shares below 1 effectively disables the gate.
    pub load_limit: f64,
    /// Per-tenant weights for [`Policy::WeightedFair`] (empty = all 1).
    pub weights: Vec<u64>,
}

/// DRR quantum per weight unit (predicted nanoseconds of service a
/// backlogged tenant accrues per top-up round).
const QUANTUM_NS_PER_WEIGHT: f64 = 1.0e6;

/// The admission/fairness gate (see the module docs).
pub struct PolicyGate {
    cfg: GateConfig,
    jobs: Vec<JobShape>,
    // State, all derived from the call sequence:
    running: Vec<bool>,
    tenant_running: Vec<usize>,
    running_count: usize,
    queues: Vec<VecDeque<usize>>,
    node_load: Vec<f64>,
    deficit: Vec<f64>,
    rr: usize,
    rejections: Arc<Mutex<Vec<SchedError>>>,
}

impl PolicyGate {
    /// Build a gate for `jobs` (indexed by job id, which [`run_jobs`]
    /// assigns in submission order — submit in arrival order so FCFS
    /// means what it says). Returns the gate and a shared handle to its
    /// typed rejection log, readable after the run consumes the gate.
    ///
    /// [`run_jobs`]: lmas_emulator::run_jobs
    pub fn new(cfg: GateConfig, jobs: Vec<JobShape>) -> (PolicyGate, Arc<Mutex<Vec<SchedError>>>) {
        assert!(cfg.tenants > 0, "gate needs at least one tenant");
        assert!(
            jobs.iter().all(|j| j.tenant < cfg.tenants),
            "job tenant out of range"
        );
        let nodes = jobs.iter().map(|j| j.cpu_share.len()).max().unwrap_or(0);
        let rejections = Arc::default();
        let gate = PolicyGate {
            running: vec![false; jobs.len()],
            tenant_running: vec![0; cfg.tenants],
            running_count: 0,
            queues: vec![VecDeque::new(); cfg.tenants],
            node_load: vec![0.0; nodes],
            deficit: vec![0.0; cfg.tenants],
            rr: 0,
            rejections: Arc::clone(&rejections),
            cfg,
            jobs,
        };
        (gate, rejections)
    }

    fn weight(&self, tenant: usize) -> f64 {
        *self.cfg.weights.get(tenant).unwrap_or(&1) as f64
    }

    /// Would job `j` dispatch right now? Quota first, then the load
    /// gate. An idle cluster always admits (work conservation: the
    /// first job can never be starved by its own predicted size).
    fn can_dispatch(&self, j: usize) -> bool {
        let shape = &self.jobs[j];
        if self.tenant_running[shape.tenant] >= self.cfg.quota {
            return false;
        }
        if self.running_count == 0 {
            return true;
        }
        shape
            .cpu_share
            .iter()
            .enumerate()
            .all(|(u, &s)| self.node_load[u] + s <= self.cfg.load_limit + 1e-9)
    }

    fn start(&mut self, j: usize) {
        debug_assert!(!self.running[j]);
        self.running[j] = true;
        self.running_count += 1;
        let shape = &self.jobs[j];
        self.tenant_running[shape.tenant] += 1;
        for (u, &s) in shape.cpu_share.iter().enumerate() {
            self.node_load[u] += s;
        }
    }

    fn finish(&mut self, j: usize) {
        debug_assert!(self.running[j]);
        self.running[j] = false;
        self.running_count -= 1;
        let shape = &self.jobs[j];
        self.tenant_running[shape.tenant] -= 1;
        for (u, &s) in shape.cpu_share.iter().enumerate() {
            self.node_load[u] = (self.node_load[u] - s).max(0.0);
        }
    }

    fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Pop the next job to dispatch under the configured policy, or
    /// `None` when nothing dispatchable is queued.
    fn pick(&mut self) -> Option<usize> {
        match self.cfg.policy {
            Policy::Fcfs => {
                // Global arrival order with head-of-line blocking: only
                // the earliest queued job may go.
                let head = self
                    .queues
                    .iter()
                    .filter_map(|q| q.front().copied())
                    .min()?;
                if !self.can_dispatch(head) {
                    return None;
                }
                let t = self.jobs[head].tenant;
                self.queues[t].pop_front();
                Some(head)
            }
            Policy::Spjf => {
                // Smallest predicted cost among every dispatchable
                // queued job (ties to the earlier arrival).
                let mut best: Option<(u64, usize)> = None;
                for q in &self.queues {
                    for &j in q {
                        if !self.can_dispatch(j) {
                            continue;
                        }
                        let key = (self.jobs[j].cost_ns, j);
                        if best.map(|b| key < b).unwrap_or(true) {
                            best = Some(key);
                        }
                    }
                }
                let (_, j) = best?;
                let t = self.jobs[j].tenant;
                self.queues[t].retain(|&x| x != j);
                Some(j)
            }
            Policy::WeightedFair => self.pick_drr(),
        }
    }

    /// Deficit round robin over tenants' queue heads. Backlogged
    /// tenants accrue `weight · quantum` per top-up round; a head
    /// dispatches once its tenant's deficit covers its predicted cost.
    /// Rather than looping rounds one by one, jump straight to the
    /// fewest top-ups any dispatchable head needs (ties resolve in
    /// round-robin order from the cursor) — identical schedule, bounded
    /// work. Starvation-free: deficits only grow while a tenant stays
    /// backlogged, so every dispatchable head eventually covers its
    /// cost.
    fn pick_drr(&mut self) -> Option<usize> {
        let t_count = self.cfg.tenants;
        let mut best: Option<(u64, usize, usize, usize)> = None; // (rounds, rr_dist, tenant, job)
        for t in 0..t_count {
            let Some(&head) = self.queues[t].front() else {
                continue;
            };
            if !self.can_dispatch(head) {
                continue;
            }
            let need = self.jobs[head].cost_ns as f64 - self.deficit[t];
            let quantum = self.weight(t) * QUANTUM_NS_PER_WEIGHT;
            let rounds = if need <= 0.0 {
                0u64
            } else {
                (need / quantum).ceil() as u64
            };
            let dist = (t + t_count - self.rr) % t_count;
            let key = (rounds, dist, t, head);
            if best.map(|b| key < b).unwrap_or(true) {
                best = Some(key);
            }
        }
        let (rounds, _, t, j) = best?;
        if rounds > 0 {
            for u in 0..t_count {
                if !self.queues[u].is_empty() {
                    self.deficit[u] += rounds as f64 * self.weight(u) * QUANTUM_NS_PER_WEIGHT;
                }
            }
        }
        self.deficit[t] -= self.jobs[j].cost_ns as f64;
        self.queues[t].pop_front();
        if self.queues[t].is_empty() {
            // Standard DRR: an emptied tenant forfeits leftover credit.
            self.deficit[t] = 0.0;
        }
        self.rr = (t + 1) % t_count;
        Some(j)
    }

    fn drain(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(j) = self.pick() {
            self.start(j);
            out.push(j);
        }
        out
    }
}

impl SchedGate for PolicyGate {
    fn on_arrival(&mut self, job: usize, _now: SimTime) -> GateDecision {
        let tenant = self.jobs[job].tenant;
        // FCFS never overtakes: an arrival dispatches immediately only
        // if nothing at all is queued. The other policies only require
        // the tenant's own FIFO to be empty.
        let bypass_ok = match self.cfg.policy {
            Policy::Fcfs => self.total_queued() == 0,
            _ => self.queues[tenant].is_empty(),
        };
        if bypass_ok && self.can_dispatch(job) {
            self.start(job);
            return GateDecision::Dispatch;
        }
        if self.queues[tenant].len() < self.cfg.queue_cap {
            self.queues[tenant].push_back(job);
            return GateDecision::Queue;
        }
        let err = if self.tenant_running[tenant] >= self.cfg.quota {
            SchedError::QuotaExceeded {
                tenant,
                limit: self.cfg.quota,
            }
        } else {
            SchedError::AdmissionRejected {
                tenant,
                job,
                queued: self.queues[tenant].len(),
                cap: self.cfg.queue_cap,
            }
        };
        self.rejections
            .lock()
            .expect("rejection log poisoned")
            .push(err);
        GateDecision::Reject
    }

    fn on_completion(&mut self, job: usize, _now: SimTime) -> Vec<usize> {
        self.finish(job);
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(costs: &[(usize, u64)]) -> Vec<JobShape> {
        costs
            .iter()
            .map(|&(tenant, cost_ns)| JobShape {
                tenant,
                cost_ns,
                cpu_share: vec![0.4],
            })
            .collect()
    }

    fn gate(policy: Policy, tenants: usize, quota: usize, jobs: Vec<JobShape>) -> PolicyGate {
        PolicyGate::new(
            GateConfig {
                policy,
                tenants,
                quota,
                queue_cap: 16,
                load_limit: 1.0,
                weights: Vec::new(),
            },
            jobs,
        )
        .0
    }

    /// Feed all arrivals, then complete running jobs in the order they
    /// dispatched; return the full dispatch order.
    fn play(gate: &mut PolicyGate, n: usize) -> Vec<usize> {
        let mut order = Vec::new();
        let mut frontier: VecDeque<usize> = VecDeque::new();
        for j in 0..n {
            if gate.on_arrival(j, SimTime(j as u64)) == GateDecision::Dispatch {
                order.push(j);
                frontier.push_back(j);
            }
        }
        while let Some(done) = frontier.pop_front() {
            for j in gate.on_completion(done, SimTime(1_000_000)) {
                order.push(j);
                frontier.push_back(j);
            }
        }
        order
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let jobs = shapes(&[(0, 900), (1, 100), (0, 500), (1, 50)]);
        let mut g = gate(Policy::Fcfs, 2, 1, jobs);
        assert_eq!(play(&mut g, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spjf_dispatches_cheapest_first() {
        // Quota 1 per tenant, one tenant: jobs queue behind job 0 and
        // then dispatch by predicted cost, not arrival.
        let jobs = shapes(&[(0, 400), (0, 900), (0, 100), (0, 500)]);
        let mut g = gate(Policy::Spjf, 1, 1, jobs);
        assert_eq!(play(&mut g, 4), vec![0, 2, 3, 1]);
    }

    #[test]
    fn weighted_fair_shares_by_weight() {
        // Tenant 0 has weight 3, tenant 1 weight 1; both backlogged
        // with equal-cost jobs behind one *shared* slot (each job takes
        // 0.6 of the node, limit 0.9, quotas slack — the load gate, not
        // the quota, serializes). Count the first 8 dispatches after
        // the seed job: tenant 0 should get ~3× tenant 1's service.
        let mut jobs = vec![JobShape {
            tenant: 0,
            cost_ns: 1_000_000,
            cpu_share: vec![0.6],
        }];
        for _ in 0..6 {
            jobs.push(JobShape {
                tenant: 0,
                cost_ns: 1_000_000,
                cpu_share: vec![0.6],
            });
            jobs.push(JobShape {
                tenant: 1,
                cost_ns: 1_000_000,
                cpu_share: vec![0.6],
            });
        }
        let total = jobs.len();
        let (mut g, _log) = PolicyGate::new(
            GateConfig {
                policy: Policy::WeightedFair,
                tenants: 2,
                quota: 8,
                queue_cap: 16,
                load_limit: 0.9,
                weights: vec![3, 1],
            },
            jobs,
        );
        let order = play(&mut g, total);
        assert_eq!(order.len(), total, "weighted-fair starves no one");
        let first8 = &order[1..9];
        let t0 = first8.iter().filter(|&&j| g.jobs[j].tenant == 0).count();
        assert!(
            t0 >= 5,
            "weight-3 tenant got only {t0}/8 early dispatches: {order:?}"
        );
    }

    #[test]
    fn quota_and_queue_bounds_reject_typed() {
        let jobs = shapes(&[(0, 100), (0, 100), (0, 100)]);
        let (mut g, log) = PolicyGate::new(
            GateConfig {
                policy: Policy::Fcfs,
                tenants: 1,
                quota: 1,
                queue_cap: 1,
                load_limit: 1.0,
                weights: Vec::new(),
            },
            jobs,
        );
        assert_eq!(g.on_arrival(0, SimTime(0)), GateDecision::Dispatch);
        assert_eq!(g.on_arrival(1, SimTime(1)), GateDecision::Queue);
        assert_eq!(g.on_arrival(2, SimTime(2)), GateDecision::Reject);
        let rej = log.lock().unwrap();
        assert_eq!(
            rej.as_slice(),
            &[SchedError::QuotaExceeded { tenant: 0, limit: 1 }]
        );
    }

    #[test]
    fn load_gate_queues_past_saturation() {
        // Two tenants, quota 2 each, but each job takes 0.6 of node 0:
        // the second arrival queues on load, not quota, and dispatches
        // when the first completes.
        let jobs = vec![
            JobShape { tenant: 0, cost_ns: 100, cpu_share: vec![0.6] },
            JobShape { tenant: 1, cost_ns: 100, cpu_share: vec![0.6] },
        ];
        let (mut g, log) = PolicyGate::new(
            GateConfig {
                policy: Policy::Fcfs,
                tenants: 2,
                quota: 2,
                queue_cap: 4,
                load_limit: 0.9,
                weights: Vec::new(),
            },
            jobs,
        );
        assert_eq!(g.on_arrival(0, SimTime(0)), GateDecision::Dispatch);
        assert_eq!(g.on_arrival(1, SimTime(1)), GateDecision::Queue);
        assert_eq!(g.on_completion(0, SimTime(2)), vec![1]);
        assert!(log.lock().unwrap().is_empty());
    }
}
