//! The cluster machine model and model-driven adaptation.
//!
//! [`ClusterShape`] is the one description of the asymmetric cluster the
//! paper evaluates against: H hosts, D ASUs at `1/c` of host CPU speed,
//! disk and link rates, and ASU memory. The emulator's `ClusterConfig`
//! projects onto it (`ClusterConfig::shape`), the planner prices
//! placements against it, and this module's rate model picks functor
//! parameters from it.
//!
//! Section 3.3: "it is often possible to configure functors to adjust the
//! balance of computation load across the phases of an application …
//! the fan-in of merge functors and the fan-out of distribution functors
//! may vary to adjust the balance of load between sort pipeline phases
//! executing on ASUs and hosts." The rate methods are that configurator:
//! an analytic pipeline-rate model over (H, D, c, disk and link rates)
//! that predicts phase throughputs and picks the distribute order α (and
//! the merge split γ₁·γ₂) that maximizes them.
//!
//! The *adaptive* series in Figure 9 is exactly `pick_alpha` evaluated at
//! each cluster size.

use crate::cost::{log2_ceil, CostModel, Work};
use crate::placement::NodeId;
use lmas_storage::DiskParams;

/// The cluster machine model: what the planner optimizes against and
/// what the adaptive configurator picks α and the γ split from.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Number of dedicated hosts, H.
    pub hosts: usize,
    /// Number of active storage units, D.
    pub asus: usize,
    /// Host-to-ASU CPU speed ratio c (an ASU runs at 1/c).
    pub cpu_ratio_c: f64,
    /// Work → time conversion.
    pub cost: CostModel,
    /// Aggregate disk bandwidth per ASU brick, bytes/sec.
    pub asu_disk_rate: f64,
    /// Disk bandwidth of a host's private disk, bytes/sec.
    pub host_disk_rate: f64,
    /// Host↔ASU link bandwidth, bytes/sec.
    pub link_rate: f64,
    /// One-way link latency in nanoseconds.
    pub link_latency_ns: f64,
    /// Memory available for functor state on an ASU, bytes.
    pub asu_mem: usize,
}

impl ClusterShape {
    /// The paper-era cluster: gigabit links at 50 µs, 100 MB/s disk
    /// bricks ([`DiskParams::asu_brick_2002`]), 32 MiB of ASU functor
    /// memory. The emulator's `ClusterConfig::era_2002(hosts, asus, c)`
    /// takes its constants from here.
    pub fn era_2002(hosts: usize, asus: usize, cpu_ratio_c: f64) -> ClusterShape {
        let brick = DiskParams::asu_brick_2002().rate_bytes_per_sec;
        ClusterShape {
            hosts,
            asus,
            cpu_ratio_c,
            cost: CostModel::p3_750mhz(),
            asu_disk_rate: brick,
            host_disk_rate: brick,
            link_rate: 1.0e9,
            link_latency_ns: 50_000.0,
            asu_mem: 32 << 20,
        }
    }

    /// All nodes in planner order: hosts first, then ASUs.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.hosts)
            .map(NodeId::Host)
            .chain((0..self.asus).map(NodeId::Asu))
            .collect()
    }

    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.hosts + self.asus
    }

    /// Relative CPU speed of `node` (host = 1.0).
    pub fn node_speed(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Host(_) => 1.0,
            NodeId::Asu(_) => 1.0 / self.cpu_ratio_c,
        }
    }

    /// Disk bandwidth local to `node`, bytes/sec.
    pub fn disk_rate(&self, node: NodeId) -> f64 {
        match node {
            NodeId::Host(_) => self.host_disk_rate,
            NodeId::Asu(_) => self.asu_disk_rate,
        }
    }

    fn cpu_rate(&self, per_record: Work, aggregate_speed: f64) -> f64 {
        // Records/sec a CPU pool of total relative speed `aggregate_speed`
        // sustains for `per_record` work each.
        let t = self.cost.charge(per_record, 1.0).as_secs_f64();
        if t == 0.0 {
            f64::INFINITY
        } else {
            aggregate_speed / t
        }
    }

    /// Total relative CPU speed of the ASU pool.
    fn asu_pool_speed(&self) -> f64 {
        self.asus as f64 / self.cpu_ratio_c
    }

    fn disk_records_rate(&self, record_size: usize) -> f64 {
        self.asus as f64 * self.asu_disk_rate / record_size as f64
    }

    fn link_records_rate(&self, record_size: usize) -> f64 {
        // Every record crosses host links twice (to the host and back);
        // hosts each have one link.
        self.hosts as f64 * self.link_rate / (2.0 * record_size as f64)
    }

    fn per_record(compares_per_record: u64, record_size: usize) -> Work {
        // Every record passing a functor pays its compares plus fixed
        // handling: one buffer move and a touch of all its bytes.
        Work::compares(compares_per_record) + Work::moves(1) + Work::bytes(record_size as u64)
    }

    /// Records/sec of DSM-Sort pass 1 (run formation) over records of
    /// `record_size` bytes, with the distribute functor on the ASUs and
    /// block sort on the hosts: the minimum of the ASU read rate, ASU
    /// distribute rate, host sort rate, link rate, and ASU write-back
    /// rate.
    pub fn pass1_rate_active(&self, alpha: u64, beta: u64, record_size: usize) -> f64 {
        let read = self.disk_records_rate(record_size);
        let write = self.disk_records_rate(record_size);
        let distribute = self.cpu_rate(
            Self::per_record(log2_ceil(alpha), record_size),
            self.asu_pool_speed(),
        );
        let sort = self.cpu_rate(
            Self::per_record(log2_ceil(beta), record_size),
            self.hosts as f64,
        );
        let link = self.link_records_rate(record_size);
        read.min(write).min(distribute).min(sort).min(link)
    }

    /// Choose α among `candidates` maximizing predicted active pass-1
    /// throughput. Ties go to the **larger** α: once surplus ASU capacity
    /// absorbs the distribute for free, a higher distribute order shrinks
    /// the bucket sizes and with them the downstream merge fan-in
    /// (`αβγ = n`), reducing second-pass work at no first-pass cost.
    pub fn pick_alpha(&self, candidates: &[u64], beta: u64, record_size: usize) -> u64 {
        assert!(!candidates.is_empty(), "need candidate α values");
        let mut best = candidates[0];
        let mut best_rate = f64::NEG_INFINITY;
        for &a in candidates {
            let r = self.pass1_rate_active(a, beta, record_size);
            let better = r > best_rate * (1.0 + 1e-9);
            let tied = !better && r > best_rate * (1.0 - 1e-9);
            if better || (tied && a > best) {
                best = a;
                best_rate = best_rate.max(r);
            }
        }
        best
    }

    /// Records/sec of the merge pass over records of `record_size` bytes
    /// with γ₁-way merges on ASUs feeding a γ₂-way merge on hosts.
    pub fn merge_rate(&self, gamma1: u64, gamma2: u64, record_size: usize) -> f64 {
        let read = self.disk_records_rate(record_size);
        let asu = self.cpu_rate(
            Self::per_record(log2_ceil(gamma1), record_size),
            self.asu_pool_speed(),
        );
        let host = self.cpu_rate(
            Self::per_record(log2_ceil(gamma2), record_size),
            self.hosts as f64,
        );
        let link = self.link_records_rate(record_size);
        read.min(asu).min(host).min(link)
    }

    /// Choose the merge split (γ₁, γ₂) with γ₁·γ₂ ≥ γ maximizing merge
    /// throughput, subject to `max_gamma1`: "the ASU buffer space
    /// restricts γ" (Section 4.3) — an ASU can hold at most `max_gamma1`
    /// run buffers. γ₁ candidates are powers of two.
    pub fn pick_gamma_split_bounded(
        &self,
        gamma: u64,
        max_gamma1: u64,
        record_size: usize,
    ) -> (u64, u64) {
        assert!(gamma >= 1, "γ must be at least 1");
        assert!(max_gamma1 >= 1, "ASU must buffer at least one run");
        if gamma == 1 {
            return (1, 1);
        }
        let mut best = (1u64, gamma);
        let mut best_rate = f64::NEG_INFINITY;
        let mut g1 = 1u64;
        while g1 <= gamma.min(max_gamma1) {
            let g2 = gamma.div_ceil(g1);
            let r = self.merge_rate(g1, g2, record_size);
            if r > best_rate + 1e-9 {
                best = (g1, g2);
                best_rate = r;
            }
            g1 *= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The era-2002 cluster with 25 MB/s single-spindle ASUs.
    fn model(hosts: usize, asus: usize, c: f64) -> ClusterShape {
        ClusterShape {
            asu_disk_rate: 25.0e6,
            ..ClusterShape::era_2002(hosts, asus, c)
        }
    }

    #[test]
    fn shape_rates_and_speeds() {
        let shape = ClusterShape::era_2002(2, 4, 8.0);
        assert_eq!(shape.total_nodes(), 6);
        assert_eq!(shape.node_speed(NodeId::Host(0)), 1.0);
        assert_eq!(shape.node_speed(NodeId::Asu(1)), 0.125);
        assert_eq!(shape.nodes()[0], NodeId::Host(0));
        assert_eq!(shape.nodes()[2], NodeId::Asu(0));
        assert_eq!(shape.disk_rate(NodeId::Asu(0)), 100.0e6);
    }

    #[test]
    fn few_asus_prefer_small_alpha() {
        // With 2 ASUs at 1/8 speed the distribute binds for large α:
        // adaptation must back off from the big orders (it may keep a
        // moderate α that the ASUs absorb behind the disk rate for free).
        let m = model(1, 2, 8.0);
        let a = m.pick_alpha(&[1, 4, 16, 64, 256], 1 << 13, 128);
        assert!(a < 64, "picked α={a}");
        // And the rate at the pick is no worse than at α=1.
        let r_pick = m.pass1_rate_active(a, 1 << 13, 128);
        let r_one = m.pass1_rate_active(1, 1 << 13, 128);
        assert!(r_pick >= r_one * (1.0 - 1e-9));
    }

    #[test]
    fn many_asus_prefer_large_alpha() {
        // With 64 ASUs the host sort saturates first; shifting work into
        // the distribute (large α) costs the ASUs nothing they notice.
        let m = model(1, 64, 8.0);
        let a = m.pick_alpha(&[1, 4, 16, 64, 256], 1 << 13, 128);
        assert_eq!(a, 256);
    }

    #[test]
    fn gamma_split_respects_asu_buffer_bound() {
        let m = model(1, 16, 8.0);
        let (g1, g2) = m.pick_gamma_split_bounded(64, 8, 128);
        assert!(g1 * g2 >= 64);
        assert!(g1 <= 8, "ASU buffer bound violated: γ1={g1}");
    }

    #[test]
    fn gamma_split_beats_host_only_merge() {
        // Splitting the merge across ASUs and host should never be slower
        // than doing all fan-in on the host.
        let m = model(1, 16, 8.0);
        let (g1, g2) = m.pick_gamma_split_bounded(64, 8, 128);
        assert!(m.merge_rate(g1, g2, 128) >= m.merge_rate(1, 64, 128) * (1.0 - 1e-9));
    }

    #[test]
    fn gamma_split_degenerate() {
        let m = model(1, 4, 8.0);
        assert_eq!(m.pick_gamma_split_bounded(1, 64, 128), (1, 1));
        let (g1, g2) = m.pick_gamma_split_bounded(2, 64, 128);
        assert!(g1 * g2 >= 2);
    }
}
