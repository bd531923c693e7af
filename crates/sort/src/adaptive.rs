//! Adaptive configuration: "DSM-Sort can adaptively reconfigure to match
//! varying parameters of the active storage systems" (Section 4.3).
//!
//! The adaptive series of Figure 9 is produced by letting the analytic
//! pipeline model pick α at each cluster size; the merge split (γ₁, γ₂)
//! follows from the ASU buffer bound.

use crate::config::DsmConfig;
use lmas_core::Record;
use lmas_emulator::ClusterConfig;

/// The α values the paper sweeps in Figure 9.
pub const ALPHA_CANDIDATES: [u64; 5] = [1, 4, 16, 64, 256];

/// Pick a full configuration for sorting `n` records of type `R` on
/// `cluster`, given the host-memory-bound run length β and the ASU
/// buffer bound on γ₁.
pub fn adaptive_config<R: Record>(
    cluster: &ClusterConfig,
    n: u64,
    beta: usize,
    max_gamma1: u64,
) -> DsmConfig {
    let shape = cluster.shape();
    let alpha = shape.pick_alpha(&ALPHA_CANDIDATES, beta as u64, R::SIZE) as usize;
    let gamma = n.div_ceil(alpha as u64 * beta as u64).max(1);
    let (g1, g2) = shape.pick_gamma_split_bounded(gamma, max_gamma1, R::SIZE);
    // The host merge sees at most ceil(runs_b / γ₁) runs per subset, but
    // striping across D ASUs adds per-ASU ceiling slack; pad γ₂ by D.
    let g2 = g2 + cluster.asus as u64;
    DsmConfig::new(alpha, beta, g1 as usize, g2 as usize)
}

/// The α the adaptive series picks at each cluster size (for Figure 9's
/// "adaptive" line).
pub fn adaptive_alpha<R: Record>(cluster: &ClusterConfig, beta: usize) -> u64 {
    cluster
        .shape()
        .pick_alpha(&ALPHA_CANDIDATES, beta as u64, R::SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::Rec128;

    #[test]
    fn adaptive_alpha_grows_with_asus() {
        let beta = 1 << 13;
        let small = adaptive_alpha::<Rec128>(&ClusterConfig::era_2002(1, 2, 8.0), beta);
        let large = adaptive_alpha::<Rec128>(&ClusterConfig::era_2002(1, 64, 8.0), beta);
        assert!(large >= small, "α should not shrink with more ASUs");
        assert_eq!(large, 256, "plentiful ASUs absorb the biggest α");
    }

    #[test]
    fn adaptive_picks_pinned_on_fig9_and_c4_grids() {
        // (c, D, α, (α, γ₁, γ₂) at n = 2^18, the same at n = 2^26) for
        // H = 1, β = 4096 and an ASU buffer bound of 16 runs — the
        // Figure 9 grid at c = 8 and the c-sensitivity grid at c = 4.
        type Pick = (usize, usize, usize);
        let pinned: [(f64, usize, u64, Pick, Pick); 12] = [
            (8.0, 2, 1, (1, 1, 66), (1, 2, 8194)),
            (8.0, 4, 16, (16, 1, 8), (16, 4, 260)),
            (8.0, 8, 256, (256, 1, 9), (256, 8, 16)),
            (8.0, 16, 256, (256, 1, 17), (256, 16, 20)),
            (8.0, 32, 256, (256, 1, 33), (256, 16, 36)),
            (8.0, 64, 256, (256, 1, 65), (256, 16, 68)),
            (4.0, 2, 16, (16, 1, 6), (16, 4, 258)),
            (4.0, 4, 256, (256, 1, 5), (256, 8, 12)),
            (4.0, 8, 256, (256, 1, 9), (256, 16, 12)),
            (4.0, 16, 256, (256, 1, 17), (256, 16, 20)),
            (4.0, 32, 256, (256, 1, 33), (256, 16, 36)),
            (4.0, 64, 256, (256, 1, 65), (256, 16, 68)),
        ];
        let beta = 4096;
        for (c, d, alpha, small, large) in pinned {
            let cluster = ClusterConfig::era_2002(1, d, c);
            assert_eq!(
                adaptive_alpha::<Rec128>(&cluster, beta),
                alpha,
                "c={c} D={d}"
            );
            for (n, want) in [(1u64 << 18, small), (1 << 26, large)] {
                let cfg = adaptive_config::<Rec128>(&cluster, n, beta, 16);
                assert_eq!(
                    (cfg.alpha, cfg.gamma1, cfg.gamma2),
                    want,
                    "c={c} D={d} n={n}"
                );
            }
        }
    }

    #[test]
    fn adaptive_config_is_valid_for_n() {
        let cluster = ClusterConfig::era_2002(1, 16, 8.0);
        let n = 1u64 << 20;
        let cfg = adaptive_config::<Rec128>(&cluster, n, 1 << 13, 16);
        cfg.validate_for(n).expect("adaptive config must be valid");
        assert!(cfg.gamma1 <= 16, "ASU buffer bound respected");
    }

    #[test]
    fn adaptive_config_covers_tiny_inputs() {
        let cluster = ClusterConfig::era_2002(1, 2, 4.0);
        let cfg = adaptive_config::<Rec128>(&cluster, 100, 1 << 13, 8);
        cfg.validate_for(100).expect("tiny inputs are fine");
    }
}
