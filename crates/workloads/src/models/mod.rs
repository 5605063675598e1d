//! The model zoo of the paper's evaluation.
//!
//! All graphs are *analytic*: layer shapes follow the published
//! architectures; weights are int8 (matching Gemmini's native datatype,
//! and required for GPT-2-large to fit the 1080 MB on-chip SRAM the way
//! §6.3 describes); activations are int8 as well.
//!
//! RetinaNet and ResNet-RS (used only in the Figure 3 motivation) are
//! approximated by scaled ResNet-50 variants — documented substitution,
//! since their exact per-layer shapes do not change the utilization
//! argument.

mod cnn;
mod dlrm;
mod transformer;

pub use cnn::{
    alexnet, efficientnet_b0, googlenet, mobilenet_v1, resnet18, resnet34, resnet50, resnet_block,
    resnet_rs_approx, retinanet_approx, yolo_lite,
};
pub use dlrm::dlrm;
pub use transformer::{
    bert_base, gpt2, gpt2_decode, gpt2_large, gpt2_medium, gpt2_small, transformer_block, GptSize,
};

use crate::ModelGraph;

/// Bytes per weight/activation element (int8).
pub const DTYPE_BYTES: u64 = 1;

/// Every full model in the zoo, for sweep-style benchmarks.
pub fn zoo() -> Vec<ModelGraph> {
    vec![
        alexnet(),
        resnet18(),
        resnet34(),
        resnet50(),
        googlenet(),
        mobilenet_v1(),
        yolo_lite(),
        efficientnet_b0(),
        bert_base(),
        gpt2_small(),
        dlrm(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_builds_and_validates() {
        for m in zoo() {
            assert!(!m.is_empty(), "{} empty", m.name());
            assert!(m.total_macs() > 0, "{} has no compute", m.name());
            assert!(m.total_weight_bytes() > 0, "{} has no weights", m.name());
        }
    }

    #[test]
    fn parameter_counts_are_plausible() {
        // Published parameter counts (approximate, in millions).
        let cases = [
            (resnet50(), 25.0, 0.5),     // 25.6 M
            (resnet18(), 11.7, 0.5),     // 11.7 M
            (resnet34(), 21.8, 0.5),     // 21.8 M
            (alexnet(), 61.0, 0.6),      // 61 M
            (gpt2_small(), 124.0, 0.5),  // 124 M
            (gpt2_medium(), 355.0, 0.5), // 355 M
            (gpt2_large(), 774.0, 0.5),  // 774 M
            (bert_base(), 110.0, 0.6),   // 110 M
        ];
        for (m, expect_millions, tolerance) in cases {
            let params = m.total_weight_bytes() as f64 / DTYPE_BYTES as f64 / 1e6;
            let lo = expect_millions * (1.0 - tolerance);
            let hi = expect_millions * (1.0 + tolerance);
            assert!(
                (lo..hi).contains(&params),
                "{}: {params:.1}M params, expected ~{expect_millions}M",
                m.name()
            );
        }
    }

    #[test]
    fn gpt2_sizes_ordered() {
        assert!(gpt2_small().total_weight_bytes() < gpt2_medium().total_weight_bytes());
        assert!(gpt2_medium().total_weight_bytes() < gpt2_large().total_weight_bytes());
    }

    #[test]
    fn resnet_is_not_a_chain_but_gpt_is_mostly_uniform() {
        assert!(
            resnet18().consumers().iter().any(|c| c.len() >= 2),
            "residual skips break the chain"
        );
        // GPT-2 blocks have a residual structure too, but identical layer
        // shapes across blocks — verify uniformity of kernels per block
        // (blocks are 8 layers each, after the embedding layer).
        let g = gpt2_small();
        let macs0: u64 = g.layers()[1..9].iter().map(|l| l.kernel.macs()).sum();
        let macs1: u64 = g.layers()[9..17].iter().map(|l| l.kernel.macs()).sum();
        assert_eq!(macs0, macs1, "GPT blocks must be uniform");
    }

    #[test]
    fn gpt2_large_fits_sim_sram_in_int8() {
        // The §6.3 claim: 1080–1440 MB of on-chip SRAM accommodates the
        // whole model with tensor partitioning.
        let bytes = gpt2_large().total_weight_bytes();
        assert!(bytes < 1080 * 1024 * 1024, "GPT2-large = {bytes} bytes");
    }
}
