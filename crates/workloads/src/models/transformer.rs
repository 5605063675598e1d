//! Transformer models: BERT-base, GPT-2 small/medium/large, and the
//! Figure 15 micro-blocks (`128dim_16slen`, `64dim_16slen`).

use super::DTYPE_BYTES;
use crate::graph::{GraphBuilder, LayerId, LayerKind, ModelGraph};
use vnpu_sim::isa::Kernel;

#[allow(clippy::too_many_arguments)]
fn matmul_layer(
    b: &mut GraphBuilder,
    name: &str,
    m: u32,
    k: u32,
    n: u32,
    kind: LayerKind,
    weight: bool,
    deps: Vec<LayerId>,
) -> LayerId {
    b.push(
        name,
        kind,
        Kernel::Matmul { m, k, n },
        if weight {
            u64::from(k) * u64::from(n) * DTYPE_BYTES
        } else {
            0
        },
        u64::from(m) * u64::from(n) * DTYPE_BYTES,
        deps,
    )
}

/// One pre-norm transformer block: QKV, attention (scores + context),
/// output projection, two-layer MLP, and the residual adds.
/// Returns the block's output layer.
fn block(b: &mut GraphBuilder, prefix: &str, seq: u32, h: u32, input: LayerId) -> LayerId {
    let qkv = matmul_layer(
        b,
        &format!("{prefix}.qkv"),
        seq,
        h,
        3 * h,
        LayerKind::Attention,
        true,
        vec![input],
    );
    let scores = matmul_layer(
        b,
        &format!("{prefix}.scores"),
        seq,
        h,
        seq,
        LayerKind::Attention,
        false,
        vec![qkv],
    );
    let context = matmul_layer(
        b,
        &format!("{prefix}.context"),
        seq,
        seq,
        h,
        LayerKind::Attention,
        false,
        vec![scores],
    );
    let proj = matmul_layer(
        b,
        &format!("{prefix}.proj"),
        seq,
        h,
        h,
        LayerKind::Fc,
        true,
        vec![context],
    );
    let res1 = b.push(
        format!("{prefix}.res1"),
        LayerKind::Elementwise,
        Kernel::Vector {
            elems: u64::from(seq) * u64::from(h),
        },
        0,
        u64::from(seq) * u64::from(h) * DTYPE_BYTES,
        vec![proj, input],
    );
    let ffn1 = matmul_layer(
        b,
        &format!("{prefix}.ffn1"),
        seq,
        h,
        4 * h,
        LayerKind::Fc,
        true,
        vec![res1],
    );
    let ffn2 = matmul_layer(
        b,
        &format!("{prefix}.ffn2"),
        seq,
        4 * h,
        h,
        LayerKind::Fc,
        true,
        vec![ffn1],
    );
    b.push(
        format!("{prefix}.res2"),
        LayerKind::Elementwise,
        Kernel::Vector {
            elems: u64::from(seq) * u64::from(h),
        },
        0,
        u64::from(seq) * u64::from(h) * DTYPE_BYTES,
        vec![ffn2, res1],
    )
}

fn transformer(name: &str, layers: u32, h: u32, seq: u32, vocab: u32) -> ModelGraph {
    let mut b = GraphBuilder::new();
    let embed = b.push(
        "embed",
        LayerKind::Embed,
        Kernel::Vector {
            elems: u64::from(seq) * u64::from(h),
        },
        u64::from(vocab) * u64::from(h) * DTYPE_BYTES,
        u64::from(seq) * u64::from(h) * DTYPE_BYTES,
        vec![],
    );
    let mut prev = embed;
    for i in 0..layers {
        prev = block(&mut b, &format!("blk{i}"), seq, h, prev);
    }
    b.build(name).expect("transformer graph is valid")
}

/// GPT-2 model size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GptSize {
    /// 12 layers, hidden 768 (≈124 M params).
    Small,
    /// 24 layers, hidden 1024 (≈355 M params).
    Medium,
    /// 36 layers, hidden 1280 (≈774 M params).
    Large,
}

/// Builds GPT-2 at the given size (sequence length 64 by default — the
/// simulated decode window).
pub fn gpt2(size: GptSize) -> ModelGraph {
    match size {
        GptSize::Small => transformer("gpt2-small", 12, 768, 64, 50257),
        GptSize::Medium => transformer("gpt2-medium", 24, 1024, 64, 50257),
        GptSize::Large => transformer("gpt2-large", 36, 1280, 64, 50257),
    }
}

/// GPT-2 small (124 M parameters).
pub fn gpt2_small() -> ModelGraph {
    gpt2(GptSize::Small)
}

/// GPT-2 medium (355 M parameters).
pub fn gpt2_medium() -> ModelGraph {
    gpt2(GptSize::Medium)
}

/// GPT-2 large (774 M parameters).
pub fn gpt2_large() -> ModelGraph {
    gpt2(GptSize::Large)
}

/// BERT-base: 12 encoder layers, hidden 768, sequence 128.
pub fn bert_base() -> ModelGraph {
    transformer("bert-base", 12, 768, 128, 30522)
}

/// GPT-2 in the *decode* phase (§7's KV-cache discussion): one token per
/// iteration (`m = 1` matmuls — memory-intensive, compute-light, the
/// §2.2 phase-imbalance motivation), attending over a pre-allocated
/// fixed-size KV buffer of `context` tokens. The KV buffer (2 × context
/// × hidden per block, K and V) is modelled as resident per-block state,
/// so the compiler's scratchpad accounting covers it — matching the
/// paper's "pre-allocated, fixed-size KV buffer ... specifying a maximum
/// size for the KV buffer in SRAM".
pub fn gpt2_decode(size: GptSize, context: u32) -> ModelGraph {
    let (layers, h, name) = match size {
        GptSize::Small => (12, 768, "gpt2-small-decode"),
        GptSize::Medium => (24, 1024, "gpt2-medium-decode"),
        GptSize::Large => (36, 1280, "gpt2-large-decode"),
    };
    let kv_bytes = 2 * u64::from(context) * u64::from(h) * DTYPE_BYTES;
    let mut b = GraphBuilder::new();
    let embed = b.push(
        "embed",
        LayerKind::Embed,
        Kernel::Vector {
            elems: u64::from(h),
        },
        50257 * u64::from(h) * DTYPE_BYTES,
        u64::from(h) * DTYPE_BYTES,
        vec![],
    );
    let mut prev = embed;
    for i in 0..layers {
        let prefix = format!("blk{i}");
        let qkv = matmul_layer(
            &mut b,
            &format!("{prefix}.qkv"),
            1,
            h,
            3 * h,
            LayerKind::Attention,
            true,
            vec![prev],
        );
        // Scores over the whole KV context; the KV buffer rides on this
        // layer's resident footprint.
        let scores = b.push(
            format!("{prefix}.scores"),
            LayerKind::Attention,
            Kernel::Matmul {
                m: 1,
                k: h,
                n: context,
            },
            kv_bytes, // resident K cache
            u64::from(context) * DTYPE_BYTES,
            vec![qkv],
        );
        let context_l = matmul_layer(
            &mut b,
            &format!("{prefix}.context"),
            1,
            context,
            h,
            LayerKind::Attention,
            false,
            vec![scores],
        );
        let proj = matmul_layer(
            &mut b,
            &format!("{prefix}.proj"),
            1,
            h,
            h,
            LayerKind::Fc,
            true,
            vec![context_l],
        );
        let ffn1 = matmul_layer(
            &mut b,
            &format!("{prefix}.ffn1"),
            1,
            h,
            4 * h,
            LayerKind::Fc,
            true,
            vec![proj],
        );
        prev = matmul_layer(
            &mut b,
            &format!("{prefix}.ffn2"),
            1,
            4 * h,
            h,
            LayerKind::Fc,
            true,
            vec![ffn1],
        );
    }
    b.build(name).expect("decode graph is valid")
}

/// A single transformer block with the given hidden dimension and
/// sequence length — the Figure 15 micro-workloads (`128dim_16slen`,
/// `64dim_16slen`).
pub fn transformer_block(dim: u32, seq: u32) -> ModelGraph {
    let mut b = GraphBuilder::new();
    let input = b.push(
        "in",
        LayerKind::Embed,
        Kernel::Vector {
            elems: u64::from(seq) * u64::from(dim),
        },
        0,
        u64::from(seq) * u64::from(dim) * DTYPE_BYTES,
        vec![],
    );
    block(&mut b, "blk", seq, dim, input);
    b.build(format!("transformer_block_{dim}dim_{seq}slen"))
        .expect("block graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt2_small_block_count() {
        let g = gpt2_small();
        // embed + 12 blocks x 8 layers.
        assert_eq!(g.len(), 1 + 12 * 8);
    }

    #[test]
    fn per_block_params_match_12h2() {
        // Transformer block params ≈ 12·h² (QKV 3h² + proj h² + MLP 8h²).
        let g = transformer_block(128, 16);
        let expect = 12 * 128u64 * 128;
        let got = g.total_weight_bytes() / DTYPE_BYTES;
        assert_eq!(got, expect);
    }

    #[test]
    fn blocks_have_residual_branches() {
        let g = gpt2_small();
        let cons = g.consumers();
        assert!(cons.iter().any(|c| c.len() >= 2));
    }

    #[test]
    fn micro_blocks_scale_with_dim() {
        let big = transformer_block(128, 16);
        let small = transformer_block(64, 16);
        assert!(big.total_macs() > small.total_macs());
        assert_eq!(big.name(), "transformer_block_128dim_16slen");
    }

    #[test]
    fn decode_phase_is_memory_intensive() {
        // §2.2: "the decode phase is memory-intensive" — per-iteration
        // MACs collapse (m = 1) while resident bytes grow with the KV
        // buffer.
        let prefill = gpt2_small();
        let decode = gpt2_decode(GptSize::Small, 1024);
        assert!(decode.total_macs() * 10 < prefill.total_macs());
        // KV buffers: 12 blocks x 2 x 1024 x 768 bytes on top of weights.
        let kv = 12 * 2 * 1024 * 768;
        assert!(decode.total_weight_bytes() > prefill.total_weight_bytes() + kv / 2);
    }

    #[test]
    fn decode_kv_buffer_scales_with_context() {
        let short = gpt2_decode(GptSize::Small, 128);
        let long = gpt2_decode(GptSize::Small, 2048);
        assert!(long.total_weight_bytes() > short.total_weight_bytes());
        assert!(long.total_macs() > short.total_macs()); // attention over more keys
    }

    #[test]
    fn decode_compiles_with_kv_accounting() {
        use crate::compile::{compile, CompileOptions};
        use vnpu_sim::SocConfig;
        let cfg = SocConfig::sim();
        let g = gpt2_decode(GptSize::Small, 1024);
        let out = compile(&g, 12, &cfg, &CompileOptions::default()).unwrap();
        // Footprints include the KV buffers and still fit the tiles.
        assert!(out
            .programs
            .iter()
            .all(|p| p.footprint_bytes <= cfg.scratchpad_bytes));
        let max_fp = out
            .programs
            .iter()
            .map(|p| p.footprint_bytes)
            .max()
            .unwrap();
        assert!(max_fp > 1 << 20, "KV state must appear in footprints");
    }

    #[test]
    fn bert_has_longer_sequence_than_gpt() {
        // BERT's 128-seq attention yields more attention MACs per block
        // than GPT-2's 64-seq at the same hidden size.
        let bert = bert_base();
        let gpt = gpt2_small();
        assert!(bert.total_macs() > gpt.total_macs());
    }
}
