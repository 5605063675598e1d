//! Convolutional networks: ResNet-18/34/50, AlexNet, GoogLeNet,
//! MobileNetV1, YOLO-Lite, EfficientNet-B0, and the Figure 15 ResNet
//! micro-blocks.

use super::DTYPE_BYTES;
use crate::graph::{GraphBuilder, LayerId, LayerKind, ModelGraph};
use vnpu_sim::isa::{out_dim, Kernel};

/// Emits a convolution layer; returns `(id, output spatial size)`.
#[allow(clippy::too_many_arguments)]
fn conv(
    b: &mut GraphBuilder,
    name: &str,
    hw: u32,
    in_ch: u32,
    out_ch: u32,
    k: u32,
    stride: u32,
    deps: Vec<LayerId>,
) -> (LayerId, u32) {
    let out = out_dim(hw, k, stride);
    let id = b.push(
        name,
        LayerKind::Conv,
        Kernel::Conv {
            hw,
            in_ch,
            out_ch,
            kernel: k,
            stride,
        },
        u64::from(in_ch) * u64::from(out_ch) * u64::from(k) * u64::from(k) * DTYPE_BYTES,
        u64::from(out) * u64::from(out) * u64::from(out_ch) * DTYPE_BYTES,
        deps,
    );
    (id, out)
}

/// Depthwise convolution (per-channel 3×3).
fn dwconv(
    b: &mut GraphBuilder,
    name: &str,
    hw: u32,
    ch: u32,
    stride: u32,
    deps: Vec<LayerId>,
) -> (LayerId, u32) {
    let out = out_dim(hw, 3, stride);
    let id = b.push(
        name,
        LayerKind::Conv,
        Kernel::Conv {
            hw,
            in_ch: 1,
            out_ch: ch,
            kernel: 3,
            stride,
        },
        u64::from(ch) * 9 * DTYPE_BYTES,
        u64::from(out) * u64::from(out) * u64::from(ch) * DTYPE_BYTES,
        deps,
    );
    (id, out)
}

/// 2×2 max-pool halving the spatial size.
fn pool(b: &mut GraphBuilder, name: &str, hw: u32, ch: u32, dep: LayerId) -> (LayerId, u32) {
    let out = hw / 2;
    let id = b.push(
        name,
        LayerKind::Pool,
        Kernel::Vector {
            elems: u64::from(hw) * u64::from(hw) * u64::from(ch),
        },
        0,
        u64::from(out) * u64::from(out) * u64::from(ch) * DTYPE_BYTES,
        vec![dep],
    );
    (id, out)
}

fn fc(b: &mut GraphBuilder, name: &str, in_dim: u32, out_dim_: u32, deps: Vec<LayerId>) -> LayerId {
    b.push(
        name,
        LayerKind::Fc,
        Kernel::Matmul {
            m: 1,
            k: in_dim,
            n: out_dim_,
        },
        u64::from(in_dim) * u64::from(out_dim_) * DTYPE_BYTES,
        u64::from(out_dim_) * DTYPE_BYTES,
        deps,
    )
}

fn add(b: &mut GraphBuilder, name: &str, hw: u32, ch: u32, deps: Vec<LayerId>) -> LayerId {
    b.push(
        name,
        LayerKind::Elementwise,
        Kernel::Vector {
            elems: u64::from(hw) * u64::from(hw) * u64::from(ch),
        },
        0,
        u64::from(hw) * u64::from(hw) * u64::from(ch) * DTYPE_BYTES,
        deps,
    )
}

/// One ResNet *basic* block (two 3×3 convs + residual add).
fn basic_block(
    b: &mut GraphBuilder,
    prefix: &str,
    hw: u32,
    in_ch: u32,
    out_ch: u32,
    stride: u32,
    input: LayerId,
) -> (LayerId, u32) {
    let (c1, hw1) = conv(
        b,
        &format!("{prefix}.conv1"),
        hw,
        in_ch,
        out_ch,
        3,
        stride,
        vec![input],
    );
    let (c2, hw2) = conv(
        b,
        &format!("{prefix}.conv2"),
        hw1,
        out_ch,
        out_ch,
        3,
        1,
        vec![c1],
    );
    let skip = if stride != 1 || in_ch != out_ch {
        let (proj, _) = conv(
            b,
            &format!("{prefix}.proj"),
            hw,
            in_ch,
            out_ch,
            1,
            stride,
            vec![input],
        );
        proj
    } else {
        input
    };
    let sum = add(b, &format!("{prefix}.add"), hw2, out_ch, vec![c2, skip]);
    (sum, hw2)
}

/// One ResNet *bottleneck* block (1×1, 3×3, 1×1 with 4× expansion).
fn bottleneck_block(
    b: &mut GraphBuilder,
    prefix: &str,
    hw: u32,
    in_ch: u32,
    mid_ch: u32,
    stride: u32,
    input: LayerId,
) -> (LayerId, u32) {
    let out_ch = mid_ch * 4;
    let (c1, hw1) = conv(
        b,
        &format!("{prefix}.conv1"),
        hw,
        in_ch,
        mid_ch,
        1,
        1,
        vec![input],
    );
    let (c2, hw2) = conv(
        b,
        &format!("{prefix}.conv2"),
        hw1,
        mid_ch,
        mid_ch,
        3,
        stride,
        vec![c1],
    );
    let (c3, hw3) = conv(
        b,
        &format!("{prefix}.conv3"),
        hw2,
        mid_ch,
        out_ch,
        1,
        1,
        vec![c2],
    );
    let skip = if stride != 1 || in_ch != out_ch {
        let (proj, _) = conv(
            b,
            &format!("{prefix}.proj"),
            hw,
            in_ch,
            out_ch,
            1,
            stride,
            vec![input],
        );
        proj
    } else {
        input
    };
    let sum = add(b, &format!("{prefix}.add"), hw3, out_ch, vec![c3, skip]);
    (sum, hw3)
}

fn resnet(name: &str, blocks: [u32; 4], bottleneck: bool) -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (stem, hw) = conv(&mut b, "conv1", 224, 3, 64, 7, 2, vec![]);
    let (p, mut hw) = pool(&mut b, "maxpool", hw, 64, stem);
    let mut prev = p;
    let mut in_ch = 64;
    let stage_ch = [64u32, 128, 256, 512];
    for (s, &count) in blocks.iter().enumerate() {
        for i in 0..count {
            let stride = if s > 0 && i == 0 { 2 } else { 1 };
            let prefix = format!("stage{}.{}", s + 1, i);
            let (out, new_hw) = if bottleneck {
                bottleneck_block(&mut b, &prefix, hw, in_ch, stage_ch[s], stride, prev)
            } else {
                basic_block(&mut b, &prefix, hw, in_ch, stage_ch[s], stride, prev)
            };
            prev = out;
            hw = new_hw;
            in_ch = if bottleneck {
                stage_ch[s] * 4
            } else {
                stage_ch[s]
            };
        }
    }
    fc(&mut b, "fc", in_ch, 1000, vec![prev]);
    b.build(name).expect("resnet graph is valid")
}

/// ResNet-18 (11.7 M parameters).
pub fn resnet18() -> ModelGraph {
    resnet("resnet18", [2, 2, 2, 2], false)
}

/// ResNet-34 (21.8 M parameters).
pub fn resnet34() -> ModelGraph {
    resnet("resnet34", [3, 4, 6, 3], false)
}

/// ResNet-50 (25.6 M parameters).
pub fn resnet50() -> ModelGraph {
    resnet("resnet50", [3, 4, 6, 3], true)
}

/// A standalone ResNet basic block at the given spatial size and channel
/// count — the Figure 15 micro-workloads (`16wh_64c`, `20wh_32c`).
pub fn resnet_block(hw: u32, ch: u32) -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (input, _) = conv(&mut b, "in", hw, ch, ch, 1, 1, vec![]);
    let (_, _) = basic_block(&mut b, "blk", hw, ch, ch, 1, input);
    b.build(format!("resnet_block_{hw}wh_{ch}c"))
        .expect("block graph is valid")
}

/// AlexNet (≈61 M parameters, FC-dominated).
pub fn alexnet() -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (c1, hw) = conv(&mut b, "conv1", 227, 3, 96, 11, 4, vec![]);
    let (p1, hw) = pool(&mut b, "pool1", hw, 96, c1);
    let (c2, hw) = conv(&mut b, "conv2", hw, 96, 256, 5, 1, vec![p1]);
    let (p2, hw) = pool(&mut b, "pool2", hw, 256, c2);
    let (c3, hw) = conv(&mut b, "conv3", hw, 256, 384, 3, 1, vec![p2]);
    let (c4, hw) = conv(&mut b, "conv4", hw, 384, 384, 3, 1, vec![c3]);
    let (c5, hw) = conv(&mut b, "conv5", hw, 384, 256, 3, 1, vec![c4]);
    let (p5, hw) = pool(&mut b, "pool5", hw, 256, c5);
    let flat = hw * hw * 256;
    let f6 = fc(&mut b, "fc6", flat, 4096, vec![p5]);
    let f7 = fc(&mut b, "fc7", 4096, 4096, vec![f6]);
    fc(&mut b, "fc8", 4096, 1000, vec![f7]);
    b.build("alexnet").expect("alexnet graph is valid")
}

/// One GoogLeNet inception module.
#[allow(clippy::too_many_arguments)]
fn inception(
    b: &mut GraphBuilder,
    prefix: &str,
    hw: u32,
    in_ch: u32,
    c1: u32,
    c3r: u32,
    c3: u32,
    c5r: u32,
    c5: u32,
    cp: u32,
    input: LayerId,
) -> (LayerId, u32) {
    let (b1, _) = conv(
        b,
        &format!("{prefix}.1x1"),
        hw,
        in_ch,
        c1,
        1,
        1,
        vec![input],
    );
    let (b3r, _) = conv(
        b,
        &format!("{prefix}.3x3r"),
        hw,
        in_ch,
        c3r,
        1,
        1,
        vec![input],
    );
    let (b3, hw3) = conv(b, &format!("{prefix}.3x3"), hw, c3r, c3, 3, 1, vec![b3r]);
    let (b5r, _) = conv(
        b,
        &format!("{prefix}.5x5r"),
        hw,
        in_ch,
        c5r,
        1,
        1,
        vec![input],
    );
    let (b5, _) = conv(b, &format!("{prefix}.5x5"), hw, c5r, c5, 5, 1, vec![b5r]);
    let (bp, _) = conv(
        b,
        &format!("{prefix}.poolp"),
        hw,
        in_ch,
        cp,
        1,
        1,
        vec![input],
    );
    let out_ch = c1 + c3 + c5 + cp;
    let concat = b.push(
        format!("{prefix}.concat"),
        LayerKind::Elementwise,
        Kernel::Vector {
            elems: u64::from(hw3) * u64::from(hw3) * u64::from(out_ch),
        },
        0,
        u64::from(hw3) * u64::from(hw3) * u64::from(out_ch) * DTYPE_BYTES,
        vec![b1, b3, b5, bp],
    );
    (concat, hw3)
}

/// GoogLeNet (≈7 M parameters, 9 inception modules).
pub fn googlenet() -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (c1, hw) = conv(&mut b, "conv1", 224, 3, 64, 7, 2, vec![]);
    let (p1, hw) = pool(&mut b, "pool1", hw, 64, c1);
    let (c2, hw) = conv(&mut b, "conv2", hw, 64, 192, 3, 1, vec![p1]);
    let (p2, hw) = pool(&mut b, "pool2", hw, 192, c2);
    // (in, 1x1, 3x3r, 3x3, 5x5r, 5x5, poolproj) — standard table.
    let (i3a, hw) = inception(&mut b, "3a", hw, 192, 64, 96, 128, 16, 32, 32, p2);
    let (i3b, hw) = inception(&mut b, "3b", hw, 256, 128, 128, 192, 32, 96, 64, i3a);
    let (p3, hw) = pool(&mut b, "pool3", hw, 480, i3b);
    let (i4a, hw) = inception(&mut b, "4a", hw, 480, 192, 96, 208, 16, 48, 64, p3);
    let (i4b, hw) = inception(&mut b, "4b", hw, 512, 160, 112, 224, 24, 64, 64, i4a);
    let (i4c, hw) = inception(&mut b, "4c", hw, 512, 128, 128, 256, 24, 64, 64, i4b);
    let (i4d, hw) = inception(&mut b, "4d", hw, 512, 112, 144, 288, 32, 64, 64, i4c);
    let (i4e, hw) = inception(&mut b, "4e", hw, 528, 256, 160, 320, 32, 128, 128, i4d);
    let (p4, hw) = pool(&mut b, "pool4", hw, 832, i4e);
    let (i5a, hw) = inception(&mut b, "5a", hw, 832, 256, 160, 320, 32, 128, 128, p4);
    let (i5b, _hw) = inception(&mut b, "5b", hw, 832, 384, 192, 384, 48, 128, 128, i5a);
    fc(&mut b, "fc", 1024, 1000, vec![i5b]);
    b.build("googlenet").expect("googlenet graph is valid")
}

/// MobileNetV1 (≈4.2 M parameters, depthwise-separable).
pub fn mobilenet_v1() -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (stem, mut hw) = conv(&mut b, "conv1", 224, 3, 32, 3, 2, vec![]);
    let mut prev = stem;
    let mut ch = 32u32;
    // (output channels, stride) per separable block.
    let blocks = [
        (64u32, 1u32),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (i, &(out_ch, stride)) in blocks.iter().enumerate() {
        let (dw, hw1) = dwconv(&mut b, &format!("dw{i}"), hw, ch, stride, vec![prev]);
        let (pw, hw2) = conv(&mut b, &format!("pw{i}"), hw1, ch, out_ch, 1, 1, vec![dw]);
        prev = pw;
        hw = hw2;
        ch = out_ch;
    }
    fc(&mut b, "fc", 1024, 1000, vec![prev]);
    b.build("mobilenet_v1").expect("mobilenet graph is valid")
}

/// YOLO-Lite (7 small convolutions for non-GPU object detection).
pub fn yolo_lite() -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (c1, hw) = conv(&mut b, "conv1", 224, 3, 16, 3, 1, vec![]);
    let (p1, hw) = pool(&mut b, "pool1", hw, 16, c1);
    let (c2, hw) = conv(&mut b, "conv2", hw, 16, 32, 3, 1, vec![p1]);
    let (p2, hw) = pool(&mut b, "pool2", hw, 32, c2);
    let (c3, hw) = conv(&mut b, "conv3", hw, 32, 64, 3, 1, vec![p2]);
    let (p3, hw) = pool(&mut b, "pool3", hw, 64, c3);
    let (c4, hw) = conv(&mut b, "conv4", hw, 64, 128, 3, 1, vec![p3]);
    let (p4, hw) = pool(&mut b, "pool4", hw, 128, c4);
    let (c5, hw) = conv(&mut b, "conv5", hw, 128, 128, 3, 1, vec![p4]);
    let (p5, hw) = pool(&mut b, "pool5", hw, 128, c5);
    let (c6, hw) = conv(&mut b, "conv6", hw, 128, 256, 3, 1, vec![p5]);
    conv(&mut b, "conv7", hw, 256, 125, 1, 1, vec![c6]);
    b.build("yolo_lite").expect("yolo-lite graph is valid")
}

/// EfficientNet-B0, approximated as a widened MobileNet (≈5.3 M params).
/// Documented substitution: the MBConv expansion structure is folded into
/// equivalent separable blocks with matched MAC counts.
pub fn efficientnet_b0() -> ModelGraph {
    let mut b = GraphBuilder::new();
    let (stem, mut hw) = conv(&mut b, "stem", 224, 3, 32, 3, 2, vec![]);
    let mut prev = stem;
    let mut ch = 32u32;
    let blocks = [
        (16u32, 1u32),
        (24, 2),
        (24, 1),
        (40, 2),
        (40, 1),
        (80, 2),
        (80, 1),
        (80, 1),
        (112, 1),
        (112, 1),
        (192, 2),
        (192, 1),
        (192, 1),
        (320, 1),
    ];
    for (i, &(out_ch, stride)) in blocks.iter().enumerate() {
        // MBConv expand (x6) -> depthwise -> project, folded.
        let expanded = ch * 6;
        let (e, hw0) = conv(
            &mut b,
            &format!("mb{i}.expand"),
            hw,
            ch,
            expanded,
            1,
            1,
            vec![prev],
        );
        let (dw, hw1) = dwconv(&mut b, &format!("mb{i}.dw"), hw0, expanded, stride, vec![e]);
        let (pr, hw2) = conv(
            &mut b,
            &format!("mb{i}.project"),
            hw1,
            expanded,
            out_ch,
            1,
            1,
            vec![dw],
        );
        prev = pr;
        hw = hw2;
        ch = out_ch;
    }
    let (head, _) = conv(&mut b, "head", hw, ch, 1280, 1, 1, vec![prev]);
    fc(&mut b, "fc", 1280, 1000, vec![head]);
    b.build("efficientnet_b0")
        .expect("efficientnet graph is valid")
}

/// RetinaNet approximated as ResNet-50 plus FPN/head convolutions
/// (documented substitution for the Figure 3 motivation).
pub fn retinanet_approx() -> ModelGraph {
    let base = resnet50();
    let mut b = GraphBuilder::new();
    let mut prev = None;
    for l in base.layers() {
        let deps = l.deps.clone();
        let id = b.push(
            l.name.clone(),
            l.kind,
            l.kernel,
            l.weight_bytes,
            l.out_bytes,
            deps,
        );
        prev = Some(id);
    }
    let mut last = prev.expect("resnet50 is non-empty");
    for i in 0..4 {
        let (c, _) = conv(&mut b, &format!("fpn{i}"), 28, 256, 256, 3, 1, vec![last]);
        last = c;
    }
    b.build("retinanet~").expect("retinanet graph is valid")
}

/// ResNet-RS approximated as a deepened ResNet-50 variant (documented
/// substitution for the Figure 3 motivation).
pub fn resnet_rs_approx() -> ModelGraph {
    resnet("resnet_rs~", [3, 4, 8, 3], true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_structure() {
        let g = resnet18();
        // conv1 + pool + 8 basic blocks (2 or 3 convs + add each) + fc.
        assert!(g.len() > 25 && g.len() < 45, "{} layers", g.len());
        // ~0.9 GMACs published for 224x224 (valid-padding shapes land a
        // little lower than same-padding ones).
        let gmacs = g.total_macs() as f64 / 1e9;
        assert!((0.4..3.0).contains(&gmacs), "{gmacs} GMACs");
    }

    #[test]
    fn resnet50_heavier_than_18() {
        assert!(resnet50().total_macs() > resnet18().total_macs());
        assert!(resnet34().total_macs() > resnet18().total_macs());
    }

    #[test]
    fn residuals_create_branches() {
        let g = resnet18();
        let cons = g.consumers();
        // Some layer output must feed 2+ consumers (the skip).
        assert!(cons.iter().any(|c| c.len() >= 2));
    }

    #[test]
    fn mobilenet_much_lighter_than_resnet() {
        assert!(mobilenet_v1().total_macs() * 2 < resnet18().total_macs());
        assert!(mobilenet_v1().total_weight_bytes() < 6_000_000);
    }

    #[test]
    fn googlenet_params_about_7m() {
        let p = googlenet().total_weight_bytes();
        assert!((4_000_000..10_000_000).contains(&p), "{p} bytes");
    }

    #[test]
    fn yolo_lite_is_tiny() {
        let g = yolo_lite();
        assert!(g.total_weight_bytes() < 2_000_000);
        assert_eq!(g.layers().last().unwrap().name, "conv7");
    }

    #[test]
    fn resnet_block_micro() {
        let g = resnet_block(16, 64);
        assert_eq!(g.name(), "resnet_block_16wh_64c");
        assert!(g.len() >= 4);
        let g2 = resnet_block(20, 32);
        assert!(g2.total_macs() < g.total_macs());
    }

    #[test]
    fn approximations_scale_up() {
        assert!(retinanet_approx().total_macs() > resnet50().total_macs());
        assert!(resnet_rs_approx().total_macs() > resnet50().total_macs());
    }
}
