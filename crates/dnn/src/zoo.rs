//! The evaluation networks of the paper's Table 2, plus small models used
//! by tests and examples.
//!
//! Table 2 describes the three workloads structurally (`aCb-c` = `a` CONV
//! layers with `b×b` kernels and `c` output channels; `Fd` = an FC layer
//! with `d` output neurons). The paper pairs AlexNet with MNIST, VGG16 with
//! CIFAR-10 and ResNet152 with ImageNet (§4.1); pooling stages are standard
//! for these networks and consume no crossbars.

use crate::dataset::Dataset;
use crate::layer::Layer;
use crate::model::{Model, ModelBuilder};

/// AlexNet on MNIST, per Table 2:
/// `C3-64, C3-192, C3-384, 2C3-256, F4096, F4096, F10` (8 mappable layers).
pub fn alexnet() -> Model {
    ModelBuilder::new("AlexNet", Dataset::Mnist)
        .conv(64, 3)
        .pool(2) // 28 → 14
        .conv(192, 3)
        .pool(2) // 14 → 7
        .conv(384, 3)
        .conv(256, 3)
        .conv(256, 3)
        .pool(2) // 7 → 3
        .fc(4096)
        .fc(4096)
        .fc(10)
        .build()
}

/// VGG16 on CIFAR-10, per Table 2:
/// `2C3-64, 2C3-128, 3C3-256, 6C3-512, F4096, F1000, F10` (16 mappable
/// layers, matching the L1–L16 indexing of the paper's Table 3).
pub fn vgg16() -> Model {
    ModelBuilder::new("VGG16", Dataset::Cifar10)
        .conv(64, 3)
        .conv(64, 3)
        .pool(2) // 32 → 16
        .conv(128, 3)
        .conv(128, 3)
        .pool(2) // 16 → 8
        .conv(256, 3)
        .conv(256, 3)
        .conv(256, 3)
        .pool(2) // 8 → 4
        .conv(512, 3)
        .conv(512, 3)
        .conv(512, 3)
        .pool(2) // 4 → 2
        .conv(512, 3)
        .conv(512, 3)
        .conv(512, 3)
        .pool(2) // 2 → 1
        .fc(4096)
        .fc(1000)
        .fc(10)
        .build()
}

/// ResNet152 on ImageNet: the standard bottleneck architecture
/// (stem `C7-64`, stages of [3, 8, 36, 3] bottlenecks with widths
/// 64/128/256/512 and ×4 expansion, four 1×1 projection shortcuts, `F1000`).
/// This realizes Table 2's mix of `C1-*` and `C3-*` layers; 156 mappable
/// layers in total.
pub fn resnet152() -> Model {
    let mut layers: Vec<Layer> = Vec::with_capacity(156);
    let mut idx = 0usize;
    let mut push = |layers: &mut Vec<Layer>,
                    cin: usize,
                    cout: usize,
                    k: usize,
                    s: usize,
                    p: usize,
                    size: usize| {
        layers.push(Layer::conv(idx, cin, cout, k, s, p, size));
        idx += 1;
    };

    // Stem: 7×7/2 conv then 2× max-pool.
    let mut size = 224;
    push(&mut layers, 3, 64, 7, 2, 3, size);
    size = 112 / 2; // stride-2 conv → 112, pool → 56
    let mut in_ch = 64;

    let stages: [(usize, usize); 4] = [(3, 64), (8, 128), (36, 256), (3, 512)];
    for (stage_i, &(blocks, width)) in stages.iter().enumerate() {
        let out_ch = width * 4;
        for b in 0..blocks {
            // First block of stages 2–4 downsamples in its 3×3 conv.
            let stride = if b == 0 && stage_i > 0 { 2 } else { 1 };
            // 1×1 reduce.
            push(&mut layers, in_ch, width, 1, 1, 0, size);
            // 3×3 (possibly strided).
            push(&mut layers, width, width, 3, stride, 1, size);
            let out_size = if stride == 2 { size / 2 } else { size };
            // 1×1 expand.
            push(&mut layers, width, out_ch, 1, 1, 0, out_size);
            if b == 0 {
                // Projection shortcut on the block input.
                push(&mut layers, in_ch, out_ch, 1, stride, 0, size);
            }
            in_ch = out_ch;
            size = out_size;
        }
    }

    // Global average pool (7×7 → 1×1) then the classifier.
    layers.push(Layer::fc(idx, in_ch, 1000));

    Model {
        name: "ResNet152".into(),
        dataset: Dataset::ImageNet,
        layers,
        // Residual topology is not a linear chain: mapping-only model
        // (functional inference unsupported; see `Model::stages`).
        stages: Vec::new(),
    }
}

/// All three Table 2 workloads, in the paper's presentation order.
pub fn paper_models() -> Vec<Model> {
    vec![alexnet(), vgg16(), resnet152()]
}

/// LeNet-5 on MNIST (LeCun et al. '98, the paper's \[14\]): the classic
/// small CNN, useful as an additional edge-class workload with 5×5
/// kernels that fit no power-of-two crossbar height cleanly.
pub fn lenet5() -> Model {
    ModelBuilder::new("LeNet5", Dataset::Mnist)
        .conv_spec(6, 5, 1, 2) // 28 → 28
        .pool(2) // 28 → 14
        .conv_spec(16, 5, 1, 0) // 14 → 10
        .pool(2) // 10 → 5
        .fc(120)
        .fc(84)
        .fc(10)
        .build()
}

/// MobileNetV1 on ImageNet (beyond-paper workload, DESIGN.md §6): the
/// depthwise-separable architecture whose depthwise stages pack
/// diagonally onto crossbars — the layer class where crossbar-level
/// heterogeneity matters most. 28 mappable layers: stem +
/// 13 × (depthwise, pointwise) + classifier.
pub fn mobilenet_v1() -> Model {
    let mut b = ModelBuilder::new("MobileNetV1", Dataset::ImageNet).conv_spec(32, 3, 2, 1); // 224 → 112
                                                                                            // (pointwise width, depthwise stride) pairs, standard V1 schedule.
    let blocks: [(usize, usize); 13] = [
        (64, 1),
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
    for (width, stride) in blocks {
        b = b.depthwise_spec(3, stride, 1).conv(width, 1);
    }
    // Global average pool (7 → 1) then the classifier.
    b = b.pool(7);
    b.fc(1000).build()
}

/// A small CIFAR-style CNN used by functional-inference tests and the
/// quickstart example: big enough to exercise multi-crossbar mapping, small
/// enough to simulate numerically.
pub fn test_cnn() -> Model {
    ModelBuilder::new("TestCNN", Dataset::Cifar10)
        .conv(8, 3)
        .pool(2)
        .conv(16, 3)
        .pool(2)
        .conv(16, 1)
        .pool(2)
        .fc(32)
        .fc(10)
        .build()
}

/// A 4-layer model small enough for exhaustive strategy enumeration,
/// used to measure the RL agent's optimality gap.
pub fn micro_cnn() -> Model {
    ModelBuilder::new("MicroCNN", Dataset::Mnist)
        .conv(8, 3)
        .pool(2)
        .conv(12, 3)
        .pool(2)
        .fc(24)
        .fc(10)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn vgg16_has_sixteen_layers_matching_table2() {
        let m = vgg16();
        assert_eq!(m.num_layers(), 16);
        let convs: Vec<_> = m.layers_of_kind(LayerKind::Conv).collect();
        assert_eq!(convs.len(), 13);
        // Block widths: 2×64, 2×128, 3×256, 6×512.
        let widths: Vec<usize> = convs.iter().map(|l| l.out_channels).collect();
        assert_eq!(
            widths,
            vec![64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]
        );
        // FC head per Table 2.
        let fcs: Vec<usize> = m
            .layers_of_kind(LayerKind::Fc)
            .map(|l| l.out_channels)
            .collect();
        assert_eq!(fcs, vec![4096, 1000, 10]);
    }

    #[test]
    fn vgg16_layer4_matches_paper_section_3_3() {
        // §3.3: "the fourth layer of VGG16 (i.e., k = 3, Cin = 128,
        // Cout = 128)".
        let m = vgg16();
        let l4 = &m.layers[3];
        assert_eq!(l4.kernel, 3);
        assert_eq!(l4.in_channels, 128);
        assert_eq!(l4.out_channels, 128);
    }

    #[test]
    fn vgg16_conv_share_of_3x3_is_total() {
        // §3.3 reports 81.25% of VGG16 *weight matrices* (13 of 16 layers)
        // come from 3×3 kernels; as a share of CONV layers it is 100%.
        let m = vgg16();
        assert_eq!(m.conv_kernel_share(3), 1.0);
        assert!((13.0_f64 / 16.0 - 0.8125).abs() < 1e-12);
    }

    #[test]
    fn alexnet_structure_matches_table2() {
        let m = alexnet();
        assert_eq!(m.num_layers(), 8);
        let convs: Vec<usize> = m
            .layers_of_kind(LayerKind::Conv)
            .map(|l| l.out_channels)
            .collect();
        assert_eq!(convs, vec![64, 192, 384, 256, 256]);
        assert!(m.layers.iter().take(5).all(|l| l.kernel == 3));
        let fcs: Vec<usize> = m
            .layers_of_kind(LayerKind::Fc)
            .map(|l| l.out_channels)
            .collect();
        assert_eq!(fcs, vec![4096, 4096, 10]);
        assert_eq!(m.dataset, Dataset::Mnist);
    }

    #[test]
    fn resnet152_layer_census() {
        let m = resnet152();
        assert_eq!(m.num_layers(), 156);
        let c1 = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Conv && l.kernel == 1)
            .count();
        let c3 = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Conv && l.kernel == 3)
            .count();
        let c7 = m.layers.iter().filter(|l| l.kernel == 7).count();
        let fc = m.layers_of_kind(LayerKind::Fc).count();
        assert_eq!(c7, 1);
        assert_eq!(c3, 50); // 3 + 8 + 36 + 3
        assert_eq!(c1, 104); // 2 per block + 4 projections
        assert_eq!(fc, 1);
        // Classifier input is the 2048-wide globally-pooled feature.
        assert_eq!(m.layers.last().unwrap().in_channels, 2048);
        assert_eq!(m.layers.last().unwrap().out_channels, 1000);
    }

    #[test]
    fn resnet152_downsampling_path_is_consistent() {
        let m = resnet152();
        // Stem output is 56 after pool; last conv stage runs at 7×7.
        assert_eq!(m.layers[1].in_size, 56);
        let last_conv = m
            .layers
            .iter()
            .rev()
            .find(|l| l.kind == LayerKind::Conv)
            .unwrap();
        assert_eq!(last_conv.out_size(), 7);
    }

    #[test]
    fn resnet152_1x1_share_is_large() {
        // §3.3: 3×3 kernels are the minority (32.05%) of ResNet152 weight
        // matrices; 1×1 dominates.
        let m = resnet152();
        assert!(m.conv_kernel_share(1) > 0.6);
    }

    #[test]
    fn paper_models_order() {
        let names: Vec<String> = paper_models().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["AlexNet", "VGG16", "ResNet152"]);
    }

    #[test]
    fn lenet5_structure() {
        let m = lenet5();
        assert_eq!(m.num_layers(), 5);
        assert!(m.layers[0].kernel == 5 && m.layers[1].kernel == 5);
        // Classic flatten: 16 channels × 5×5.
        assert_eq!(m.layers[2].in_channels, 16 * 25);
        let fcs: Vec<usize> = m
            .layers_of_kind(LayerKind::Fc)
            .map(|l| l.out_channels)
            .collect();
        assert_eq!(fcs, vec![120, 84, 10]);
        // LeNet is a linear chain: functional inference supported.
        assert!(!m.stages.is_empty());
    }

    #[test]
    fn mobilenet_v1_census() {
        let m = mobilenet_v1();
        // stem + 13 dw + 13 pw + fc = 28.
        assert_eq!(m.num_layers(), 28);
        let dw = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::DepthwiseConv)
            .count();
        assert_eq!(dw, 13);
        // Depthwise layers preserve channels.
        for l in m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::DepthwiseConv)
        {
            assert_eq!(l.in_channels, l.out_channels);
            assert_eq!(l.kernel, 3);
        }
        // Final feature map is 7×7 before the global pool, classifier
        // input is 1024.
        assert_eq!(m.layers.last().unwrap().in_channels, 1024);
        // Depthwise infers through block-diagonal crossbars: full chain.
        assert!(!m.stages.is_empty());
    }

    #[test]
    fn test_models_are_small() {
        assert!(test_cnn().num_layers() <= 6);
        assert_eq!(micro_cnn().num_layers(), 4);
        assert!(micro_cnn().total_weights() < 100_000);
    }
}
