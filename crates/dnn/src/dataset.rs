//! Dataset descriptors and synthetic input generation.
//!
//! The paper evaluates AlexNet on MNIST, VGG16 on CIFAR-10 and ResNet152 on
//! ImageNet (§4.1). Every reported metric — crossbar utilization, energy,
//! area, latency, RUE — is a function of *layer and input geometry* only, so
//! this reproduction ships dataset descriptors rather than the datasets
//! themselves, plus a seeded synthetic image generator for the functional
//! (numerical) crossbar simulation path. See DESIGN.md §1 for the
//! substitution rationale.

use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The three evaluation datasets of the paper, as geometry descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// 28×28×1 grayscale digits, 10 classes.
    Mnist,
    /// 32×32×3 color images, 10 classes.
    Cifar10,
    /// 224×224×3 color images (canonical crop), 1000 classes.
    ImageNet,
}

impl Dataset {
    /// Input feature-map side length.
    pub fn input_size(self) -> usize {
        match self {
            Dataset::Mnist => 28,
            Dataset::Cifar10 => 32,
            Dataset::ImageNet => 224,
        }
    }

    /// Input channel count.
    pub fn input_channels(self) -> usize {
        match self {
            Dataset::Mnist => 1,
            Dataset::Cifar10 | Dataset::ImageNet => 3,
        }
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Mnist => "MNIST",
            Dataset::Cifar10 => "CIFAR-10",
            Dataset::ImageNet => "ImageNet",
        }
    }

    /// A deterministic synthetic input image in `[0, 1)`, CHW layout.
    ///
    /// Used by the functional inference path; pixel values never influence
    /// the architecture-search metrics.
    pub fn synthetic_image(self, seed: u64) -> Tensor {
        let c = self.input_channels();
        let s = self.input_size();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0_5E_7A_11);
        let data: Vec<f32> = (0..c * s * s).map(|_| rng.gen::<f32>()).collect();
        Tensor::from_vec(vec![c, s, s], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_paper_section_4_1() {
        assert_eq!(Dataset::Mnist.input_size(), 28);
        assert_eq!(Dataset::Mnist.input_channels(), 1);
        assert_eq!(Dataset::Cifar10.input_size(), 32);
        assert_eq!(Dataset::Cifar10.input_channels(), 3);
        assert_eq!(Dataset::ImageNet.input_size(), 224);
    }

    #[test]
    fn synthetic_images_are_deterministic() {
        let a = Dataset::Cifar10.synthetic_image(7);
        let b = Dataset::Cifar10.synthetic_image(7);
        assert_eq!(a.data(), b.data());
        let c = Dataset::Cifar10.synthetic_image(8);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn synthetic_image_shape_and_range() {
        let img = Dataset::Mnist.synthetic_image(0);
        assert_eq!(img.shape(), &[1, 28, 28]);
        assert!(img.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
