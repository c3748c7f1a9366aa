//! GELU activation (tanh form), used between the Fourier layers and inside
//! the projection MLP, as in the `neuraloperator` reference implementation.

use ft_tensor::Tensor;

use crate::param::ParamMut;
use crate::Layer;

/// `gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[derive(Clone, Default)]
pub struct Gelu {
    /// `gelu′(x)` of the last forward input, consumed by `backward`.
    cache_slope: Option<Tensor>,
}

const C: f64 = 0.797_884_560_802_865_4; // sqrt(2/π)
const A: f64 = 0.044715;

impl Gelu {
    /// A fresh activation layer (stateless apart from the backward cache).
    pub fn new() -> Self {
        Gelu::default()
    }

    /// Scalar forward value.
    #[inline]
    pub fn value(x: f64) -> f64 {
        Self::value_at(x, Self::tanh_u(x))
    }

    /// Scalar derivative.
    #[inline]
    pub fn derivative(x: f64) -> f64 {
        Self::derivative_at(x, Self::tanh_u(x))
    }

    /// `tanh(√(2/π)·(x + 0.044715·x³))`, shared by the value and derivative.
    #[inline]
    fn tanh_u(x: f64) -> f64 {
        (C * (x + A * x * x * x)).tanh()
    }

    #[inline]
    fn value_at(x: f64, t: f64) -> f64 {
        0.5 * x * (1.0 + t)
    }

    #[inline]
    fn derivative_at(x: f64, t: f64) -> f64 {
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * A * x * x)
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        x.map(Self::value)
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        // One tanh per element yields both the output and the slope that
        // backward needs.
        let mut out = Vec::with_capacity(x.len());
        let mut slope = Vec::with_capacity(x.len());
        for &xv in x.data() {
            let t = Self::tanh_u(xv);
            out.push(Self::value_at(xv, t));
            slope.push(Self::derivative_at(xv, t));
        }
        self.cache_slope = Some(Tensor::from_vec(x.dims(), slope));
        Tensor::from_vec(x.dims(), out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let slope = self
            .cache_slope
            .take()
            .expect("backward called without a cached forward");
        slope.zip_map(grad_out, |dv, gv| dv * gv)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamMut<'_>)) {}

    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_input_gradient;

    #[test]
    fn known_values() {
        // gelu(0) = 0; gelu(+∞) → x; gelu is odd-ish around 0 only approximately.
        assert_eq!(Gelu::value(0.0), 0.0);
        assert!((Gelu::value(10.0) - 10.0).abs() < 1e-9);
        assert!(Gelu::value(-10.0).abs() < 1e-9);
        // Reference value (PyTorch tanh-approx gelu(1.0) ≈ 0.841192).
        assert!((Gelu::value(1.0) - 0.841192).abs() < 1e-5);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.2, 1.0, 2.5] {
            let eps = 1e-6;
            let num = (Gelu::value(x + eps) - Gelu::value(x - eps)) / (2.0 * eps);
            assert!(
                (Gelu::derivative(x) - num).abs() < 1e-8,
                "x={x}: {} vs {num}",
                Gelu::derivative(x)
            );
        }
    }

    #[test]
    fn layer_gradcheck() {
        let mut layer = Gelu::new();
        let x = Tensor::from_fn(&[2, 3, 4], |i| {
            (i[0] as f64 - 0.5) * 0.8 + i[1] as f64 * 0.3 - i[2] as f64 * 0.2
        });
        check_input_gradient(&mut layer, &x, 1e-5, 1e-6);
    }

    #[test]
    fn backward_is_bitwise_derivative_times_grad() {
        let xs: Vec<f64> = (-40..=40)
            .map(|i| i as f64 * 0.25)
            .chain([0.0, -0.0, 10.0, -10.0, -1e-8, 3.7e-3, -6.25])
            .collect();
        let gs: Vec<f64> = (0..xs.len()).map(|i| 1.5 - 0.37 * i as f64).collect();
        let x = Tensor::from_vec(&[xs.len()], xs.clone());
        let mut layer = Gelu::new();
        let y = layer.forward(&x);
        let dx = layer.backward(&Tensor::from_vec(&[gs.len()], gs.clone()));
        for i in 0..xs.len() {
            assert_eq!(y.data()[i].to_bits(), Gelu::value(xs[i]).to_bits(), "value at {}", xs[i]);
            let expect = Gelu::derivative(xs[i]) * gs[i];
            assert_eq!(dx.data()[i].to_bits(), expect.to_bits(), "grad at {}", xs[i]);
        }
    }

    #[test]
    fn monotone_on_positive_axis() {
        let mut prev = Gelu::value(0.0);
        for i in 1..100 {
            let v = Gelu::value(i as f64 * 0.1);
            assert!(v > prev);
            prev = v;
        }
    }
}
