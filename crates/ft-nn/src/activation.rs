//! GELU activation (tanh form), used between the Fourier layers and inside
//! the projection MLP, as in the `neuraloperator` reference implementation.

use ft_tensor::Tensor;

use crate::param::ParamMut;
use crate::Layer;

/// `gelu(x) = 0.5·x·(1 + tanh u)` with `u = √(2/π)·(x + 0.044715·x³)`,
/// evaluated as `x·σ(2u)` through the identity `1 + tanh u = 2σ(2u)`, where
/// `σ(z) = 1/(1 + e^(−z))`: one `exp` per element, and no cancellation in
/// `1 + tanh u` for negative `x`.
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
        Self::value_at(x, Self::sigmoid_2u(x))
    }

    /// Scalar derivative.
    #[inline]
    pub fn derivative(x: f64) -> f64 {
        Self::derivative_at(x, Self::sigmoid_2u(x))
    }

    /// `σ(2u)`, shared by the value and derivative.
    #[inline]
    fn sigmoid_2u(x: f64) -> f64 {
        1.0 / (1.0 + (-2.0 * C * (x + A * x * x * x)).exp())
    }

    #[inline]
    fn value_at(x: f64, s: f64) -> f64 {
        x * s
    }

    /// `σ + 2x·σ(1 − σ)·C·(1 + 3A·x²)`: `(1 − tanh² u)/2 = 2σ(1 − σ)`.
    #[inline]
    fn derivative_at(x: f64, s: f64) -> f64 {
        s + 2.0 * x * s * (1.0 - s) * C * (1.0 + 3.0 * A * x * x)
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        x.map(Self::value)
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        // One exp per element yields both the output and the slope that
        // backward needs.
        let mut out = Vec::with_capacity(x.len());
        let mut slope = Vec::with_capacity(x.len());
        for &xv in x.data() {
            let s = Self::sigmoid_2u(xv);
            out.push(Self::value_at(xv, s));
            slope.push(Self::derivative_at(xv, s));
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

    /// The tanh expression the σ(2u) form replaces, kept as its oracle.
    fn tanh_value(x: f64) -> f64 {
        0.5 * x * (1.0 + (C * (x + A * x * x * x)).tanh())
    }

    fn tanh_derivative(x: f64) -> f64 {
        let t = (C * (x + A * x * x * x)).tanh();
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * A * x * x)
    }

    #[test]
    fn agrees_with_the_tanh_form() {
        for i in -20_000..=20_000 {
            let x = i as f64 * 1e-3;
            let scale = x.abs().max(1.0);
            let dv = (Gelu::value(x) - tanh_value(x)).abs();
            assert!(dv <= 4e-15 * scale, "value at {x}: off by {dv:e}");
            let dd = (Gelu::derivative(x) - tanh_derivative(x)).abs();
            assert!(dd <= 2e-14, "slope at {x}: off by {dd:e}");
        }
    }

    #[test]
    fn stays_accurate_for_negative_inputs() {
        // 1 + tanh u cancels to 0 for u ≲ −19; the σ(2u) form keeps the
        // tiny negative value e^{2u}·x/(1 + e^{2u}).
        for i in 0..=6_000 {
            let x = -6.0 - i as f64 * 1e-3;
            let e = (2.0 * C * (x + A * x * x * x)).exp();
            let reference = x * e / (1.0 + e);
            let v = Gelu::value(x);
            assert!(v < 0.0, "value at {x} is {v}");
            let rel = ((v - reference) / reference).abs();
            assert!(rel <= 1e-12, "value at {x}: relative error {rel:e}");
        }
    }

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
