//! Pointwise (1×1) channel-mixing linear layer.
//!
//! Acts independently at every grid point of an input `[B, C_in, *spatial]`:
//! `y[b, o, p] = Σ_i W[o, i] x[b, i, p] + bias[o]`. This is simultaneously
//! the `nn.Linear` of the lifting/projection MLPs and the `Conv(1×1)` local
//! term of each Fourier layer — they are the same map on channel vectors.

use ft_tensor::Tensor;
use rand::distributions::Uniform;
use rand::Rng;
use rayon::prelude::*;

use crate::param::{Param, ParamMut};
use crate::Layer;

/// Pointwise linear layer `C_in → C_out` with bias.
#[derive(Clone)]
pub struct Linear {
    c_in: usize,
    c_out: usize,
    /// Weight `[C_out, C_in]`.
    pub weight: Param,
    /// Bias `[C_out]`.
    pub bias: Param,
    cache_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-uniform initialization (the PyTorch `nn.Linear` default):
    /// `U(−1/√C_in, 1/√C_in)` for both weight and bias.
    pub fn new(c_in: usize, c_out: usize, rng: &mut impl Rng) -> Self {
        assert!(c_in > 0 && c_out > 0, "channel counts must be positive");
        let bound = 1.0 / (c_in as f64).sqrt();
        let dist = Uniform::new(-bound, bound);
        Linear {
            c_in,
            c_out,
            weight: Param::new(Tensor::random(&[c_out, c_in], &dist, rng)),
            bias: Param::new(Tensor::random(&[c_out], &dist, rng)),
            cache_input: None,
        }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.apply(x)
    }

    fn apply(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert!(dims.len() >= 2, "Linear expects [B, C, *spatial]");
        assert_eq!(dims[1], self.c_in, "input channels {} != layer c_in {}", dims[1], self.c_in);
        let p: usize = dims[2..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims[1] = self.c_out;

        let w = self.weight.value.data();
        let bias = self.bias.value.data();
        let xd = x.data();
        let mut out = Tensor::zeros(&out_dims);
        // Parallel over (batch, out-channel) planes.
        out.data_mut().par_chunks_mut(p).enumerate().for_each(|(plane, dst)| {
            let bi = plane / self.c_out;
            let o = plane % self.c_out;
            let xb = &xd[bi * self.c_in * p..(bi + 1) * self.c_in * p];
            mix_planes(dst, bias[o], &w[o * self.c_in..(o + 1) * self.c_in], 1, xb);
        });
        out
    }
}

/// Points per register tile in [`mix_planes`].
const TILE: usize = 16;

/// `dst[q] = seed + Σ_k w[k·stride]·src[k·P + q]` over the planes `k` of
/// `src` in order (`P = dst.len()`), skipping zero weights. Each tile of
/// points accumulates in registers across every plane before it is stored,
/// and each element sees the same additions in the same order as a loop
/// that adds one whole plane at a time.
#[inline]
fn mix_planes(dst: &mut [f64], seed: f64, w: &[f64], stride: usize, src: &[f64]) {
    let p = dst.len();
    let planes = src.len() / p;
    let mut tiles = dst.chunks_exact_mut(TILE);
    let mut off = 0;
    for out in &mut tiles {
        let mut acc = [seed; TILE];
        for k in 0..planes {
            let wv = w[k * stride];
            if wv == 0.0 {
                continue;
            }
            let s: &[f64; TILE] = src[k * p + off..][..TILE].try_into().unwrap();
            for j in 0..TILE {
                acc[j] += wv * s[j];
            }
        }
        out.copy_from_slice(&acc);
        off += TILE;
    }
    // The last `p mod TILE` points, one at a time.
    for (j, out) in tiles.into_remainder().iter_mut().enumerate() {
        let mut acc = seed;
        for k in 0..planes {
            let wv = w[k * stride];
            if wv != 0.0 {
                acc += wv * src[k * p + off + j];
            }
        }
        *out = acc;
    }
}

/// `Σ_q g[q]·x[q]` for four planes of `x` at once: four independent
/// chains, each summing over the points in order from `0.0`.
#[inline]
fn dot4(g: &[f64], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64]) -> [f64; 4] {
    let mut acc = [0.0; 4];
    for ((((&gv, &a), &b), &c), &d) in g.iter().zip(x0).zip(x1).zip(x2).zip(x3) {
        acc[0] += gv * a;
        acc[1] += gv * b;
        acc[2] += gv * c;
        acc[3] += gv * d;
    }
    acc
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.apply(x);
        self.cache_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_input
            .take()
            .expect("backward called without a cached forward");
        let dims = x.dims();
        let b = dims[0];
        let p: usize = dims[2..].iter().product();
        assert_eq!(grad_out.dims()[0], b, "batch mismatch");
        assert_eq!(grad_out.dims()[1], self.c_out, "output-channel mismatch");

        let g = grad_out.data();
        let xd = x.data();
        let w = self.weight.value.data();
        let c_in = self.c_in;

        // Parameter gradients.
        {
            let gw = self.weight.grad.data_mut();
            let gb = self.bias.grad.data_mut();
            for bi in 0..b {
                let xplane = |i: usize| &xd[(bi * c_in + i) * p..(bi * c_in + i + 1) * p];
                for o in 0..self.c_out {
                    let gseg = &g[(bi * self.c_out + o) * p..(bi * self.c_out + o + 1) * p];
                    gb[o] += gseg.iter().sum::<f64>();
                    let gwo = &mut gw[o * c_in..(o + 1) * c_in];
                    let mut i = 0;
                    while i + 4 <= c_in {
                        let acc =
                            dot4(gseg, xplane(i), xplane(i + 1), xplane(i + 2), xplane(i + 3));
                        for (gv, a) in gwo[i..i + 4].iter_mut().zip(acc) {
                            *gv += a;
                        }
                        i += 4;
                    }
                    for i in i..c_in {
                        let mut acc = 0.0;
                        for (&gv, &xv) in gseg.iter().zip(xplane(i)) {
                            acc += gv * xv;
                        }
                        gwo[i] += acc;
                    }
                }
            }
        }

        // Input gradient: dX[b, i, p] = Σ_o W[o, i] g[b, o, p].
        let mut gx = Tensor::zeros(dims);
        gx.data_mut().par_chunks_mut(p).enumerate().for_each(|(plane, dst)| {
            let bi = plane / c_in;
            let i = plane % c_in;
            let g_batch = &g[bi * self.c_out * p..(bi + 1) * self.c_out * p];
            mix_planes(dst, 0.0, &w[i..], c_in, g_batch);
        });
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut::Real { value: &mut self.weight.value, grad: &mut self.weight.grad });
        f(ParamMut::Real { value: &mut self.bias.value, grad: &mut self.bias.grad });
    }

    fn param_count(&self) -> usize {
        self.c_out * self.c_in + self.c_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The plane-at-a-time loops the tiled kernels replace, kept as their
    /// oracle: output, input gradient, weight and bias gradients.
    fn loop_oracle(
        layer: &Linear,
        x: &Tensor,
        g: &Tensor,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (c_in, c_out) = (layer.c_in, layer.c_out);
        let b = x.dims()[0];
        let p: usize = x.dims()[2..].iter().product();
        let (w, bias, xd, gd) =
            (layer.weight.value.data(), layer.bias.value.data(), x.data(), g.data());
        let mut y = vec![0.0; b * c_out * p];
        for (plane, dst) in y.chunks_mut(p).enumerate() {
            let (bi, o) = (plane / c_out, plane % c_out);
            dst.iter_mut().for_each(|v| *v = bias[o]);
            for i in 0..c_in {
                let wv = w[o * c_in + i];
                if wv == 0.0 {
                    continue;
                }
                let src = &xd[(bi * c_in + i) * p..(bi * c_in + i + 1) * p];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += wv * s;
                }
            }
        }
        let mut gw = layer.weight.grad.data().to_vec();
        let mut gb = layer.bias.grad.data().to_vec();
        for bi in 0..b {
            for o in 0..c_out {
                let gseg = &gd[(bi * c_out + o) * p..(bi * c_out + o + 1) * p];
                gb[o] += gseg.iter().sum::<f64>();
                for i in 0..c_in {
                    let xseg = &xd[(bi * c_in + i) * p..(bi * c_in + i + 1) * p];
                    let mut acc = 0.0;
                    for (&gv, &xv) in gseg.iter().zip(xseg) {
                        acc += gv * xv;
                    }
                    gw[o * c_in + i] += acc;
                }
            }
        }
        let mut gx = vec![0.0; b * c_in * p];
        for (plane, dst) in gx.chunks_mut(p).enumerate() {
            let (bi, i) = (plane / c_in, plane % c_in);
            for o in 0..c_out {
                let wv = w[o * c_in + i];
                if wv == 0.0 {
                    continue;
                }
                let gseg = &gd[(bi * c_out + o) * p..(bi * c_out + o + 1) * p];
                for (d, &gv) in dst.iter_mut().zip(gseg) {
                    *d += wv * gv;
                }
            }
        }
        (y, gx, gw, gb)
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn tiled_kernels_match_plane_loops_bitwise() {
        // (c_in, c_out, dims): point counts that are and are not a multiple
        // of the tile, a single point, and channel counts on both sides of
        // the four-chain weight-gradient block.
        let cases: [(usize, usize, &[usize]); 6] = [
            (8, 8, &[2, 8, 8, 8]),
            (32, 8, &[1, 32, 6, 7]),
            (3, 5, &[2, 3, 1]),
            (7, 2, &[3, 7, 37]),
            (1, 4, &[2, 1, 16]),
            (5, 9, &[1, 5, 3, 5]),
        ];
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        for (case, &(c_in, c_out, dims)) in cases.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + case as u64);
            let mut layer = Linear::new(c_in, c_out, &mut rng);
            // Input channel 0 and output channel 0 have only zero weights,
            // and infinities sit behind them on the first and last points:
            // only the zero-weight skip keeps 0·∞ = NaN out of the output
            // and the input gradient.
            let wd = layer.weight.value.data_mut();
            for o in 0..c_out {
                wd[o * c_in] = if o % 2 == 0 { 0.0 } else { -0.0 };
            }
            wd[..c_in].fill(0.0);
            let p: usize = dims[2..].iter().product();
            let mut x = Tensor::random(dims, &dist, &mut rng);
            x.data_mut()[0] = f64::INFINITY;
            x.data_mut()[p - 1] = f64::NEG_INFINITY;
            let mut gdims = dims.to_vec();
            gdims[1] = c_out;
            // Two backward passes, so the oracle also checks accumulation.
            for pass in 0..2 {
                let mut g = Tensor::random(&gdims, &dist, &mut rng);
                g.data_mut()[0] = f64::INFINITY;
                g.data_mut()[p - 1] = f64::INFINITY;
                let (y0, gx0, gw0, gb0) = loop_oracle(&layer, &x, &g);
                let y = layer.forward(&x);
                let gx = layer.backward(&g);
                let what = format!("case {case} pass {pass}");
                assert_same_bits(y.data(), &y0, &format!("{what} output"));
                assert_same_bits(layer.infer(&x).data(), &y0, &format!("{what} infer"));
                assert_same_bits(gx.data(), &gx0, &format!("{what} input grad"));
                assert_same_bits(layer.weight.grad.data(), &gw0, &format!("{what} weight grad"));
                assert_same_bits(layer.bias.grad.data(), &gb0, &format!("{what} bias grad"));
            }
        }
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(2, 3, &mut rng);
        layer.weight.value = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        layer.bias.value = Tensor::from_vec(&[3], vec![0.1, 0.2, 0.3]);
        // One batch entry, 2 channels, 2 spatial points.
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 10.0, 20.0]);
        let y = layer.forward(&x);
        assert_eq!(y.dims(), &[1, 3, 2]);
        // y[0,0,:] = 1·[1,2] + 2·[10,20] + 0.1
        assert!((y.at(&[0, 0, 0]) - 21.1).abs() < 1e-12);
        assert!((y.at(&[0, 0, 1]) - 42.1).abs() < 1e-12);
        // y[0,2,:] = 5·[1,2] + 6·[10,20] + 0.3
        assert!((y.at(&[0, 2, 1]) - 130.3).abs() < 1e-12);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(10, 256, &mut rng);
        assert_eq!(layer.param_count(), 10 * 256 + 256);
    }

    #[test]
    fn gradcheck_weights_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::random(&[2, 3, 4], &rand::distributions::Uniform::new(-1.0, 1.0), &mut rng);
        check_param_gradients(&mut layer, &x, 1e-5, 2e-6);
    }

    #[test]
    fn gradcheck_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(2, 4, &mut rng);
        let x = Tensor::random(&[2, 2, 5], &rand::distributions::Uniform::new(-1.0, 1.0), &mut rng);
        check_input_gradient(&mut layer, &x, 1e-5, 2e-6);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::full(&[1, 2, 3], 1.0);
        let y = layer.forward(&x);
        let _ = layer.backward(&Tensor::full(y.dims(), 1.0));
        assert!(layer.weight.grad.norm_l2() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.weight.grad.norm_l2(), 0.0);
        assert_eq!(layer.bias.grad.norm_l2(), 0.0);
    }

    #[test]
    fn infer_equals_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(3, 3, &mut rng);
        let x = Tensor::random(&[1, 3, 7], &rand::distributions::Uniform::new(-1.0, 1.0), &mut rng);
        let a = layer.infer(&x);
        let b = layer.forward(&x);
        assert!(a.allclose(&b, 0.0));
    }
}
