//! Fourier-space convolution layers (the heart of the FNO).
//!
//! Forward: `x → rfftn → per-mode complex channel mix on a truncated block
//! of low modes → irfftn`. The layer keeps **two** complex weight tensors,
//! acting on the non-negative and negative frequency blocks of the *first*
//! transformed axis (the `weights1`/`weights2` convention of the reference
//! `fourier_2d.py`); this is exactly the parameter layout that reproduces
//! the paper's Table I counts.
//!
//! # FFT adjoints
//!
//! With the real-pair gradient convention (`g = ∂L/∂Re + i·∂L/∂Im`) and the
//! unnormalized-forward / `1/N`-inverse FFT convention, the two identities
//! used by the backward pass are (derived in closed form from the transform
//! sums; validated by finite differences in this module's tests):
//!
//! * adjoint of `irfftn`: `grad_Ŷ = (1/N_total) · s_k ⊙ rfftn(G)`, where
//!   `s_k = 2` on bins of the halved axis with a distinct conjugate partner
//!   and `s_k = 1` (with the imaginary part projected out) on the
//!   self-conjugate DC/Nyquist bins;
//! * adjoint of `rfftn`: `grad_X = N_total · Re(ifftn(zero-pad(ĝ)))`, where
//!   the zero-pad embeds the half spectrum into the full last axis.
//!
//! # Pruned transforms
//!
//! Only the kept modes reach the weights, so every transform runs its
//! full-axis passes only on the lines that matter. The forward `rfftn` and
//! the `irfftn` adjoint skip the lines whose last-axis bin lies past the kept
//! block (their output is never read); the inverse of `Ŷ` and the complex
//! inverse inside the `rfftn` adjoint skip the lines that are all zero
//! (their input is non-zero only in the kept blocks). In 2D the column pass
//! touches the kept columns only. Every kept value has the same bits as with
//! full transforms.

use ft_fft::nd::{fft_axis_pruned, irfftn_pruned, rfftn, rfftn_pruned};
use ft_fft::Direction;
use ft_tensor::{CTensor, Complex64, Tensor};
use rand::distributions::Uniform;
use rand::Rng;
use rayon::prelude::*;

use crate::param::{CParam, ParamMut};
use crate::Layer;

/// Truncated spectral convolution over the trailing `ndim` axes (2 or 3).
#[derive(Clone)]
pub struct SpectralConv {
    c_in: usize,
    c_out: usize,
    /// Number of transformed trailing axes (2 or 3).
    ndim: usize,
    /// Allocated mode extents per transformed axis; the last entry is in
    /// half-spectrum units. Runtime clamps to what the grid supports while
    /// the allocation keeps the full (Table I) size.
    modes: Vec<usize>,
    /// Weights for the non-negative block of the first transformed axis:
    /// `[c_in, c_out, modes...]`.
    pub weights1: CParam,
    /// Weights for the negative block of the first transformed axis.
    pub weights2: CParam,
    cache: Option<Cache>,
}

#[derive(Clone)]
struct Cache {
    x_hat: CTensor,
    input_dims: Vec<usize>,
}

impl SpectralConv {
    /// 2D spectral convolution with "modes = m" in the paper's notation:
    /// weight blocks of shape `[c_in, c_out, m, m/2 + 1]`.
    pub fn new_2d(c_in: usize, c_out: usize, m: usize, rng: &mut impl Rng) -> Self {
        Self::with_modes(c_in, c_out, vec![m, m / 2 + 1], 2, rng)
    }

    /// 3D spectral convolution with "modes = m": weight blocks of shape
    /// `[c_in, c_out, m, m, m/2 + 1]`.
    pub fn new_3d(c_in: usize, c_out: usize, m: usize, rng: &mut impl Rng) -> Self {
        Self::with_modes(c_in, c_out, vec![m, m, m / 2 + 1], 3, rng)
    }

    fn with_modes(
        c_in: usize,
        c_out: usize,
        modes: Vec<usize>,
        ndim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(ndim == 2 || ndim == 3, "SpectralConv supports 2 or 3 transform dims");
        assert_eq!(modes.len(), ndim, "one mode extent per transformed axis");
        assert!(modes.iter().all(|&m| m >= 1), "mode extents must be positive");
        let mut wdims = vec![c_in, c_out];
        wdims.extend_from_slice(&modes);
        // Classic FNO initialization: scale · U(0, 1) for both components.
        let scale = 1.0 / (c_in * c_out) as f64;
        let dist = Uniform::new(0.0, 1.0);
        let mut init = || {
            let len: usize = wdims.iter().product();
            let data: Vec<Complex64> = (0..len)
                .map(|_| Complex64::new(scale * rng.sample(dist), scale * rng.sample(dist)))
                .collect();
            CParam::new(CTensor::from_vec(&wdims, data))
        };
        let weights1 = init();
        let weights2 = init();
        SpectralConv { c_in, c_out, ndim, modes, weights1, weights2, cache: None }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Allocated mode extents (last axis in half-spectrum units).
    pub fn modes(&self) -> &[usize] {
        &self.modes
    }

    /// Effective (grid-clamped) mode extents for a `[B, C, *spatial]` input,
    /// the last in half-spectrum units.
    fn effective_modes(&self, dims: &[usize]) -> Vec<usize> {
        let spatial = &dims[2..];
        let mut eff = Vec::with_capacity(self.ndim);
        // First axis carries two sign blocks: each at most half the axis.
        eff.push(self.modes[0].min(spatial[0] / 2));
        // Middle axes (3D only) keep the non-negative block.
        for a in 1..self.ndim - 1 {
            eff.push(self.modes[a].min(spatial[a] / 2));
        }
        // Last axis is halved by the real transform.
        eff.push(self.modes[self.ndim - 1].min(spatial[self.ndim - 1] / 2 + 1));
        eff
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (y, _) = self.forward_impl(x);
        y
    }

    fn forward_impl(&self, x: &Tensor) -> (Tensor, CTensor) {
        let dims = x.dims();
        assert_eq!(dims.len(), 2 + self.ndim, "expected [B, C, {} spatial dims]", self.ndim);
        assert_eq!(dims[1], self.c_in, "input channels");
        let last = dims[dims.len() - 1];
        let eff = self.effective_modes(dims);

        let x_hat = rfftn_pruned(x, self.ndim, eff[self.ndim - 1]);
        let y_hat = self.mix_modes(&x_hat, &eff);
        // The first axis keeps two blocks, so only the later axes prune.
        let y = irfftn_pruned(&y_hat, last, self.ndim, &eff[1..]);
        (y, x_hat)
    }

    /// `Ŷ = W·X̂` on the kept modes; every other bin of `Ŷ` is zero.
    fn mix_modes(&self, x_hat: &CTensor, eff: &[usize]) -> CTensor {
        let dims = x_hat.dims();
        let spec = &dims[2..];
        let spec_len: usize = spec.iter().product();
        let mut y_dims = vec![dims[0], self.c_out];
        y_dims.extend_from_slice(spec);
        let mut y_hat = CTensor::zeros(&y_dims);

        let w1 = self.weights1.value.data();
        let w2 = self.weights2.value.data();
        let xd = x_hat.data();
        let (c_in, c_out) = (self.c_in, self.c_out);
        let wlen: usize = self.modes.iter().product();

        y_hat.data_mut().par_chunks_mut(c_out * spec_len).enumerate().for_each(|(bi, yb)| {
            let xb = &xd[bi * c_in * spec_len..(bi + 1) * c_in * spec_len];
            for_each_kept_mode(spec, eff, &self.modes, |spec_idx, w_idx, neg_block| {
                let w = if neg_block { w2 } else { w1 };
                for o in 0..c_out {
                    let mut acc = Complex64::ZERO;
                    for i in 0..c_in {
                        let wv = w[(i * c_out + o) * wlen + w_idx];
                        acc = xb[i * spec_len + spec_idx].mul_add(wv, acc);
                    }
                    yb[o * spec_len + spec_idx] = acc;
                }
            });
        });
        y_hat
    }

    /// Adjoint of [`Self::mix_modes`]: accumulates `grad_W = conj(X̂)·grad_Ŷ`
    /// into the weight gradients and returns `grad_X̂ = conj(W)·grad_Ŷ`,
    /// which is zero outside the kept modes. Reads `x_hat` and `gy_hat` on
    /// the kept modes only.
    fn mix_modes_adjoint(&mut self, x_hat: &CTensor, gy_hat: &CTensor, eff: &[usize]) -> CTensor {
        let spec = &x_hat.dims()[2..];
        let spec_len: usize = spec.iter().product();
        let wlen: usize = self.modes.iter().product();

        // Parallel over batches with a per-batch weight-gradient
        // accumulator, reduced at the end.
        let w1 = self.weights1.value.data();
        let w2 = self.weights2.value.data();
        let xd = x_hat.data();
        let gyd = gy_hat.data();
        let (c_in, c_out) = (self.c_in, self.c_out);
        let modes = &self.modes;

        let mut gx_hat = CTensor::zeros(x_hat.dims());
        let per_w = c_in * c_out * wlen;

        let (wgrads1, wgrads2): (Vec<Complex64>, Vec<Complex64>) = {
            let gx_chunks: Vec<&mut [Complex64]> =
                gx_hat.data_mut().chunks_mut(c_in * spec_len).collect();
            gx_chunks
                .into_par_iter()
                .enumerate()
                .map(|(bi, gxb)| {
                    let xb = &xd[bi * c_in * spec_len..(bi + 1) * c_in * spec_len];
                    let gyb = &gyd[bi * c_out * spec_len..(bi + 1) * c_out * spec_len];
                    let mut gw1 = vec![Complex64::ZERO; per_w];
                    let mut gw2 = vec![Complex64::ZERO; per_w];
                    for_each_kept_mode(spec, eff, modes, |spec_idx, w_idx, neg| {
                        let (w, gw) = if neg { (w2, &mut gw2) } else { (w1, &mut gw1) };
                        for o in 0..c_out {
                            let gyv = gyb[o * spec_len + spec_idx];
                            for i in 0..c_in {
                                let flat = (i * c_out + o) * wlen + w_idx;
                                // grad_W = conj(X̂)·grad_Ŷ; grad_X̂ += conj(W)·grad_Ŷ.
                                gw[flat] += xb[i * spec_len + spec_idx].conj() * gyv;
                                gxb[i * spec_len + spec_idx] += w[flat].conj() * gyv;
                            }
                        }
                    });
                    (gw1, gw2)
                })
                .reduce(
                    || (vec![Complex64::ZERO; per_w], vec![Complex64::ZERO; per_w]),
                    |(mut a1, mut a2), (b1, b2)| {
                        for (x, y) in a1.iter_mut().zip(&b1) {
                            *x += *y;
                        }
                        for (x, y) in a2.iter_mut().zip(&b2) {
                            *x += *y;
                        }
                        (a1, a2)
                    },
                )
        };
        for (g, v) in self.weights1.grad.data_mut().iter_mut().zip(&wgrads1) {
            *g += *v;
        }
        for (g, v) in self.weights2.grad.data_mut().iter_mut().zip(&wgrads2) {
            *g += *v;
        }
        gx_hat
    }
}

/// Iterates over every kept spectral mode. Calls `f(spec_idx, w_idx, neg)`
/// with the flattened index into a per-channel spectrum plane, the
/// flattened index into a weight block, and whether the negative-frequency
/// block (weights2) applies.
fn for_each_kept_mode(
    spec: &[usize],
    eff: &[usize],
    modes: &[usize],
    mut f: impl FnMut(usize, usize, bool),
) {
    match spec.len() {
        2 => {
            let (d1, d2) = (spec[0], spec[1]);
            let (m1, m2) = (modes[0], modes[1]);
            let (e1, e2) = (eff[0], eff[1]);
            for k1 in 0..e1 {
                for k2 in 0..e2 {
                    f(k1 * d2 + k2, k1 * m2 + k2, false);
                    f((d1 - e1 + k1) * d2 + k2, (m1 - e1 + k1) * m2 + k2, true);
                }
            }
        }
        3 => {
            let (d1, d2, d3) = (spec[0], spec[1], spec[2]);
            let (m1, m2, m3) = (modes[0], modes[1], modes[2]);
            let (e1, e2, e3) = (eff[0], eff[1], eff[2]);
            for k1 in 0..e1 {
                for k2 in 0..e2 {
                    for k3 in 0..e3 {
                        f((k1 * d2 + k2) * d3 + k3, (k1 * m2 + k2) * m3 + k3, false);
                        f(
                            ((d1 - e1 + k1) * d2 + k2) * d3 + k3,
                            ((m1 - e1 + k1) * m2 + k2) * m3 + k3,
                            true,
                        );
                    }
                }
            }
        }
        _ => unreachable!(),
    }
}

/// Adjoint of `irfftn` under the real-pair gradient convention:
/// `grad_Ŷ = (1/N) · s ⊙ rfftn(G)` with the self-conjugate bins of the
/// halved axis projected to their real parts. Only the bins below
/// `kept_last` on the halved axis are computed; the others are unspecified.
pub fn irfftn_adjoint(g: &Tensor, ndim: usize, kept_last: usize) -> CTensor {
    let dims = g.dims();
    let rank = dims.len();
    let last = dims[rank - 1];
    let n_total: usize = dims[rank - ndim..].iter().product();

    // Step 1: adjoint of the per-row irfft — forward rfft of the rows with
    // the doubling factor on bins that have a distinct conjugate partner
    // and a real projection on the self-conjugate DC/Nyquist bins. The
    // projection is not complex-linear, so it must happen *before* the
    // full-axis transforms below.
    let mut out = rfftn(g, 1);
    let half = out.dims()[rank - 1];
    assert!(kept_last <= half, "kept_last {kept_last} exceeds the half spectrum {half}");
    let inv = 1.0 / n_total as f64;
    for (idx, z) in out.data_mut().iter_mut().enumerate() {
        let kl = idx % half;
        let self_conj = kl == 0 || (last % 2 == 0 && kl == last / 2);
        if self_conj {
            *z = Complex64::from_re(z.re * inv);
        } else {
            *z *= 2.0 * inv;
        }
    }

    // Step 2: adjoint of each inverse full-axis transform is the forward
    // transform divided by the axis length — the 1/axis factors are already
    // folded into `inv` above. Lines past `kept_last` are never read.
    let mut lines = out.dims().to_vec();
    lines[rank - 1] = kept_last;
    for a in (rank - ndim)..(rank - 1) {
        fft_axis_pruned(&mut out, a, Direction::Forward, &lines[a + 1..]);
    }
    out
}

/// Adjoint of `rfftn` under the real-pair gradient convention:
/// `grad_X = N · Re(ifftn(zero-pad(ĝ)))`. `ĝ` must be zero outside the
/// low-index box `keep` (one extent per transformed axis after the first,
/// the last in half-spectrum units); the all-zero lines are not transformed.
pub fn rfftn_adjoint(g_hat: &CTensor, last_dim: usize, ndim: usize, keep: &[usize]) -> Tensor {
    let dims = g_hat.dims();
    let rank = dims.len();
    let half = dims[rank - 1];
    assert_eq!(half, last_dim / 2 + 1, "half-spectrum extent mismatch");
    assert_eq!(keep.len(), ndim - 1, "one kept extent per transformed axis after the first");

    // Zero-pad the last axis to the full length.
    let mut full_dims = dims.to_vec();
    full_dims[rank - 1] = last_dim;
    let mut full = CTensor::zeros(&full_dims);
    {
        let src = g_hat.data();
        let dst = full.data_mut();
        let rows = src.len() / half;
        for r in 0..rows {
            dst[r * last_dim..r * last_dim + half].copy_from_slice(&src[r * half..(r + 1) * half]);
        }
    }
    let n_total: usize = full_dims[rank - ndim..].iter().product();
    // The padding lies past every kept bin, so the box holds on the full
    // last axis too.
    for a in (rank - ndim)..rank {
        let t = a - (rank - ndim);
        fft_axis_pruned(&mut full, a, Direction::Inverse, &keep[t..]);
    }
    full.re().scale(n_total as f64)
}

impl Layer for SpectralConv {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let _span = ft_obs::span("spectral_conv.forward");
        let input_dims = x.dims().to_vec();
        let (y, x_hat) = self.forward_impl(x);
        self.cache = Some(Cache { x_hat, input_dims });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _span = ft_obs::span("spectral_conv.backward");
        let Cache { x_hat, input_dims } =
            self.cache.take().expect("backward called without a cached forward");
        let last = input_dims[input_dims.len() - 1];
        let eff = self.effective_modes(&input_dims);

        let gy_hat = irfftn_adjoint(grad_out, self.ndim, eff[self.ndim - 1]);
        let gx_hat = self.mix_modes_adjoint(&x_hat, &gy_hat, &eff);
        rfftn_adjoint(&gx_hat, last, self.ndim, &eff[1..])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut::Complex { value: &mut self.weights1.value, grad: &mut self.weights1.grad });
        f(ParamMut::Complex { value: &mut self.weights2.value, grad: &mut self.weights2.grad });
    }

    fn param_count(&self) -> usize {
        2 * self.c_in * self.c_out * self.modes.iter().product::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_input_gradient, check_param_gradients};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_input(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(dims, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    /// Today's full-transform path, kept as the oracle for the pruned one:
    /// every line of every transform runs.
    fn full_forward(conv: &SpectralConv, x: &Tensor) -> Tensor {
        let last = *x.dims().last().unwrap();
        let eff = conv.effective_modes(x.dims());
        let y_hat = conv.mix_modes(&rfftn(x, conv.ndim), &eff);
        ft_fft::nd::irfftn(&y_hat, last, conv.ndim)
    }

    /// Input gradient through the full-transform path; accumulates the
    /// weight gradients like `backward`.
    fn full_backward(conv: &mut SpectralConv, x: &Tensor, g: &Tensor) -> Tensor {
        let last = *x.dims().last().unwrap();
        let eff = conv.effective_modes(x.dims());
        let x_hat = rfftn(x, conv.ndim);
        let gy_hat = irfftn_adjoint(g, conv.ndim, last / 2 + 1);
        let gx_hat = conv.mix_modes_adjoint(&x_hat, &gy_hat, &eff);
        full_rfftn_adjoint(&gx_hat, last, conv.ndim)
    }

    /// [`rfftn_adjoint`] with every line transformed.
    fn full_rfftn_adjoint(g_hat: &CTensor, last_dim: usize, ndim: usize) -> Tensor {
        let dims = g_hat.dims();
        let rank = dims.len();
        let half = dims[rank - 1];
        let mut full_dims = dims.to_vec();
        full_dims[rank - 1] = last_dim;
        let mut full = CTensor::zeros(&full_dims);
        for (dst, src) in full.data_mut().chunks_mut(last_dim).zip(g_hat.data().chunks(half)) {
            dst[..half].copy_from_slice(src);
        }
        let n_total: usize = full_dims[rank - ndim..].iter().product();
        ft_fft::nd::fftn(&full, ndim, Direction::Inverse).re().scale(n_total as f64)
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} element {i}: {x} vs {y}");
        }
    }

    fn assert_same_complex_bits(a: &CTensor, b: &CTensor, what: &str) {
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what} element {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// 2D and 3D layers on even, odd, non-power-of-two and mode-clamping
    /// grids: `(ndim, c_in, c_out, modes, input dims)`.
    fn pruning_cases() -> Vec<(usize, usize, usize, usize, Vec<usize>)> {
        vec![
            (2, 2, 3, 3, vec![2, 2, 8, 8]),
            (2, 3, 2, 8, vec![2, 3, 32, 32]),
            (2, 2, 2, 4, vec![1, 2, 12, 10]),
            (2, 2, 3, 3, vec![2, 2, 9, 15]),
            (2, 1, 2, 8, vec![1, 1, 6, 6]),
            (3, 2, 2, 3, vec![1, 2, 8, 8, 6]),
            (3, 1, 2, 8, vec![2, 1, 8, 8, 5]),
            (3, 2, 1, 2, vec![1, 2, 6, 9, 7]),
        ]
    }

    #[test]
    fn pruned_transforms_match_full_transforms_bitwise() {
        for (case, (ndim, c_in, c_out, m, dims)) in pruning_cases().into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + case as u64);
            let mut conv = if ndim == 2 {
                SpectralConv::new_2d(c_in, c_out, m, &mut rng)
            } else {
                SpectralConv::new_3d(c_in, c_out, m, &mut rng)
            };
            let x = rand_input(&dims, 60 + case as u64);
            let mut out_dims = dims.clone();
            out_dims[1] = c_out;
            let g = rand_input(&out_dims, 80 + case as u64);
            let mut oracle = conv.clone();

            let y = conv.forward(&x);
            let gx = conv.backward(&g);
            let y_full = full_forward(&oracle, &x);
            let gx_full = full_backward(&mut oracle, &x, &g);

            let what = format!("case {case} {dims:?}");
            assert_same_bits(y.data(), y_full.data(), &format!("{what} output"));
            assert_same_bits(gx.data(), gx_full.data(), &format!("{what} input grad"));
            assert_same_complex_bits(
                &conv.weights1.grad,
                &oracle.weights1.grad,
                &format!("{what} weights1 grad"),
            );
            assert_same_complex_bits(
                &conv.weights2.grad,
                &oracle.weights2.grad,
                &format!("{what} weights2 grad"),
            );
        }
    }

    /// Spectral dims, a box over the axes after the first, and a random
    /// complex spectrum that is zero outside that box.
    fn boxed_spectrum(dims: &[usize], keep: &[usize], rng: &mut StdRng) -> CTensor {
        let ndim = keep.len() + 1;
        let lead = dims.len() - ndim;
        CTensor::from_fn(dims, |i| {
            let z = Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
            let inside = i[lead + 1..].iter().zip(keep).all(|(&k, &e)| k < e);
            if inside {
                z
            } else {
                Complex64::ZERO
            }
        })
    }

    /// `(spatial dims, box over the axes after the first)`: full boxes and
    /// pruned ones, in 2D and 3D, even and odd.
    fn adjoint_cases() -> Vec<(Vec<usize>, Vec<usize>)> {
        vec![
            (vec![6, 8], vec![5]),
            (vec![6, 8], vec![2]),
            (vec![9, 15], vec![3]),
            (vec![12, 10], vec![6]),
            (vec![4, 6, 8], vec![6, 5]),
            (vec![4, 6, 8], vec![2, 3]),
            (vec![5, 6, 7], vec![3, 2]),
        ]
    }

    #[test]
    fn irfftn_adjoint_identity_dot_test() {
        // ⟨G, irfftn(Z)⟩_R must equal ⟨adj(G), Z⟩_R for arbitrary G and any
        // Z inside the box that the adjoint computes.
        let mut rng = StdRng::seed_from_u64(11);
        for (spatial, keep) in adjoint_cases() {
            let ndim = spatial.len();
            let w = spatial[ndim - 1];
            let mut dims = vec![2, 1];
            dims.extend_from_slice(&spatial);
            let g = Tensor::random(&dims, &Uniform::new(-1.0, 1.0), &mut rng);
            let mut spec_dims = dims.clone();
            spec_dims[ndim + 1] = w / 2 + 1;
            let z = boxed_spectrum(&spec_dims, &keep, &mut rng);
            let y = ft_fft::nd::irfftn(&z, w, ndim);
            let lhs = g.dot(&y);
            let adj = irfftn_adjoint(&g, ndim, keep[ndim - 2]);
            // Real inner product ⟨a, z⟩_R = Σ Re(a)Re(z) + Im(a)Im(z).
            let rhs: f64 =
                adj.data().iter().zip(z.data()).map(|(a, b)| a.re * b.re + a.im * b.im).sum();
            // The self-conjugate bins' imaginary parts are ignored by
            // irfftn, so the identity holds exactly because adj projects
            // them to zero.
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "{spatial:?} box {keep:?}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn rfftn_adjoint_identity_dot_test() {
        // ⟨Ĝ, rfftn(X)⟩_R must equal ⟨adj(Ĝ), X⟩_R for any Ĝ inside the box.
        let mut rng = StdRng::seed_from_u64(12);
        for (spatial, keep) in adjoint_cases() {
            let ndim = spatial.len();
            let w = spatial[ndim - 1];
            let mut dims = vec![2, 1];
            dims.extend_from_slice(&spatial);
            let x = Tensor::random(&dims, &Uniform::new(-1.0, 1.0), &mut rng);
            let mut spec_dims = dims.clone();
            spec_dims[ndim + 1] = w / 2 + 1;
            let ghat = boxed_spectrum(&spec_dims, &keep, &mut rng);
            let xhat = rfftn(&x, ndim);
            let lhs: f64 =
                ghat.data().iter().zip(xhat.data()).map(|(a, b)| a.re * b.re + a.im * b.im).sum();
            let gx = rfftn_adjoint(&ghat, w, ndim, &keep);
            let rhs = gx.dot(&x);
            assert!(
                (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
                "{spatial:?} box {keep:?}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn forward_output_is_real_and_shaped() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = SpectralConv::new_2d(2, 3, 4, &mut rng);
        let x = rand_input(&[2, 2, 8, 8], 1);
        let y = conv.forward(&x);
        assert_eq!(y.dims(), &[2, 3, 8, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn acts_as_convolution_translation_equivariance() {
        // A spectral multiply is a circular convolution: translating the
        // input must translate the output identically.
        let mut rng = StdRng::seed_from_u64(7);
        let conv = SpectralConv::new_2d(1, 1, 3, &mut rng);
        let n = 8;
        let x = rand_input(&[1, 1, n, n], 2);
        let y = conv.infer(&x);
        // Shift by (2, 3).
        let xs = Tensor::from_fn(&[1, 1, n, n], |i| {
            x.at(&[0, 0, (i[2] + n - 2) % n, (i[3] + n - 3) % n])
        });
        let ys = conv.infer(&xs);
        let expect = Tensor::from_fn(&[1, 1, n, n], |i| {
            y.at(&[0, 0, (i[2] + n - 2) % n, (i[3] + n - 3) % n])
        });
        assert!(ys.allclose(&expect, 1e-9), "not translation equivariant");
    }

    #[test]
    fn resolution_invariance_of_low_modes() {
        // Evaluating the same operator on a finer grid of the same
        // band-limited function must give the same function values
        // (discretization-agnostic property of the FNO).
        let mut rng = StdRng::seed_from_u64(8);
        let conv = SpectralConv::new_2d(1, 1, 2, &mut rng);
        use std::f64::consts::PI;
        let f = |x: f64, y: f64| (2.0 * PI * x).sin() + (2.0 * PI * y).cos();
        let sample = |n: usize| {
            Tensor::from_fn(&[1, 1, n, n], |i| f(i[3] as f64 / n as f64, i[2] as f64 / n as f64))
        };
        let y8 = conv.infer(&sample(8));
        let y16 = conv.infer(&sample(16));
        // Compare on the coarse points (every 2nd fine point), accounting
        // for the FFT normalization: unnormalized forward + 1/n inverse
        // makes the spectral multiply resolution-independent for
        // band-limited inputs.
        for yy in 0..8 {
            for xx in 0..8 {
                let a = y8.at(&[0, 0, yy, xx]);
                let b = y16.at(&[0, 0, 2 * yy, 2 * xx]);
                assert!((a - b).abs() < 1e-9, "({yy},{xx}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn gradcheck_2d_params_and_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = SpectralConv::new_2d(2, 2, 3, &mut rng);
        let x = rand_input(&[2, 2, 6, 6], 4);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn gradcheck_3d_params_and_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = SpectralConv::new_3d(2, 2, 2, &mut rng);
        let x = rand_input(&[1, 2, 4, 4, 4], 6);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn gradcheck_odd_last_axis() {
        // Odd last dimension exercises the no-Nyquist branch of the adjoint.
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = SpectralConv::new_2d(1, 2, 2, &mut rng);
        let x = rand_input(&[1, 1, 4, 5], 10);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn batched_forward_matches_per_sample_bitwise() {
        // The batched path (one planned transform over all samples and
        // channels) must be bit-identical to running each sample alone —
        // the property that lets the trainer shard batches per sample and
        // the server micro-batch requests without perturbing results.
        let cases: [(usize, usize, &[usize]); 4] = [
            (2, 3, &[4, 2, 8, 8]),
            (2, 4, &[3, 2, 12, 10]),
            (2, 3, &[3, 2, 9, 15]),
            (3, 2, &[3, 2, 6, 8, 5]),
        ];
        for (case, &(ndim, m, dims)) in cases.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(21 + case as u64);
            let conv = if ndim == 2 {
                SpectralConv::new_2d(2, 3, m, &mut rng)
            } else {
                SpectralConv::new_3d(2, 3, m, &mut rng)
            };
            let x = rand_input(dims, 22);
            let y = conv.infer(&x);
            let mut one = dims.to_vec();
            one[0] = 1;
            let per_sample = 3 * dims[2..].iter().product::<usize>();
            for b in 0..dims[0] {
                let yb = conv.infer(&x.index_axis0(b).reshape(&one));
                let batch_slice = &y.data()[b * per_sample..(b + 1) * per_sample];
                assert_same_bits(yb.data(), batch_slice, &format!("{dims:?} sample {b}"));
            }
        }
    }

    #[test]
    fn gradcheck_batched_b4() {
        // Gradients through the batched spectral path (B = 4 goes through
        // the same shared-plan transforms as B = 1).
        let mut rng = StdRng::seed_from_u64(23);
        let mut conv = SpectralConv::new_2d(2, 2, 3, &mut rng);
        let x = rand_input(&[4, 2, 6, 6], 24);
        check_param_gradients(&mut conv, &x, 1e-5, 3e-6);
        check_input_gradient(&mut conv, &x, 1e-5, 3e-6);
    }

    #[test]
    fn param_count_matches_table_one_convention() {
        let mut rng = StdRng::seed_from_u64(1);
        // 2D, width 40, modes 32: 2 · 40 · 40 · 32 · 17 per layer.
        let conv = SpectralConv::new_2d(40, 40, 32, &mut rng);
        assert_eq!(conv.param_count(), 2 * 40 * 40 * 32 * 17);
        // 3D, width 8, modes 32: 2 · 8 · 8 · 32 · 32 · 17.
        let conv3 = SpectralConv::new_3d(8, 8, 32, &mut rng);
        assert_eq!(conv3.param_count(), 2 * 8 * 8 * 32 * 32 * 17);
    }

    #[test]
    fn modes_clamp_to_small_grids() {
        // Asking for more modes than the grid supports must not panic and
        // must still produce finite output (the paper's 3D FNO allocates 17
        // temporal modes but runs on 10 snapshots).
        let mut rng = StdRng::seed_from_u64(2);
        let conv = SpectralConv::new_3d(1, 1, 8, &mut rng);
        let x = rand_input(&[1, 1, 8, 8, 5], 3);
        let y = conv.infer(&x);
        assert_eq!(y.dims(), &[1, 1, 8, 8, 5]);
        assert!(y.all_finite());
    }
}
