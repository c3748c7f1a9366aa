//! Batched multi-dimensional transforms over the trailing axes of tensors.
//!
//! All functions treat leading axes as batch dimensions and parallelize over
//! them with rayon. Real-input variants (`rfft*`) use the half-spectrum
//! layout along the **last** axis, matching `torch.fft.rfftn` / `irfftn`.

use std::cell::RefCell;

use ft_tensor::{CTensor, Complex64, Tensor};
use rayon::prelude::*;

use crate::plan::shared_plan;
use crate::real::{rfft_len, shared_real_plan};
use crate::Direction;

thread_local! {
    /// Reusable line buffer for the strided (non-last-axis) transform path,
    /// so a batched `fft_axis` performs no per-line heap allocation.
    static AXIS_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// In-place 1D transform along `axis` of a complex tensor, batched over all
/// other axes. Parallelizes over the contiguous outer blocks.
pub fn fft_axis(ct: &mut CTensor, axis: usize, dir: Direction) {
    let later = ct.dims().get(axis + 1..).unwrap_or_default().to_vec();
    fft_axis_pruned(ct, axis, dir, &later);
}

/// [`fft_axis`] restricted to the lines whose index on every later axis
/// `axis + 1 + j` lies below `keep[j]`; every other line is left as it is.
///
/// A caller passes the box of lines whose input is non-zero (the skipped
/// lines would transform zeros to zeros) or whose output it reads. With
/// `keep` equal to the later extents every line is transformed, which is
/// [`fft_axis`]. Each transformed line has the same bits either way.
pub fn fft_axis_pruned(ct: &mut CTensor, axis: usize, dir: Direction, keep: &[usize]) {
    let dims = ct.dims();
    assert!(axis < dims.len(), "axis {axis} out of range for rank {}", dims.len());
    let later = dims[axis + 1..].to_vec();
    assert_eq!(keep.len(), later.len(), "one kept extent per axis after {axis}");
    assert!(
        keep.iter().zip(&later).all(|(k, d)| k <= d),
        "kept extents {keep:?} exceed the axes {later:?}"
    );
    let n = dims[axis];
    if n <= 1 {
        // A length-1 transform is the identity in both directions.
        return;
    }
    let inner: usize = later.iter().product();
    let block = n * inner;
    let all_lines = keep == later.as_slice();

    // One planner lookup covers the whole batch; workers share the handle
    // instead of paying a plan-cache probe per line.
    let plan = shared_plan(n);
    ct.data_mut().par_chunks_mut(block).for_each(|chunk| {
        if inner == 1 {
            plan.process(chunk, dir);
        } else {
            AXIS_SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                scratch.resize(n, Complex64::ZERO);
                for i in 0..inner {
                    if !all_lines && !line_in_box(i, &later, keep) {
                        continue;
                    }
                    for t in 0..n {
                        scratch[t] = chunk[i + t * inner];
                    }
                    plan.process(&mut scratch, dir);
                    for t in 0..n {
                        chunk[i + t * inner] = scratch[t];
                    }
                }
            });
        }
    });
}

/// Whether the line at row-major offset `i` over the axes `later` has every
/// index inside the box `keep`.
fn line_in_box(mut i: usize, later: &[usize], keep: &[usize]) -> bool {
    for (&d, &k) in later.iter().zip(keep).rev() {
        if i % d >= k {
            return false;
        }
        i /= d;
    }
    true
}

/// Full complex transform over the last `ndim` axes (batched over the rest).
pub fn fftn(ct: &CTensor, ndim: usize, dir: Direction) -> CTensor {
    let rank = ct.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "fftn over {ndim} axes of rank-{rank} tensor");
    let mut out = ct.clone();
    for a in (rank - ndim)..rank {
        fft_axis(&mut out, a, dir);
    }
    out
}

/// Inverse counterpart of [`fftn`].
pub fn ifftn(ct: &CTensor, ndim: usize) -> CTensor {
    fftn(ct, ndim, Direction::Inverse)
}

/// Forward 2D transform over the last two axes.
pub fn fft2(ct: &CTensor) -> CTensor {
    fftn(ct, 2, Direction::Forward)
}

/// Inverse 2D transform over the last two axes.
pub fn ifft2(ct: &CTensor) -> CTensor {
    fftn(ct, 2, Direction::Inverse)
}

/// Real-input transform over the last `ndim` axes: rfft along the last axis
/// (half spectrum), full complex transforms along the other `ndim − 1`.
pub fn rfftn(x: &Tensor, ndim: usize) -> CTensor {
    let w = *x.dims().last().expect("rfftn of a rank-0 tensor");
    rfftn_pruned(x, ndim, rfft_len(w))
}

/// [`rfftn`] for a caller that reads only the bins below `kept_last` on the
/// (halved) last axis. Every row is transformed, then each full-axis pass
/// skips the lines whose last-axis bin is at or above `kept_last`. Bins
/// below `kept_last` have the same bits as in [`rfftn`]; the others are
/// left unspecified.
pub fn rfftn_pruned(x: &Tensor, ndim: usize, kept_last: usize) -> CTensor {
    let rank = x.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "rfftn over {ndim} axes of rank-{rank} tensor");
    let dims = x.dims();
    let w = dims[rank - 1];
    let wh = rfft_len(w);
    assert!(kept_last <= wh, "kept_last {kept_last} exceeds the half spectrum {wh}");

    let mut out_dims = dims.to_vec();
    out_dims[rank - 1] = wh;
    let rows = x.len() / w;
    let mut out_data = vec![Complex64::ZERO; rows * wh];

    // Resolve the real plan once for the whole batch of rows.
    let rp = shared_real_plan(w);
    out_data
        .par_chunks_mut(wh)
        .zip(x.data().par_chunks(w))
        .for_each(|(dst, src)| {
            rp.rfft_into(src, dst);
        });

    let mut out = CTensor::from_vec(&out_dims, out_data);
    // Only the last axis is in frequency when the other passes run, so it is
    // the one axis that can prune their lines.
    let mut lines = out_dims;
    lines[rank - 1] = kept_last;
    for a in (rank - ndim)..(rank - 1) {
        fft_axis_pruned(&mut out, a, Direction::Forward, &lines[a + 1..]);
    }
    out
}

/// Inverse of [`rfftn`]: `last_dim` is the original length of the last axis.
pub fn irfftn(c: &CTensor, last_dim: usize, ndim: usize) -> Tensor {
    let rank = c.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "irfftn over {ndim} axes of rank-{rank} tensor");
    irfftn_pruned(c, last_dim, ndim, &c.dims()[rank - ndim + 1..])
}

/// [`irfftn`] of a spectrum that is zero outside a low-index box: `keep`
/// holds one extent per transformed axis after the first (the last in
/// half-spectrum units), and `c` must be zero wherever an index on one of
/// those axes is at or above its extent. Each full-axis pass skips the lines
/// that are zero, so the result has the same bits as [`irfftn`].
pub fn irfftn_pruned(c: &CTensor, last_dim: usize, ndim: usize, keep: &[usize]) -> Tensor {
    let rank = c.shape().rank();
    assert!(ndim >= 1 && ndim <= rank, "irfftn over {ndim} axes of rank-{rank} tensor");
    assert_eq!(keep.len(), ndim - 1, "one kept extent per transformed axis after the first");
    let dims = c.dims();
    let wh = dims[rank - 1];
    assert_eq!(
        wh,
        rfft_len(last_dim),
        "half-spectrum axis {wh} does not match rfft_len({last_dim})"
    );

    // Only the full-axis passes need a working copy of the spectrum.
    let mut work = None;
    for a in (rank - ndim)..(rank - 1) {
        let t = a - (rank - ndim);
        let w = work.get_or_insert_with(|| c.clone());
        fft_axis_pruned(w, a, Direction::Inverse, &keep[t..]);
    }
    let spectrum = work.as_ref().unwrap_or(c);

    let mut out_dims = dims.to_vec();
    out_dims[rank - 1] = last_dim;
    let rows = spectrum.len() / wh;
    let mut out_data = vec![0.0f64; rows * last_dim];
    // Resolve the real plan once for the whole batch of rows.
    let rp = shared_real_plan(last_dim);
    out_data
        .par_chunks_mut(last_dim)
        .zip(spectrum.data().par_chunks(wh))
        .for_each(|(dst, src)| {
            rp.irfft_into(src, dst);
        });
    Tensor::from_vec(&out_dims, out_data)
}

/// Real 2D transform over the last two axes (`torch.fft.rfft2` layout).
pub fn rfft2(x: &Tensor) -> CTensor {
    rfftn(x, 2)
}

/// Inverse real 2D transform; `last_dim` is the original width.
pub fn irfft2(c: &CTensor, last_dim: usize) -> Tensor {
    irfftn(c, last_dim, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn field(h: usize, w: usize) -> Tensor {
        Tensor::from_fn(&[h, w], |i| {
            ((i[0] as f64) * 0.7).sin() + ((i[1] as f64) * 1.1).cos() + (i[0] * i[1]) as f64 * 0.01
        })
    }

    /// O(n⁴) 2D DFT oracle.
    fn dft2_oracle(x: &Tensor) -> CTensor {
        let (h, w) = (x.dims()[0], x.dims()[1]);
        let mut rows = Vec::with_capacity(h);
        for i in 0..h {
            let row: Vec<Complex64> = (0..w).map(|j| Complex64::from_re(x.at(&[i, j]))).collect();
            rows.push(dft(&row, Direction::Forward));
        }
        let mut out = CTensor::zeros(&[h, w]);
        for kx in 0..h {
            for ky in 0..w {
                let col: Vec<Complex64> = (0..h).map(|i| rows[i][ky]).collect();
                out[&[kx, ky][..]] = dft(&col, Direction::Forward)[kx];
            }
        }
        out
    }

    #[test]
    fn fft2_matches_oracle() {
        let x = field(8, 6);
        let full = fft2(&CTensor::from_real(&x));
        let oracle = dft2_oracle(&x);
        assert!(full.allclose(&oracle, 1e-8));
    }

    #[test]
    fn rfft2_matches_full_fft2_half() {
        for &(h, w) in &[(8usize, 8usize), (6, 10), (5, 7), (16, 12)] {
            let x = field(h, w);
            let full = fft2(&CTensor::from_real(&x));
            let half = rfft2(&x);
            assert_eq!(half.dims(), &[h, rfft_len(w)]);
            for kx in 0..h {
                for ky in 0..rfft_len(w) {
                    let a = half.at(&[kx, ky]);
                    let b = full.at(&[kx, ky]);
                    assert!((a - b).abs() < 1e-8, "({h},{w}) bin ({kx},{ky})");
                }
            }
        }
    }

    #[test]
    fn rfft2_roundtrip() {
        for &(h, w) in &[(8usize, 8usize), (9, 6), (10, 15), (32, 32)] {
            let x = field(h, w);
            let back = irfft2(&rfft2(&x), w);
            assert!(back.allclose(&x, 1e-9), "({h},{w})");
        }
    }

    #[test]
    fn batched_rfft2_equals_per_sample() {
        let a = field(8, 8);
        let b = field(8, 8).scale(-2.0);
        let batch = Tensor::stack(&[a.clone(), b.clone()]);
        let spec = rfft2(&batch);
        assert_eq!(spec.dims(), &[2, 8, 5]);
        let sa = rfft2(&a);
        let sb = rfft2(&b);
        for kx in 0..8 {
            for ky in 0..5 {
                assert!((spec.at(&[0, kx, ky]) - sa.at(&[kx, ky])).abs() < 1e-10);
                assert!((spec.at(&[1, kx, ky]) - sb.at(&[kx, ky])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let (h, w) = (16usize, 16usize);
        let (kx0, ky0) = (3usize, 5usize);
        let x = Tensor::from_fn(&[h, w], |i| {
            (2.0 * std::f64::consts::PI
                * (kx0 as f64 * i[0] as f64 / h as f64 + ky0 as f64 * i[1] as f64 / w as f64))
                .cos()
        });
        let spec = rfft2(&x);
        // cos splits between (kx0, ky0) and its conjugate (h−kx0, w−ky0);
        // only the first lies in the half spectrum.
        let peak = spec.at(&[kx0, ky0]).abs();
        assert!((peak - (h * w) as f64 / 2.0).abs() < 1e-8);
        let mut total = 0.0;
        for kx in 0..h {
            for ky in 0..rfft_len(w) {
                if (kx, ky) != (kx0, ky0) && (kx, ky) != (h - kx0, ky0) {
                    total += spec.at(&[kx, ky]).abs();
                }
            }
        }
        assert!(total < 1e-7, "spectral leakage {total}");
    }

    #[test]
    fn rfftn3_roundtrip() {
        let x = Tensor::from_fn(&[2, 4, 6, 10], |i| {
            (i[0] as f64 + 1.0) * ((i[1] as f64 * 0.5).sin() + (i[2] as f64 * 0.3).cos())
                + i[3] as f64 * 0.1
        });
        let spec = rfftn(&x, 3);
        assert_eq!(spec.dims(), &[2, 4, 6, 6]);
        let back = irfftn(&spec, 10, 3);
        assert!(back.allclose(&x, 1e-9));
    }

    #[test]
    fn parseval_2d() {
        let x = field(16, 16);
        let spec = fft2(&CTensor::from_real(&x));
        let time: f64 = x.data().iter().map(|v| v * v).sum();
        let freq = spec.data().iter().map(|z| z.norm_sqr()).sum::<f64>() / (16.0 * 16.0);
        assert!((time - freq).abs() < 1e-9 * time);
    }

    #[test]
    fn fft_axis_middle_axis() {
        // Transforming axis 1 of a [2, 6, 3] tensor must equal per-column DFTs.
        let x = CTensor::from_fn(&[2, 6, 3], |i| {
            Complex64::new((i[0] * 100 + i[1] * 10 + i[2]) as f64, 0.0)
        });
        let mut y = x.clone();
        fft_axis(&mut y, 1, Direction::Forward);
        for b in 0..2 {
            for c in 0..3 {
                let line: Vec<Complex64> = (0..6).map(|t| x.at(&[b, t, c])).collect();
                let oracle = dft(&line, Direction::Forward);
                for t in 0..6 {
                    assert!((y.at(&[b, t, c]) - oracle[t]).abs() < 1e-9);
                }
            }
        }
    }

    fn same_bits(a: Complex64, b: Complex64) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    #[test]
    fn fft_axis_pruned_transforms_exactly_the_boxed_lines() {
        let x = CTensor::from_fn(&[2, 5, 4, 6], |i| {
            Complex64::new((i[0] + 3 * i[1]) as f64 * 0.3 - i[2] as f64, (i[3] as f64 * 0.7).sin())
        });
        let mut full = x.clone();
        fft_axis(&mut full, 1, Direction::Forward);
        let mut pruned = x.clone();
        fft_axis_pruned(&mut pruned, 1, Direction::Forward, &[3, 2]);
        for b in 0..2 {
            for t in 0..5 {
                for j in 0..4 {
                    for k in 0..6 {
                        let idx = [b, t, j, k];
                        let expect = if j < 3 && k < 2 { full.at(&idx) } else { x.at(&idx) };
                        assert!(same_bits(pruned.at(&idx), expect), "{idx:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_real_transforms_match_full_ones_bitwise() {
        // (dims, transformed axes, box over the axes after the first)
        let cases: [(&[usize], usize, &[usize]); 5] = [
            (&[2, 8, 8], 2, &[2]),
            (&[3, 12, 10], 2, &[4]),
            (&[1, 9, 15], 2, &[3]),
            (&[2, 8, 6, 10], 3, &[3, 2]),
            (&[1, 5, 6, 7], 3, &[2, 4]),
        ];
        for &(dims, ndim, keep) in &cases {
            let rank = dims.len();
            let x = Tensor::from_fn(dims, |i| {
                i.iter().enumerate().map(|(a, &v)| ((a + 2) * v) as f64 * 0.37).sum::<f64>().sin()
            });
            let full = rfftn(&x, ndim);
            let pruned = rfftn_pruned(&x, ndim, keep[ndim - 2]);
            // Bins below the kept last-axis extent are exact.
            for (idx, (a, b)) in full.data().iter().zip(pruned.data()).enumerate() {
                if idx % full.dims()[rank - 1] < keep[ndim - 2] {
                    assert!(same_bits(*a, *b), "{dims:?} rfftn bin {idx}");
                }
            }
            // A spectrum that is zero outside the box inverts to the same bits.
            let lead = rank - ndim;
            let boxed = CTensor::from_fn(full.dims(), |i| {
                if i[lead + 1..].iter().zip(keep).all(|(&k, &e)| k < e) {
                    full.at(i)
                } else {
                    Complex64::ZERO
                }
            });
            let last = dims[rank - 1];
            let a = irfftn(&boxed, last, ndim);
            let b = irfftn_pruned(&boxed, last, ndim, keep);
            for (i, (u, v)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{dims:?} irfftn element {i}");
            }
        }
    }
}
