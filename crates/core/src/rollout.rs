//! Autoregressive rollout of the 2D FNO with temporal channels.
//!
//! A model maps 10 input snapshots to `k ≤ 10` output snapshots. To predict
//! further, the newest 10 frames (observed + predicted) are fed back in —
//! Sec. VI-A's "used iteratively by using the outputs of the previous time
//! as the input". The compound-error effect of Fig. 5 (small `k` → more
//! iterations → more error accumulation at late frames) falls out of this
//! mechanism.

use ft_tensor::Tensor;

use crate::model::ForecastModel;

/// Rolls a trained model forward from `history` (shape `[C_in, H, W]`, the
/// ten newest frames, oldest first) until `horizon` new frames exist.
/// Returns `[horizon, H, W]`.
pub fn rollout<M: ForecastModel + ?Sized>(model: &M, history: &Tensor, horizon: usize) -> Tensor {
    let c_in = model.in_channels();
    let c_out = model.out_channels();
    assert_eq!(history.dims()[0], c_in, "history must hold C_in frames");
    let dims = history.dims().to_vec();
    let (h, w) = (dims[1], dims[2]);
    let frame = h * w;

    // Sliding window of the newest c_in frames.
    let mut window: Vec<f64> = history.data().to_vec();
    let mut produced: Vec<f64> = Vec::with_capacity(horizon * frame);

    while produced.len() < horizon * frame {
        let input = Tensor::from_vec(&[1, c_in, h, w], window.clone());
        let pred = model.infer(&input); // [1, c_out, h, w]
        let take = (horizon - produced.len() / frame).min(c_out);
        produced.extend_from_slice(&pred.data()[..take * frame]);
        // Slide the window: drop the oldest `take` frames, append the new.
        window.drain(..take * frame);
        window.extend_from_slice(&pred.data()[..take * frame]);
    }

    Tensor::from_vec(&[horizon, h, w], produced)
}

/// Rolls two scalar-field histories (e.g. the two velocity components)
/// forward with the same model. Returns `([horizon, H, W]; 2)`.
pub fn rollout_paired<M: ForecastModel>(
    model: &M,
    history_x: &Tensor,
    history_y: &Tensor,
    horizon: usize,
) -> (Tensor, Tensor) {
    (
        rollout(model, history_x, horizon),
        rollout(model, history_y, horizon),
    )
}

/// Per-frame relative L2 error of a predicted rollout against the truth
/// (`pred` and `truth` both `[T, H, W]`). This is the error curve plotted
/// in Figs. 5–7.
pub fn frame_errors(pred: &Tensor, truth: &Tensor) -> Vec<f64> {
    assert_eq!(pred.dims(), truth.dims(), "prediction/truth shape mismatch");
    let t = pred.dims()[0];
    (0..t)
        .map(|i| {
            let p = pred.index_axis0(i);
            let tr = truth.index_axis0(i);
            p.sub(&tr).norm_l2() / tr.norm_l2().max(1e-300)
        })
        .collect()
}

/// 3D FNO prediction: maps a ten-frame block `[T, H, W]` to the next
/// ten-frame block using the space-time model (input reshaped to
/// `[1, 1, H, W, T]` as the model expects).
pub fn predict_block_3d<M: ForecastModel + ?Sized>(model: &M, block: &Tensor) -> Tensor {
    let dims = block.dims().to_vec();
    assert_eq!(dims.len(), 3, "expected [T, H, W] block");
    let (t, h, w) = (dims[0], dims[1], dims[2]);
    // [T, H, W] → [1, 1, H, W, T].
    let mut x = Tensor::zeros(&[1, 1, h, w, t]);
    {
        let src = block.data();
        let dst = x.data_mut();
        for ti in 0..t {
            for yy in 0..h {
                for xx in 0..w {
                    dst[(yy * w + xx) * t + ti] = src[(ti * h + yy) * w + xx];
                }
            }
        }
    }
    let y = model.infer(&x); // [1, 1, H, W, T]
    let mut out = Tensor::zeros(&[t, h, w]);
    {
        let src = y.data();
        let dst = out.data_mut();
        for ti in 0..t {
            for yy in 0..h {
                for xx in 0..w {
                    dst[(ti * h + yy) * w + xx] = src[(yy * w + xx) * t + ti];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FnoConfig;
    use crate::config::FnoKind;
    use crate::model::Fno;

    fn tiny_model(c_in: usize, c_out: usize) -> Fno {
        let cfg = FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: c_in,
            out_channels: c_out,
            lifting_channels: 3,
            projection_channels: 3,
        norm: false,
        };
        Fno::new(cfg, 42)
    }

    fn history(c: usize, n: usize) -> Tensor {
        Tensor::from_fn(&[c, n, n], |i| {
            (i[0] as f64 * 0.1 + i[1] as f64 * 0.3 + i[2] as f64 * 0.7).sin()
        })
    }

    #[test]
    fn rollout_produces_requested_horizon() {
        let model = tiny_model(4, 2);
        let h = history(4, 8);
        for horizon in [1usize, 2, 3, 5, 7] {
            let out = rollout(&model, &h, horizon);
            assert_eq!(out.dims(), &[horizon, 8, 8], "horizon {horizon}");
            assert!(out.all_finite());
        }
    }

    #[test]
    fn rollout_prefix_property() {
        // The first frames of a longer rollout must equal a shorter rollout
        // (the iteration is deterministic and causal).
        let model = tiny_model(4, 2);
        let h = history(4, 8);
        let short = rollout(&model, &h, 2);
        let long = rollout(&model, &h, 6);
        for t in 0..2 {
            assert!(long.index_axis0(t).allclose(&short.index_axis0(t), 1e-12));
        }
    }

    #[test]
    fn single_output_channel_iterates_most() {
        // c_out = 1 must still fill any horizon (one frame per model call).
        let model = tiny_model(4, 1);
        let h = history(4, 8);
        let out = rollout(&model, &h, 5);
        assert_eq!(out.dims(), &[5, 8, 8]);
    }

    #[test]
    fn frame_errors_zero_for_perfect_prediction() {
        let truth = history(3, 8);
        let errs = frame_errors(&truth, &truth);
        assert_eq!(errs.len(), 3);
        assert!(errs.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn predict_block_3d_roundtrips_layout() {
        let cfg = FnoConfig {
            kind: FnoKind::ThreeD,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 1,
            out_channels: 1,
            lifting_channels: 3,
            projection_channels: 3,
        norm: false,
        };
        let model = Fno::new(cfg, 1);
        let block = history(4, 6); // [4, 6, 6] as [T, H, W]
        let out = predict_block_3d(&model, &block);
        assert_eq!(out.dims(), &[4, 6, 6]);
        assert!(out.all_finite());
    }
}
