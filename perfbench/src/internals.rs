//! The traced training step, driven through the trainer's internals.
//!
//! This is the only file that calls `sharded_batch_grads`,
//! `tree_reduce_grads`, `snapshot_params`, `load_grads` and `replicate`:
//! the calls `Trainer::train` makes for one batch, in its order, with a
//! span around each group. A refactor of the training path adapts this
//! file; the timed end-to-end path only calls `Trainer::train`.

use fno_core::train::{batch_of, sharded_batch_grads, tree_reduce_grads};
use fno_core::{Fno, ForecastModel, LossKind};
use ft_nn::{Adam, Layer, ParamValue};

use crate::stats::{self, Metrics};
use crate::trace::{self, span};
use crate::train::{self, TrainSet};

/// Runs `steps` optimizer steps over the training pairs in order and
/// records the step breakdown. The model starts as `Trainer::train`'s does.
pub fn traced_steps(set: &TrainSet, steps: usize, m: &mut Metrics) {
    let cfg = train::train_config();
    let mut model = Fno::new(train::model_config(), train::MODEL_SEED);
    let kind = model.layout();
    let mut opt = Adam::new(cfg.lr);
    let workers = rayon::current_num_threads().clamp(1, cfg.batch_size);
    let mut replicas: Vec<Box<dyn ForecastModel + Send>> = (0..workers)
        .map(|_| model.replicate().expect("Fno replicates"))
        .collect();
    let order: Vec<usize> = (0..set.train.len()).collect();
    for chunk in order.chunks(cfg.batch_size).cycle().take(steps) {
        // Each shard assembles its own samples inside `shard_grads`; this
        // times assembling the whole batch once, outside the step.
        trace::timed("train.step.batch_of", || {
            std::hint::black_box(batch_of(&set.train, chunk, kind))
        });

        let _step = span("train.step");
        let snap = trace::timed("train.step.sync", || ft_nn::snapshot_params(&mut model));
        let per_sample = trace::timed("train.step.shard_grads", || {
            sharded_batch_grads(
                &mut replicas,
                &snap,
                &set.train,
                chunk,
                kind,
                LossKind::RelativeL2,
                0.0,
            )
        });
        let reduced = trace::timed("train.step.reduce", || {
            let grads: Vec<Vec<ParamValue>> = per_sample
                .into_iter()
                .map(|(_, g)| g.expect("finite sample gradients"))
                .collect();
            let mut reduced = tree_reduce_grads(grads).expect("non-empty batch");
            ft_nn::scale_param_values(&mut reduced, 1.0 / chunk.len() as f64);
            reduced
        });
        trace::timed("train.step.sync", || {
            ft_nn::load_grads(&mut model, &reduced)
        });
        trace::timed("train.step.optim", || {
            std::hint::black_box(ft_nn::global_grad_norm(&mut model));
            if let Some(cap) = cfg.grad_clip {
                ft_nn::clip_grad_norm(&mut model, cap);
            }
            opt.step(&mut model);
            model.zero_grad();
        });
    }

    let all = trace::snapshot();
    let per_step = |child| {
        stats::median(
            &trace::child_sums_ms(&all, "train.step", child)
                .iter()
                .map(|p| p.0)
                .collect::<Vec<_>>(),
        )
    };
    m.put(
        "train.step.batch_of_ms",
        stats::median(&trace::durations_ms("train.step.batch_of")),
        "ms",
    );
    m.put(
        "train.step.shard_grads_ms",
        per_step("train.step.shard_grads"),
        "ms",
    );
    m.put("train.step.sync_ms", per_step("train.step.sync"), "ms");
    m.put("train.step.reduce_ms", per_step("train.step.reduce"), "ms");
    m.put("train.step.optim_ms", per_step("train.step.optim"), "ms");
    let coverage: Vec<f64> = {
        let names = [
            "train.step.shard_grads",
            "train.step.sync",
            "train.step.reduce",
            "train.step.optim",
        ];
        let parts: Vec<Vec<(f64, f64)>> = names
            .iter()
            .map(|n| trace::child_sums_ms(&all, "train.step", n))
            .collect();
        (0..parts[0].len())
            .map(|i| parts.iter().map(|p| p[i].0).sum::<f64>() / parts[0][i].1)
            .collect()
    };
    m.put("train.step.coverage", stats::median(&coverage), "share");
}
