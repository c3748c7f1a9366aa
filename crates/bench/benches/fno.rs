//! FNO cost benchmarks: inference (the "0.3 s per FNO step on an A6000"
//! Sec. VII figure), one training step, and one hybrid window — the
//! ML side of the paper's cost comparison and the time column of Table I —
//! plus the per-layer kernels a training step and a served forecast spend
//! their time in (`SpectralConv`, `Linear`, `Gelu`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_nn::{Adam, Gelu, Layer, Linear, RelativeL2, SpectralConv};
use ft_tensor::Tensor;
use fno_core::rollout::rollout;
use fno_core::{Fno, FnoConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn small_model(width: usize, modes: usize, c_out: usize) -> Fno {
    let mut cfg = FnoConfig::fno2d(width, 4, modes, c_out);
    cfg.lifting_channels = 32;
    cfg.projection_channels = 32;
    Fno::new(cfg, 0)
}

fn field(dims: &[usize]) -> Tensor {
    Tensor::from_fn(dims, |i| {
        (i.iter().enumerate().map(|(a, &v)| (a + 1) * v).sum::<usize>() as f64 * 0.13).sin()
    })
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("fno_inference");
    group.sample_size(20);
    for &(n, w, m) in &[(32usize, 8usize, 8usize), (64, 8, 12), (64, 16, 16)] {
        let model = small_model(w, m, 5);
        let x = field(&[1, 10, n, n]);
        group.bench_function(BenchmarkId::from_parameter(format!("n{n}_w{w}_m{m}")), |b| {
            b.iter(|| black_box(model.infer(&x)))
        });
    }
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("fno_train_step");
    group.sample_size(10);
    let mut model = small_model(8, 8, 5);
    let x = field(&[4, 10, 32, 32]);
    let y = field(&[4, 5, 32, 32]);
    let mut opt = Adam::new(1e-3);
    group.bench_function("batch4_n32_w8", |b| {
        b.iter(|| {
            let pred = model.forward(&x);
            let (_, grad) = RelativeL2::value_and_grad(&pred, &y);
            model.backward(&grad);
            opt.step(&mut model);
            model.zero_grad();
        })
    });
    group.finish();
}

fn bench_rollout_window(c: &mut Criterion) {
    // One FNO hybrid window: predict 5 frames from a 10-frame history —
    // the unit of work the hybrid scheme alternates with the PDE solver.
    let mut group = c.benchmark_group("fno_hybrid_window");
    group.sample_size(20);
    let model = small_model(8, 8, 5);
    let history = field(&[10, 32, 32]);
    group.bench_function("predict5_n32", |b| {
        b.iter(|| black_box(rollout(&model, &history, 5)))
    });
    group.finish();
}

/// Forward and backward of one layer on the same input, the backward
/// timed after a fresh forward so each call sees a filled cache.
fn bench_layer(c: &mut Criterion, group: &str, layer: &mut dyn Layer, x: &Tensor) {
    let mut group = c.benchmark_group(group);
    group.sample_size(20);
    let g = field(layer.forward(x).dims());
    group.bench_function("forward", |b| b.iter(|| black_box(layer.forward(x))));
    group.bench_function("forward_backward", |b| {
        b.iter(|| {
            layer.forward(x);
            black_box(layer.backward(&g))
        })
    });
    group.finish();
}

fn bench_layer_kernels(c: &mut Criterion) {
    // The shapes of perfbench's d32 model: batch 8, width 8, 32² grid.
    let mut rng = StdRng::seed_from_u64(0);
    let x = field(&[8, 8, 32, 32]);
    bench_layer(c, "spectral_conv_w8_m8_b8_n32", &mut SpectralConv::new_2d(8, 8, 8, &mut rng), &x);
    bench_layer(c, "linear_8to8_b8_n32", &mut Linear::new(8, 8, &mut rng), &x);
    let x32 = field(&[8, 32, 32, 32]);
    bench_layer(c, "linear_32to8_b8_n32", &mut Linear::new(32, 8, &mut rng), &x32);

    let mut group = c.benchmark_group("gelu_c32_n32");
    group.sample_size(20);
    let mut gelu = Gelu::new();
    let xg = field(&[1, 32, 32, 32]);
    group.bench_function("forward", |b| b.iter(|| black_box(gelu.forward(&xg))));
    group.finish();
}

criterion_group!(
    benches,
    bench_inference,
    bench_training_step,
    bench_rollout_window,
    bench_layer_kernels
);
criterion_main!(benches);
