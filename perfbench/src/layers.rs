//! Per-layer probes of the traced run: each layer's public functions
//! called on the shapes the workloads use, one span per call.

use std::hint::black_box;
use std::path::Path;

use fno_core::{Checkpoint, Fno, ForecastModel, HybridScheme, Scheme};
use ft_nn::{Adam, Gelu, Layer, Linear, RelativeL2, SpectralConv};
use ft_ns::PdeSolver;
use ft_tensor::{CTensor, Tensor};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::stats::{self, Metrics};
use crate::trace::timed;
use crate::{serve, simulate, trace, train};

/// Median duration of the spans named `name`, in milliseconds.
fn ms(name: &str) -> f64 {
    stats::median(&trace::durations_ms(name))
}

/// `ft-nn` layers at batch 8 on the training model's shapes, the loss and
/// one Adam step over the training model.
pub fn nn(seed: u64, reps: usize, m: &mut Metrics) {
    let cfg = train::model_config();
    let (b, w, n) = (train::BATCH, cfg.width, train::GRID);
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-1.0, 1.0);
    let x = Tensor::random(&[b, w, n, n], &dist, &mut rng);
    let g = Tensor::random(&[b, w, n, n], &dist, &mut rng);
    let mut spectral = SpectralConv::new_2d(w, w, cfg.modes, &mut rng);
    let mut linear = Linear::new(w, w, &mut rng);
    let mut gelu = Gelu::new();
    let pred = Tensor::random(&[b, cfg.out_channels, n, n], &dist, &mut rng);
    let target = Tensor::random(&[b, cfg.out_channels, n, n], &dist, &mut rng);
    for _ in 0..reps {
        black_box(timed("nn.spectral_conv.fwd", || spectral.forward(&x)));
        black_box(timed("nn.spectral_conv.bwd", || spectral.backward(&g)));
        black_box(timed("nn.linear.fwd", || linear.forward(&x)));
        black_box(timed("nn.linear.bwd", || linear.backward(&g)));
        black_box(timed("nn.gelu.fwd", || gelu.forward(&x)));
        black_box(timed("nn.gelu.bwd", || gelu.backward(&g)));
        black_box(timed("nn.loss", || {
            RelativeL2::value_and_grad(&pred, &target)
        }));
    }
    let mut model = Fno::new(cfg.clone(), seed);
    let xin = Tensor::random(&[b, cfg.in_channels, n, n], &dist, &mut rng);
    let y = model.forward(&xin);
    model.backward(&y);
    let mut opt = Adam::new(train::train_config().lr);
    for _ in 0..reps {
        timed("nn.adam_step", || opt.step(&mut model));
    }
    for (name, span) in [
        ("nn.spectral_conv.fwd_ms", "nn.spectral_conv.fwd"),
        ("nn.spectral_conv.bwd_ms", "nn.spectral_conv.bwd"),
        ("nn.linear.fwd_ms", "nn.linear.fwd"),
        ("nn.linear.bwd_ms", "nn.linear.bwd"),
        ("nn.gelu.fwd_ms", "nn.gelu.fwd"),
        ("nn.gelu.bwd_ms", "nn.gelu.bwd"),
        ("nn.loss_ms", "nn.loss"),
        ("nn.adam_step_ms", "nn.adam_step"),
    ] {
        m.put(name, ms(span), "ms");
    }
}

/// `ft-fft`: batched real transforms at the spectral layer's shape and a
/// complex 2D transform at the solver grid.
pub fn fft(seed: u64, reps: usize, m: &mut Metrics) {
    let cfg = train::model_config();
    let n = train::GRID;
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-1.0, 1.0);
    let x = Tensor::random(&[train::BATCH, cfg.width, n, n], &dist, &mut rng);
    let field = CTensor::from_real(&Tensor::random(
        &[simulate::GRID, simulate::GRID],
        &dist,
        &mut rng,
    ));
    for _ in 0..reps {
        let c = timed("fft.rfftn", || ft_fft::rfftn(&x, 2));
        black_box(timed("fft.irfftn", || ft_fft::irfftn(&c, n, 2)));
        black_box(timed("fft.fft2", || ft_fft::fft2(&field)));
    }
    m.put("fft.rfftn_ms", ms("fft.rfftn"), "ms");
    m.put("fft.irfftn_ms", ms("fft.irfftn"), "ms");
    m.put("fft.fft2_ms", ms("fft.fft2"), "ms");
}

/// `compat/rayon`: one parallel call over a small slice, large enough to
/// fan out to the whole pool.
pub fn pool(reps: usize, m: &mut Metrics) {
    let mut v = vec![0.0f64; 4 * rayon::MIN_PARALLEL_ITEMS];
    for _ in 0..reps {
        timed("pool.fanout", || {
            v.par_chunks_mut(1).for_each(|c| c[0] += 1.0)
        });
    }
    black_box(&v);
    m.put("pool.fanout_us", ms("pool.fanout") * 1e3, "us");
}

/// Checkpoint, model-file and dataset-file reads and writes.
pub fn io(set: &train::TrainSet, work: &Path, reps: usize, m: &mut Metrics) -> Result<(), String> {
    let latest = set.ckpt_dir.join("latest.ftc");
    let copy = work.join("probe.ftc");
    let model_path = work.join("probe.fnc");
    let mut model = Fno::new(train::model_config(), train::MODEL_SEED);
    for _ in 0..reps {
        let ck = timed("ckpt.load", || Checkpoint::load(&latest))
            .map_err(|e| format!("load checkpoint: {e}"))?;
        timed("ckpt.save", || ck.save(&copy)).map_err(|e| format!("save checkpoint: {e}"))?;
        timed("model.save", || model.save(&model_path)).map_err(|e| format!("save model: {e}"))?;
        black_box(
            timed("model.load", || Fno::load(&model_path))
                .map_err(|e| format!("load model: {e}"))?,
        );
        black_box(
            timed("data.load_tensor", || ft_data::load_tensor(&set.data_path))
                .map_err(|e| format!("load data: {e}"))?,
        );
    }
    for (name, span) in [
        ("ckpt.save_ms", "ckpt.save"),
        ("ckpt.load_ms", "ckpt.load"),
        ("model.save_ms", "model.save"),
        ("model.load_ms", "model.load"),
        ("data.load_tensor_ms", "data.load_tensor"),
    ] {
        m.put(name, ms(span), "ms");
    }
    Ok(())
}

/// The served model's batched forward pass at batch 1 and batch 8, and
/// the wire protocol's encode and decode of one predict.
pub fn serving(set: &serve::ServeSet, reps: usize, m: &mut Metrics) -> Result<(), String> {
    let (c, n) = (serve::CHANNELS, serve::GRID);
    let x1 = set.inputs[0].clone().reshape(&[1, c, n, n]);
    let x8 = Tensor::stack(&set.inputs[..serve::MAX_BATCH]);
    for _ in 0..reps {
        black_box(timed("model.fwd_inference.b1", || {
            set.reference.forward_inference(&x1)
        }));
        black_box(timed("model.fwd_inference.b8", || {
            set.reference.forward_inference(&x8)
        }));
        let mut buf = Vec::new();
        timed("proto.encode", || {
            ft_serve::proto::write_predict(&mut buf, serve::MODEL, &set.inputs[0])
        })
        .map_err(|e| format!("encode: {e}"))?;
        let mut r: &[u8] = &buf;
        black_box(
            timed("proto.decode", || ft_serve::proto::read_frame(&mut r))
                .map_err(|e| format!("decode: {e}"))?,
        );
    }
    let (b1, b8) = (ms("model.fwd_inference.b1"), ms("model.fwd_inference.b8"));
    m.put("model.fwd_inference.b1_ms", b1, "ms");
    m.put("model.fwd_inference.b8_ms", b8, "ms");
    m.put(
        "serve.batching_gain",
        b1 / (b8 / serve::MAX_BATCH as f64),
        "ratio",
    );
    m.put("proto.encode_us", ms("proto.encode") * 1e3, "us");
    m.put("proto.decode_us", ms("proto.decode") * 1e3, "us");
    Ok(())
}

/// One LBM step and one spectral-NS step at the simulation grid, and the
/// hybrid scheme's FNO and PDE windows timed apart.
pub fn simulation(set: &simulate::SimSet, reps: usize, m: &mut Metrics) -> Result<(), String> {
    let cfg = simulate::lbm_config(set.seed);
    let lbm_cfg = ft_lbm::LbmConfig::with_reynolds(cfg.n_grid, cfg.reynolds);
    let (ux, uy) = cfg.ic.generate(cfg.n_grid, lbm_cfg.u0, set.seed);
    let mut lbm = ft_lbm::Lbm::new(lbm_cfg);
    lbm.set_velocity(&ux, &uy);
    let mut ns = simulate::solver();
    ns.set_velocity(&ux, &uy);
    let dt = ns.cfl_dt();
    for _ in 0..reps {
        timed("lbm.step", || lbm.step());
        timed("ns.spectral.step", || ns.advance(dt, 1));
    }
    lbm.check_finite()
        .map_err(|f| format!("LBM probe blew up: {f}"))?;
    ns.check_finite()
        .map_err(|f| format!("NS probe blew up: {f}"))?;
    m.put("lbm.step_ms", ms("lbm.step"), "ms");
    m.put("ns.spectral.step_ms", ms("ns.spectral.step"), "ms");

    let hist: Vec<(Tensor, Tensor)> = (0..10).map(|_| (ux.clone(), uy.clone())).collect();
    let frames = simulate::WINDOW;
    for _ in 0..reps.div_ceil(4) {
        for (scheme, span) in [
            (Scheme::PureFno, "hybrid.fno_window"),
            (Scheme::PurePde, "hybrid.pde_window"),
        ] {
            let mut solver = simulate::solver();
            let log = timed(span, || {
                HybridScheme::new(&set.model, &mut solver, simulate::hybrid_config())
                    .run(&hist, frames, scheme)
            });
            crate::checks::hybrid_log(&log, frames)?;
        }
    }
    m.put(
        "hybrid.fno_frame_ms",
        ms("hybrid.fno_window") / frames as f64,
        "ms",
    );
    m.put(
        "hybrid.pde_frame_ms",
        ms("hybrid.pde_window") / frames as f64,
        "ms",
    );
    Ok(())
}
