//! Each output check accepts a good output and rejects a corrupted one.

use fno_core::{Fno, ForecastModel, HybridScheme, Scheme};
use ft_tensor::Tensor;
use perfbench::{checks, serve, simulate};

#[test]
fn loss_curve_rejects_non_finite_and_non_decreasing_losses() {
    assert!(checks::loss_curve(&[0.9, 0.5, 0.3]).is_ok());
    assert!(checks::loss_curve(&[0.9, f64::NAN, 0.3]).is_err());
    assert!(checks::loss_curve(&[0.9, 0.5, 0.95]).is_err());
    assert!(checks::loss_curve(&[]).is_err());
}

#[test]
fn same_bits_rejects_a_one_ulp_change() {
    let a = vec![1.0, -2.5, 3.25];
    let mut b = a.clone();
    assert!(checks::same_bits("x", &a, &b).is_ok());
    b[1] = f64::from_bits(b[1].to_bits() + 1);
    assert!(checks::same_bits("x", &a, &b).is_err());
    assert!(checks::same_bits("x", &a, &a[..2]).is_err());
}

#[test]
fn response_check_rejects_a_corrupted_prediction() {
    let model = Fno::new(serve::model_config(), 3);
    let x = Tensor::from_fn(&[1, serve::CHANNELS, serve::GRID, serve::GRID], |i| {
        ((i[1] * 7 + i[2] * 3 + i[3]) as f64 * 0.37).sin()
    });
    let want = model.forward_inference(&x);
    let wire = checks::f32_rounded(&want);
    assert!(checks::response(&wire, &want, 1e-5).is_ok());

    let mut bad = wire.clone();
    bad.data_mut()[17] += 1e-3 * want.max().abs().max(want.min().abs());
    assert!(checks::response(&bad, &want, 1e-5).is_err());
    let mut nan = wire.clone();
    nan.data_mut()[0] = f64::NAN;
    assert!(checks::response(&nan, &want, 1e-5).is_err());
    let reshaped = wire.clone().reshape(&[want.len()]);
    assert!(checks::response(&reshaped, &want, 1e-5).is_err());
}

#[test]
fn hybrid_log_check_rejects_a_poisoned_frame() {
    let model = Fno::new(simulate::model_config(), 1);
    let n = simulate::GRID;
    let frame = |phase: f64| {
        Tensor::from_fn(&[n, n], |i| {
            0.05 * ((i[0] as f64 + phase) * 0.2).sin() * (i[1] as f64 * 0.2).cos()
        })
    };
    let hist: Vec<(Tensor, Tensor)> = (0..10)
        .map(|t| (frame(t as f64), frame(t as f64 + 0.5)))
        .collect();
    let mut ns = simulate::solver();
    let log =
        HybridScheme::new(&model, &mut ns, simulate::hybrid_config()).run(&hist, 6, Scheme::Hybrid);
    assert!(checks::hybrid_log(&log, 6).is_ok());
    assert!(checks::hybrid_log(&log, 7).is_err());

    let mut bad = log.clone();
    bad.frames[3].1.data_mut()[5] = f64::INFINITY;
    assert!(checks::hybrid_log(&bad, 6).is_err());
    let mut bad = log;
    bad.enstrophy[2] = f64::NAN;
    assert!(checks::hybrid_log(&bad, 6).is_err());
}

#[test]
fn finite_rejects_a_non_finite_dataset_value() {
    let mut v = vec![0.0; 64];
    assert!(checks::finite("data", &v).is_ok());
    v[40] = f64::NEG_INFINITY;
    assert!(checks::finite("data", &v).is_err());
}
