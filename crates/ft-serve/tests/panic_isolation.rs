//! A model that panics inside a parallel-iterator task fails only the
//! request that triggered it: the panic crosses from the pool back to the
//! dispatcher, the batch's `catch_unwind` turns it into a typed error, and
//! the engine serves the next request from the same model.

use ft_nn::{Layer, ParamMut};
use ft_serve::{ModelRegistry, ServeConfig, ServeEngine, ServeError};
use ft_tensor::Tensor;
use fno_core::{FnoConfig, FnoKind, ForecastModel};
use rayon::prelude::*;

const GRID: usize = 16;

/// Doubles its single input frame, one element per parallel task — enough
/// tasks to fan out over the pool — and panics inside a task when the
/// frame's first value is negative.
struct PanicsOnNegative;

impl Layer for PanicsOnNegative {
    fn forward(&mut self, _x: &Tensor) -> Tensor {
        unreachable!("serving only runs inference")
    }
    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        unreachable!("serving only runs inference")
    }
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamMut<'_>)) {}
    fn param_count(&self) -> usize {
        0
    }
}

impl ForecastModel for PanicsOnNegative {
    fn infer(&self, x: &Tensor) -> Tensor {
        let mut out = x.data().to_vec();
        let poisoned = out[0] < 0.0;
        out.par_chunks_mut(1).enumerate().for_each(|(i, v)| {
            if poisoned && i == GRID * GRID - 1 {
                panic!("model fault in a pool task");
            }
            v[0] *= 2.0;
        });
        Tensor::from_vec(x.dims(), out)
    }
    fn layout(&self) -> FnoKind {
        FnoKind::TwoDChannels
    }
    fn in_channels(&self) -> usize {
        1
    }
    fn out_channels(&self) -> usize {
        1
    }
}

#[test]
fn panic_in_a_pool_task_fails_one_request_and_the_engine_keeps_serving() {
    let cfg = FnoConfig {
        kind: FnoKind::TwoDChannels,
        width: 1,
        layers: 1,
        modes: 1,
        in_channels: 1,
        out_channels: 1,
        lifting_channels: 1,
        projection_channels: 1,
        norm: false,
    };
    let mut reg = ModelRegistry::new();
    reg.insert_model("m", cfg, Box::new(PanicsOnNegative)).unwrap();
    let mut engine = ServeEngine::new(reg, ServeConfig::default());
    let h = engine.handle();
    let frame = |first: f64| Tensor::from_fn(&[1, GRID, GRID], |i| first + (i[1] + i[2]) as f64);

    let err = h.submit("m", frame(-1.0)).unwrap().wait().unwrap_err();
    assert!(
        matches!(&err, ServeError::BadInput(msg) if msg.contains("panicked")),
        "expected a typed panic error, got {err:?}"
    );

    for _ in 0..3 {
        let out = h.submit("m", frame(1.0)).unwrap().wait().unwrap();
        assert_eq!(out.dims(), &[1, GRID, GRID]);
        let want: Vec<f64> = frame(1.0).data().iter().map(|v| v * 2.0).collect();
        assert_eq!(out.data(), &want[..]);
    }
    engine.shutdown();
}
