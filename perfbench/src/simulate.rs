//! Simulation: entropic-LBM data generation, then hybrid FNO–PDE marching.
//!
//! Each unit generates a small entropic-LBM ensemble through
//! `TurbulenceDataset::try_generate` and marches `HybridScheme::run`
//! (alternating FNO and spectral-NS windows) from the first ten frames of
//! one of its trajectories. The FNO runs at batch 1 and the FFTs are
//! complex `fft2` calls on single fields, unlike training.

use std::time::{Duration, Instant};

use fno_core::{Fno, FnoConfig, HybridConfig, HybridScheme, Scheme};
use ft_data::{DatasetConfig, SolverKind, TurbulenceDataset};
use ft_lbm::{IcSpec, LbmConfig};
use ft_ns::SpectralNs;
use ft_tensor::Tensor;

use crate::{checks, host, trace};

pub const GRID: usize = 32;
pub const REYNOLDS: f64 = 500.0;
pub const SAMPLES: usize = 2;
pub const SNAPSHOTS: usize = 12;
/// Frames per hybrid march (four windows of five).
pub const FRAMES: usize = 20;
pub const WINDOW: usize = 5;

pub fn lbm_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        n_grid: GRID,
        samples: SAMPLES,
        snapshots: SNAPSHOTS,
        dt_sample_tc: 0.005,
        burn_in_tc: 0.05,
        reynolds: REYNOLDS,
        ic: IcSpec { k_min: 2, k_max: 5 },
        solver: SolverKind::EntropicLbm,
        seed,
        probe_every: 0,
    }
}

/// Lattice-site updates one `try_generate` call of `cfg` performs, by the
/// generator's burn-in and sampling protocol.
pub fn site_updates(cfg: &DatasetConfig) -> f64 {
    let t_c = LbmConfig::with_reynolds(cfg.n_grid, cfg.reynolds).t_c();
    let burn = (cfg.burn_in_tc * t_c).round();
    let sample = (cfg.dt_sample_tc * t_c).round().max(1.0);
    let steps = burn + (cfg.snapshots - 1) as f64 * sample;
    cfg.samples as f64 * (cfg.n_grid * cfg.n_grid) as f64 * steps
}

/// The FNO2d that marches the FNO windows: 10 snapshots in, one window out.
pub fn model_config() -> FnoConfig {
    let mut cfg = FnoConfig::fno2d(8, 4, 8, WINDOW);
    cfg.lifting_channels = 32;
    cfg.projection_channels = 32;
    cfg
}

pub fn hybrid_config() -> HybridConfig {
    HybridConfig {
        window_frames: WINDOW,
        dt_frame_tc: 0.005,
        t_c: GRID as f64 / 0.05,
    }
}

pub fn solver() -> SpectralNs {
    SpectralNs::new(GRID, GRID as f64, 0.05 * GRID as f64 / REYNOLDS)
}

pub struct SimSet {
    pub model: Fno,
    pub seed: u64,
}

pub fn setup(seed: u64) -> SimSet {
    SimSet {
        model: Fno::new(model_config(), seed),
        seed,
    }
}

/// The first ten velocity frames of trajectory `s`.
pub fn history(velocity: &Tensor, s: usize) -> Vec<(Tensor, Tensor)> {
    let traj = velocity.index_axis0(s);
    (0..10)
        .map(|t| {
            let snap = traj.index_axis0(t);
            (snap.index_axis0(0), snap.index_axis0(1))
        })
        .collect()
}

/// What the simulation units produced, accumulated over calls.
#[derive(Default)]
pub struct SimRun {
    pub mlups: Vec<f64>,
    pub frames_per_sec: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failed operations failed.
    pub failures: Vec<String>,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// The first generated velocity field, which every later generation
    /// of the same seed must reproduce.
    first: Option<Tensor>,
    units: usize,
}

impl SimRun {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(e);
        }
    }

    /// Generates and marches until `budget` is spent, at least once.
    pub fn run(&mut self, set: &SimSet, budget: Duration) {
        let cfg = lbm_config(set.seed);
        let updates = site_updates(&cfg);
        let clock = host::Clock::start();
        let start = Instant::now();
        let (mut gen_s, mut march_s) = (Vec::new(), Vec::new());
        loop {
            self.attempted += 1;
            let t0 = Instant::now();
            let generated = trace::timed("sim.generate", || {
                TurbulenceDataset::try_generate(cfg.clone())
            });
            let ds = match generated {
                Ok(ds) => ds,
                Err(e) => {
                    self.fail(format!("LBM generation: {e}"));
                    break;
                }
            };
            gen_s.push(t0.elapsed().as_secs_f64());
            let verdict = match &self.first {
                None => checks::finite("LBM velocity", ds.velocity.data()),
                Some(v) => {
                    checks::same_bits("repeated LBM generation", v.data(), ds.velocity.data())
                }
            };
            if let Err(e) = verdict {
                self.errors.push(e);
            }
            let hist = history(&ds.velocity, self.units % SAMPLES);
            self.first.get_or_insert(ds.velocity);

            self.attempted += 1;
            let mut ns = solver();
            let t0 = Instant::now();
            let log = trace::timed("sim.hybrid", || {
                HybridScheme::new(&set.model, &mut ns, hybrid_config()).run(
                    &hist,
                    FRAMES,
                    Scheme::Hybrid,
                )
            });
            march_s.push(t0.elapsed().as_secs_f64());
            if let Err(e) = checks::hybrid_log(&log, FRAMES) {
                // A non-finite march is a solver blow-up: a failed operation
                // and a wrong output.
                self.fail(e.clone());
                self.errors.push(e);
            }
            self.units += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
        // The steal ticks are too coarse for one unit; take the slice's
        // steal out of every unit alike.
        let run_share = clock.run_share();
        self.mlups
            .extend(gen_s.iter().map(|t| updates / (run_share * t) * 1e-6));
        self.frames_per_sec
            .extend(march_s.iter().map(|t| FRAMES as f64 / (run_share * t)));
    }
}
