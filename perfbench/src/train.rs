//! Training: the d32 problem through `Trainer::train`, FTC1 checkpoints on.
//!
//! Spectral-NS data at grid 32 (4 samples × 30 snapshots) goes through an
//! FTT1 file, as `fno2dturb generate` then `fno2dturb train` pass it, and
//! is windowed 10 → 2 snapshots. Each `Trainer::train` call trains a fresh
//! FNO2d (width 8, 4 layers, 8 modes) for a fixed number of epochs, so its
//! final loss is a pure function of the seed, the same bits at any pool
//! width.

use std::path::{Path, PathBuf};

use fno_core::train::batch_of;
use fno_core::{CheckpointConfig, Fno, FnoConfig, ForecastModel, TrainConfig, Trainer};
use ft_data::{
    load_tensor, save_tensor, split_components, windows, DatasetConfig, Pair, SolverKind,
    TurbulenceDataset, WindowSpec,
};
use ft_lbm::IcSpec;

use crate::{checks, host, trace};

pub const GRID: usize = 32;
pub const OUT_CHANNELS: usize = 2;
pub const BATCH: usize = 8;
/// Epochs per `Trainer::train` call.
pub const EPOCHS: usize = 4;
/// Checkpoint period in epochs.
pub const CKPT_EVERY: usize = 2;
/// Initialization seed of the trained model, as in `fno2dturb train`.
pub const MODEL_SEED: u64 = 7;

/// Training inputs made once per set-up.
pub struct TrainSet {
    pub train: Vec<Pair>,
    pub test: Vec<Pair>,
    pub data_path: PathBuf,
    pub ckpt_dir: PathBuf,
}

pub fn dataset_config(seed: u64, samples: usize, snapshots: usize) -> DatasetConfig {
    DatasetConfig {
        n_grid: GRID,
        samples,
        snapshots,
        dt_sample_tc: 0.005,
        burn_in_tc: 0.1,
        reynolds: 500.0,
        ic: IcSpec {
            k_min: 2,
            k_max: (GRID / 6).clamp(3, 8),
        },
        solver: SolverKind::SpectralNs,
        seed,
        probe_every: 0,
    }
}

/// The FNO2d the CLI builds for grids below 128.
pub fn model_config() -> FnoConfig {
    let mut cfg = FnoConfig::fno2d(8, 4, 8, OUT_CHANNELS);
    cfg.lifting_channels = 32;
    cfg.projection_channels = 32;
    cfg
}

pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        lr: 5e-3,
        scheduler_gamma: 0.5,
        scheduler_step: 100,
        seed: 0,
        ..Default::default()
    }
}

/// Generates the dataset, round-trips it through an FTT1 file and windows
/// it into train and test pairs (80/20 by trajectory).
pub fn setup(seed: u64, samples: usize, snapshots: usize, work: &Path) -> Result<TrainSet, String> {
    let ds = TurbulenceDataset::try_generate(dataset_config(seed, samples, snapshots))
        .map_err(|e| format!("training data: {e}"))?;
    checks::finite("training data", ds.velocity.data())?;
    let data_path = work.join("train.ftt");
    save_tensor(&data_path, &ds.velocity).map_err(|e| format!("save training data: {e}"))?;
    let velocity = load_tensor(&data_path).map_err(|e| format!("load training data: {e}"))?;
    let flat = split_components(&velocity);
    let spec = WindowSpec {
        input_len: 10,
        output_len: OUT_CHANNELS,
        stride: OUT_CHANNELS,
    };
    let total = flat.dims()[0];
    let split = ((total as f64 * 0.8).round() as usize).clamp(1, total - 1);
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for s in 0..total {
        let pairs = windows(&flat.index_axis0(s), &spec);
        if s < split {
            train.extend(pairs)
        } else {
            test.extend(pairs)
        }
    }
    if train.is_empty() || test.is_empty() {
        return Err("training data has too few snapshots for a window".into());
    }
    Ok(TrainSet {
        train,
        test,
        data_path,
        ckpt_dir: work.join("ckpt"),
    })
}

/// What the timed training calls produced, accumulated over calls.
pub struct TrainRun {
    /// Samples per second of every epoch run, on the call's steal-free
    /// clock.
    pub epoch_rates: Vec<f64>,
    /// Loss curve of the first `Trainer::train` call.
    pub first: Option<Vec<f64>>,
    pub epochs: u64,
    pub recoveries: u64,
    pub errors: Vec<String>,
    /// The model of the last call.
    pub model: Fno,
}

impl TrainRun {
    pub fn new() -> Self {
        TrainRun {
            epoch_rates: Vec::new(),
            first: None,
            epochs: 0,
            recoveries: 0,
            errors: Vec::new(),
            model: Fno::new(model_config(), MODEL_SEED),
        }
    }

    /// Final epoch loss of the first call.
    pub fn loss_final(&self) -> f64 {
        self.first
            .as_ref()
            .and_then(|l| l.last().copied())
            .unwrap_or(f64::NAN)
    }

    /// One fixed-length training run from scratch. Every call must
    /// reproduce the first call's loss curve bit for bit.
    pub fn call(&mut self, set: &TrainSet) {
        let mut ckpt = CheckpointConfig::new(&set.ckpt_dir, CKPT_EVERY);
        ckpt.keep_last = 2;
        let mut trainer = Trainer::new(Fno::new(model_config(), MODEL_SEED), train_config())
            .with_checkpointing(ckpt);
        let clock = host::Clock::start();
        let report = trace::timed("train.call", || trainer.train(&set.train, &set.test));
        let run_share = clock.run_share();
        self.epoch_rates
            .extend(report.epochs.iter().map(|e| e.samples_per_sec / run_share));
        self.epochs += report.epochs.len() as u64;
        self.recoveries += report.recoveries.len() as u64;
        let verdict = match &self.first {
            None => checks::loss_curve(&report.train_loss),
            Some(reference) => {
                checks::same_bits("repeated training loss", reference, &report.train_loss)
            }
        };
        if let Err(e) = verdict {
            self.errors.push(e);
        }
        self.first.get_or_insert(report.train_loss);
        self.model = trainer.into_model();
    }
}

impl Default for TrainRun {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained model saved to an FNC1 file and loaded back must infer the
/// same bits.
pub fn check_model_roundtrip(model: &mut Fno, set: &TrainSet, work: &Path) -> Result<(), String> {
    let path = work.join("trained.fnc");
    model
        .save(&path)
        .map_err(|e| format!("save trained model: {e}"))?;
    let loaded = Fno::load(&path).map_err(|e| format!("load trained model: {e}"))?;
    let idx: Vec<usize> = (0..set.test.len().min(BATCH)).collect();
    let (x, _) = batch_of(&set.test, &idx, model.layout());
    let want = model.forward_inference(&x);
    let got = loaded.forward_inference(&x);
    checks::finite("trained model output", want.data())?;
    checks::same_bits("saved-then-loaded model output", want.data(), got.data())
}
