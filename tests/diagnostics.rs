//! End-to-end tests for the diagnosis-and-gating observability layer:
//! metric streams carrying `run_manifest`/`train_epoch`/`physics` records,
//! the anomaly flight recorder dumping on health-monitor rollbacks and
//! solver blow-ups, and the `bench_compare` regression gate's exit codes.
//!
//! The `ft-obs` state (enabled flag, JSONL sink, flight ring, dump dir)
//! is process-global, so every in-process test serializes through
//! `OBS_LOCK` and resets the flight recorder on entry. Instrumentation is
//! only ever switched on here; the disabled-mode guarantees live in
//! `ft-obs`'s own `no_alloc` test process.

use std::f64::consts::PI;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use fno2d_turbulence::data::Pair;
use fno2d_turbulence::fno::config::{FnoConfig, FnoKind};
use fno2d_turbulence::fno::{Fno, TrainConfig, Trainer};
use fno2d_turbulence::ns::{PdeSolver, SolverError, SpectralNs};
use fno2d_turbulence::tensor::Tensor;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn shift_pairs(n_pairs: usize, c: usize, n: usize) -> Vec<Pair> {
    (0..n_pairs)
        .map(|p| {
            let phase = p as f64 * 0.61;
            let mk = |shift: usize| {
                Tensor::from_fn(&[c, n, n], |i| {
                    let x = 2.0 * PI * ((i[2] + shift) % n) as f64 / n as f64;
                    (x + phase + i[0] as f64 * 0.2).sin()
                })
            };
            Pair { input: mk(0), target: mk(1) }
        })
        .collect()
}

fn tiny_cfg(c_in: usize, c_out: usize) -> FnoConfig {
    FnoConfig {
        kind: FnoKind::TwoDChannels,
        width: 4,
        layers: 2,
        modes: 4,
        in_channels: c_in,
        out_channels: c_out,
        lifting_channels: 8,
        projection_channels: 8,
        norm: false,
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ft_diag_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A short instrumented training run streams a `run_manifest` first, one
/// `train_epoch` record per epoch, and `physics` records from the
/// held-out probe — the ISSUE's acceptance scenario for `--metrics-out`.
#[test]
fn metrics_stream_carries_manifest_epochs_and_physics() {
    let _g = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ft_obs::flight::reset();
    ft_obs::set_enabled(true);
    let dir = tmpdir("stream");
    let path = dir.join("metrics.jsonl");
    ft_obs::open_jsonl(&path).unwrap();
    ft_obs::flight::set_manifest(
        ft_obs::flight::run_manifest("diagnostics-test").u64("seed", 7),
    );

    let pairs = shift_pairs(6, 2, 8);
    let cfg = TrainConfig { epochs: 3, batch_size: 2, probe_every: 1, ..Default::default() };
    Trainer::new(Fno::new(tiny_cfg(2, 2), 0), cfg).train(&pairs[..4], &pairs[4..]);
    ft_obs::close_jsonl();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with(r#"{"record":"run_manifest","name":"diagnostics-test""#),
        "manifest must open the stream: {}",
        lines[0]
    );
    assert!(lines[0].contains(r#""seed":7"#));
    let epochs = lines.iter().filter(|l| l.contains(r#""record":"train_epoch""#)).count();
    assert_eq!(epochs, 3, "one train_epoch per epoch:\n{text}");
    let physics: Vec<&&str> =
        lines.iter().filter(|l| l.contains(r#""record":"physics""#)).collect();
    assert_eq!(physics.len(), 3, "probe_every=1 emits once per epoch:\n{text}");
    for l in &physics {
        for field in [
            r#""source":"train.eval""#,
            r#""total_energy":"#,
            r#""enstrophy":"#,
            r#""mean_vorticity":"#,
            r#""highk_fraction":"#,
            r#""div_residual":"#,
        ] {
            assert!(l.contains(field), "missing {field} in {l}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A poisoned batch trips the health monitor, which must flight-record
/// the rollback and the LR halving and dump the ring to disk.
#[test]
fn nan_rollback_records_events_and_dumps_flight_recorder() {
    let _g = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ft_obs::flight::reset();
    ft_obs::set_enabled(true);
    let dir = tmpdir("nan_dump");
    ft_obs::flight::set_dump_dir(&dir);
    ft_obs::flight::set_manifest(ft_obs::flight::run_manifest("nan-test"));

    let mut pairs = shift_pairs(6, 2, 8);
    pairs[3].input = Tensor::from_fn(&[2, 8, 8], |_| f64::NAN);
    let cfg =
        TrainConfig { epochs: 1, batch_size: 2, max_recoveries: 4, ..Default::default() };
    let report = Trainer::new(Fno::new(tiny_cfg(2, 2), 1), cfg).train(&pairs, &[]);
    assert!(!report.recoveries.is_empty(), "poisoned batch must trip the monitor");

    let events: Vec<String> =
        ft_obs::flight::events().iter().map(|r| r.to_json()).collect();
    assert!(
        events.iter().any(|e| e.contains(r#""kind":"nan_rollback""#)),
        "missing nan_rollback in {events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains(r#""kind":"lr_halved""#)),
        "missing lr_halved in {events:?}"
    );

    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec_") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(!dumps.is_empty(), "health monitor must dump the flight recorder");
    let dump = std::fs::read_to_string(&dumps[0]).unwrap();
    let dump_lines: Vec<&str> = dump.lines().collect();
    assert!(
        dump_lines[0].starts_with(r#"{"record":"run_manifest","name":"nan-test""#),
        "manifest must open the dump: {}",
        dump_lines[0]
    );
    assert!(dump.contains(r#""kind":"nan_rollback""#));
    let last = dump_lines.last().unwrap();
    assert!(
        last.starts_with(r#"{"record":"flight_dump","reason":"health_monitor""#),
        "trailer must carry the dump reason: {last}"
    );
    ft_obs::flight::reset();
    std::fs::remove_dir_all(&dir).ok();
}

/// A solver blow-up surfaces as `SolverError::BlowUp`, records a
/// `solver_blowup` event and dumps the flight recorder.
#[test]
fn solver_blowup_records_event_and_dumps() {
    let _g = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ft_obs::flight::reset();
    ft_obs::set_enabled(true);
    let dir = tmpdir("blowup_dump");
    ft_obs::flight::set_dump_dir(&dir);

    let n = 16;
    let mut ns = SpectralNs::new(n, n as f64, 0.1);
    let bad = Tensor::from_fn(&[n, n], |_| f64::NAN);
    ns.set_velocity(&bad, &bad);
    let err = ns.try_advance(0.1, 4, 1).expect_err("NaN field must blow up");
    assert!(matches!(err, SolverError::BlowUp { .. }), "{err:?}");

    let events: Vec<String> =
        ft_obs::flight::events().iter().map(|r| r.to_json()).collect();
    assert!(
        events.iter().any(|e| e.contains(r#""kind":"solver_blowup""#)),
        "missing solver_blowup in {events:?}"
    );
    let dumped = std::fs::read_dir(&dir).unwrap().any(|e| {
        e.unwrap()
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("flightrec_"))
    });
    assert!(dumped, "blow-up must dump the flight recorder");
    ft_obs::flight::reset();
    std::fs::remove_dir_all(&dir).ok();
}

/// A sample count that does not divide the batch size leaves a short tail
/// batch every epoch. Two regressions are pinned here: (a) the tail's
/// shape must not thrash the FFT plan cache — repeating the same run adds
/// an identical (ideally zero) number of plan misses, and the overall hit
/// rate stays near 1; (b) the epoch mean must weight the tail batch per
/// sample, not per batch.
#[test]
fn short_tail_batch_neither_thrashes_plans_nor_skews_loss() {
    let _g = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ft_obs::flight::reset();
    ft_obs::set_enabled(true);

    let counter = |name: &str| {
        ft_obs::metrics::counter_snapshot()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };

    // 5 samples at batch size 2 → chunks of 2, 2, 1 every epoch. lr = 0
    // keeps the parameters bit-frozen so every batch loss is computable
    // from the initial model.
    let pairs = shift_pairs(5, 2, 8);
    let cfg = TrainConfig { epochs: 1, batch_size: 2, lr: 0.0, seed: 3, ..Default::default() };
    let run = || {
        Trainer::new(Fno::new(tiny_cfg(2, 2), 6), cfg.clone())
            .train(&pairs, &[])
            .train_loss[0]
    };

    // Warm-up run populates every plan size these shapes need.
    let _ = run();
    let m1 = counter("fft.plan_cache.misses");
    let loss_a = run();
    let m2 = counter("fft.plan_cache.misses");
    let loss_b = run();
    let m3 = counter("fft.plan_cache.misses");
    let hits = counter("fft.plan_cache.hits");

    // No accretion: a repeated identical run pays an identical number of
    // misses (zero when worker threads are reused), and misses stay
    // negligible against hits — the tail shape resolves to already-cached
    // plans instead of thrashing the cache.
    assert_eq!(m2 - m1, m3 - m2, "plan-miss count must be stable across identical runs");
    assert!(
        (hits as f64) / ((hits + m3) as f64) > 0.95,
        "plan-cache hit rate collapsed: {hits} hits vs {m3} misses"
    );

    // Frozen parameters ⇒ the epoch mean must equal the per-sample mean
    // loss over the epoch's (shuffled) order — i.e. the short tail batch
    // contributes exactly one sample's weight. A per-batch weighting bug
    // would skew this by ~the spread between samples.
    assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "lr = 0 runs are bit-identical");
    use fno2d_turbulence::nn::RelativeL2;
    let model = Fno::new(tiny_cfg(2, 2), 6);
    let per_sample: Vec<f64> = (0..pairs.len())
        .map(|i| {
            let (x, y) =
                fno2d_turbulence::fno::batch_of(&pairs, &[i], FnoKind::TwoDChannels);
            RelativeL2::value(&model.infer(&x), &y)
        })
        .collect();
    let expected = per_sample.iter().sum::<f64>() / pairs.len() as f64;
    assert!(
        (loss_a - expected).abs() < 1e-12 * expected.abs().max(1.0),
        "epoch mean {loss_a} must be the per-sample mean {expected}"
    );
    ft_obs::flight::reset();
}

/// The committed baseline compared against itself passes the gate
/// (exit 0) — the invariant `scripts/ci.sh` relies on.
#[test]
fn bench_compare_accepts_committed_baseline_against_itself() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args([baseline, baseline])
        .output()
        .unwrap();
    assert_eq!(
        status.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&status.stdout)
    );
}

/// A gauge drifting beyond its two-sided tolerance fails the gate with
/// exit 1; a per-metric `--tol` override can widen it back to passing;
/// unparseable input exits 2.
#[test]
fn bench_compare_gates_gauge_regressions() {
    let dir = tmpdir("bench_gate");
    let mk = |path: &PathBuf, loss: f64| {
        std::fs::write(
            path,
            format!(
                r#"{{
  "schema": "ft-obs/bench-v1",
  "kind": "train",
  "name": "gate-test",
  "wall_seconds": 1.0,
  "records": [],
  "counters": {{ "train.epochs": 2 }},
  "gauges": {{ "train.final_loss": {loss} }},
  "spans": []
}}
"#
            ),
        )
        .unwrap()
    };
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    mk(&base, 0.5);
    mk(&cand, 1.6); // +220%: far beyond the default value_tol of 1.0
    let run = |extra: &[&str]| {
        let mut args =
            vec![base.to_str().unwrap().to_string(), cand.to_str().unwrap().to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        std::process::Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .args(&args)
            .output()
            .unwrap()
    };
    let fail = run(&[]);
    assert_eq!(fail.status.code(), Some(1), "{}", String::from_utf8_lossy(&fail.stdout));
    assert!(String::from_utf8_lossy(&fail.stdout).contains("REGRESSED"));
    let pass = run(&["--tol", "gauges.train.final_loss=5"]);
    assert_eq!(pass.status.code(), Some(0), "{}", String::from_utf8_lossy(&pass.stdout));

    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json").unwrap();
    let err = std::process::Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args([base.to_str().unwrap(), garbage.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(err.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
