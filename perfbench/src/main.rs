//! `perfbench` — one benchmark for training, serving and simulation.
//!
//! ```text
//! perfbench --workload parallel|serial --seed N --seconds S --trace 0|1
//! perfbench --workload parallel|serial --seed N --loss-bits
//! ```
//!
//! A workload fixes the pool width: `parallel` uses every core, `serial`
//! one. Each run sets up all inputs from the seed (several times, timing
//! each), then lets training, serving and simulation take turns until
//! `--seconds` are spent. With `--trace 0` it prints the end-to-end
//! metrics. With `--trace 1` it spends half the time untraced and half
//! traced, derives the tracing overhead, probes every layer, prints the
//! per-layer metrics and writes the spans to `.perfbench_out/`. The last
//! line of standard output is the JSON result: `correct` is false when an
//! output check failed, `failed` counts operations that failed.
//! `--loss-bits` trains a tiny configuration once and prints the bits of
//! its final loss, for the thread-invariance self-test.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::stats::{self, Metrics};
use perfbench::{host, internals, layers, serve, simulate, trace, train};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The phases take turns in rounds until the measured time is spent, so
/// slow drift of the host touches every metric alike. Each round runs one
/// fixed-length `Trainer::train` call, then the serving phases and the
/// simulation units for fixed slices of time.
const MIN_ROUNDS: u32 = 2;
const SAT_SLICE: Duration = Duration::from_millis(300);
const HIGH_SLICE: Duration = Duration::from_millis(600);
const LOW_SLICE: Duration = Duration::from_millis(700);
const SIM_SLICE: Duration = Duration::from_millis(800);

struct Args {
    workload: String,
    width: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    loss_bits: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut loss_bits) =
        (None, None, None, false, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--loss-bits" => loss_bits = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let width = match workload.as_str() {
        "parallel" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        "serial" => 1,
        other => return Err(format!("unknown workload `{other}` (parallel or serial)")),
    };
    let seconds = match (seconds, loss_bits) {
        (Some(s), _) if s > 0.0 && s.is_finite() => s,
        (Some(s), _) => return Err(format!("--seconds must be positive, got {s}")),
        (None, true) => 0.0,
        (None, false) => return Err("--seconds is required".into()),
    };
    Ok(Args {
        workload,
        width,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        loss_bits,
    })
}

/// Scratch directory for the run's files, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(".perfbench_out").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Sets {
    train: train::TrainSet,
    serve: serve::ServeSet,
    sim: simulate::SimSet,
}

fn setup(seed: u64, work: &Path) -> Result<Sets, String> {
    Ok(Sets {
        train: train::setup(seed, 4, 30, work)?,
        serve: serve::setup(seed, work)?,
        sim: simulate::setup(seed),
    })
}

/// Operations attempted and failed, and the output checks that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.errors.push(e);
        }
    }

    fn ops(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for f in failures {
            eprintln!("perfbench: operation failed: {f}");
        }
    }
}

/// What one pass over the three phases measured.
struct Pass {
    e2e: Metrics,
    /// Latencies reported with the layer metrics: the `high` median and
    /// every p99.
    latencies: Metrics,
    /// `fft.plan_cache` hits and misses during training (traced pass only).
    plan_cache: (u64, u64),
    /// `ft-serve` histograms after serving (traced pass only).
    serve_hists: Vec<(&'static str, ft_obs::HistogramSnapshot)>,
    session_steps_ms: Vec<f64>,
    lags_ms: Vec<f64>,
}

fn counter(name: &str) -> u64 {
    ft_obs::metrics::counter_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

fn pass(sets: &Sets, seed: u64, seconds: f64, work: &Path, tally: &mut Tally) -> Pass {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut tr = train::TrainRun::new();
    let mut plan_cache = (0, 0);
    let (mut sat, mut high, mut low) = Default::default();
    let mut sim = simulate::SimRun::default();
    let mut rounds = 0u32;
    // Start another round only while one of average length still fits.
    while rounds < MIN_ROUNDS || Instant::now() + start.elapsed() / rounds <= deadline {
        let r = u64::from(rounds);
        let before = (
            counter("fft.plan_cache.hits"),
            counter("fft.plan_cache.misses"),
        );
        tr.call(&sets.train);
        plan_cache.0 += counter("fft.plan_cache.hits") - before.0;
        plan_cache.1 += counter("fft.plan_cache.misses") - before.1;
        serve::saturate(&sets.serve, SAT_SLICE, &mut sat);
        let high_rate = serve::HIGH_LOAD * serve::sat_rps(&sat);
        serve::open_loop(
            &sets.serve,
            high_rate,
            HIGH_SLICE,
            seed ^ (r << 8) ^ 1,
            true,
            &mut high,
        );
        serve::open_loop(
            &sets.serve,
            serve::LOW_RATE,
            LOW_SLICE,
            seed ^ (r << 8) ^ 2,
            false,
            &mut low,
        );
        sim.run(&sets.sim, SIM_SLICE);
        rounds += 1;
    }

    let mut m = Metrics::default();
    tally.ops(tr.epochs, tr.recoveries, &[]);
    tally.errors.append(&mut tr.errors);
    tally.check(train::check_model_roundtrip(
        &mut tr.model,
        &sets.train,
        work,
    ));
    m.put(
        "train.samples_per_sec",
        stats::median(&tr.epoch_rates),
        "samples/s",
    );
    m.put("train.loss_final", tr.loss_final(), "rel_l2");

    let serve_hists = ft_obs::hist::histogram_snapshot()
        .into_iter()
        .filter(|(n, _)| n.starts_with("serve."))
        .collect();
    for phase in [&sat, &high, &low] {
        tally.ops(phase.attempted, phase.failed, &phase.failures);
        tally.check(serve::check_responses(&sets.serve, phase));
    }
    m.put("serve.sat_rps", serve::sat_rps(&sat), "req/s");
    m.put("serve.low.p50_ms", stats::median(&low.latencies_ms), "ms");
    m.put(
        "serve.session.p50_ms",
        stats::median(&high.session_steps_ms),
        "ms",
    );
    // Latency tails, and any latency under queueing, follow every hiccup
    // of a shared host too closely to be bounded; the traced run reports
    // them with the layer metrics.
    let mut latencies = Metrics::default();
    latencies.put("serve.high.p50_ms", stats::median(&high.latencies_ms), "ms");
    latencies.put("serve.low.p99_ms", stats::tail(&low.latencies_ms), "ms");
    latencies.put("serve.high.p99_ms", stats::tail(&high.latencies_ms), "ms");
    latencies.put(
        "serve.session.p99_ms",
        stats::tail(&high.session_steps_ms),
        "ms",
    );

    tally.ops(sim.attempted, sim.failed, &sim.failures);
    tally.errors.append(&mut sim.errors);
    m.put("sim.lbm_mlups", stats::median(&sim.mlups), "MLUPS");
    m.put(
        "sim.hybrid_frames_per_sec",
        stats::median(&sim.frames_per_sec),
        "frames/s",
    );

    let lags_ms = [high.lags_ms, low.lags_ms].concat();
    Pass {
        e2e: m,
        latencies,
        plan_cache,
        serve_hists,
        session_steps_ms: high.session_steps_ms,
        lags_ms,
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Per-layer metrics: the step breakdown, the layer probes, and what the
/// traced pass recorded, set against the untraced pass.
fn per_layer(
    sets: &Sets,
    seed: u64,
    work: &Path,
    untraced: &Pass,
    traced: &Pass,
    tally: &mut Tally,
) -> Metrics {
    let mut m = Metrics::default();
    internals::traced_steps(&sets.train, 16, &mut m);
    layers::nn(seed, 10, &mut m);
    layers::fft(seed, 20, &mut m);
    let (hits, misses) = traced.plan_cache;
    m.put(
        "fft.plan_cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
    );
    layers::pool(200, &mut m);
    tally.check(layers::io(&sets.train, work, 5, &mut m));
    tally.check(layers::serving(&sets.serve, 50, &mut m));

    let hist = |name: &str| {
        traced
            .serve_hists
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| *h)
    };
    let wait = hist("serve.queue_wait_seconds");
    m.put(
        "serve.admit_us",
        stats::median(&trace::durations_ms("serve.admit")) * 1e3,
        "us",
    );
    m.put(
        "serve.queue_wait_ms.p50",
        wait.map_or(f64::NAN, |h| h.p50 * 1e3),
        "ms",
    );
    m.put(
        "serve.queue_wait_ms.p99",
        wait.map_or(f64::NAN, |h| h.p99 * 1e3),
        "ms",
    );
    m.put(
        "serve.batch_size.mean",
        hist("serve.batch_size").map_or(f64::NAN, |h| h.mean),
        "count",
    );
    m.put(
        "serve.forward_ms",
        hist("serve.forward_seconds").map_or(f64::NAN, |h| h.p50 * 1e3),
        "ms",
    );
    let b1 = m.get("model.fwd_inference.b1_ms").unwrap_or(f64::NAN);
    m.put(
        "serve.session.forward_share",
        b1 / stats::median(&traced.session_steps_ms),
        "share",
    );
    m.put("serve.gen_lag_ms", stats::tail(&traced.lags_ms), "ms");
    for name in [
        "serve.high.p50_ms",
        "serve.low.p99_ms",
        "serve.high.p99_ms",
        "serve.session.p99_ms",
    ] {
        m.put(name, untraced.latencies.get(name).unwrap_or(f64::NAN), "ms");
    }

    tally.check(layers::simulation(&sets.sim, 20, &mut m));

    let lost = |name: &str| {
        let (u, t) = (
            untraced.e2e.get(name).unwrap_or(f64::NAN),
            traced.e2e.get(name).unwrap_or(f64::NAN),
        );
        1.0 - t / u
    };
    m.put(
        "trace.overhead_share.train",
        lost("train.samples_per_sec"),
        "share",
    );
    m.put("trace.overhead_share.serve", lost("serve.sat_rps"), "share");
    m.put(
        "trace.overhead_share.sim",
        lost("sim.hybrid_frames_per_sec"),
        "share",
    );
    m
}

/// Trains the tiny configuration once and returns its final loss.
fn loss_bits(seed: u64, work: &Path) -> Result<u64, String> {
    let set = train::setup(seed, 2, 14, work)?;
    let mut tr = train::TrainRun::new();
    tr.call(&set);
    if let Some(e) = tr.errors.first() {
        return Err(e.clone());
    }
    Ok(tr.loss_final().to_bits())
}

fn run(args: &Args) -> Result<String, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(args.width)
        .build_global()
        .map_err(|e| format!("pool width {}: {e}", args.width))?;
    let work = WorkDir::new()?;
    let run_clock = host::Clock::start();
    if args.loss_bits {
        return Ok(format!("{:016x}", loss_bits(args.seed, &work.0)?));
    }

    let mut setup_s = Vec::new();
    let mut sets = None;
    for _ in 0..SETUP_REPS {
        drop(sets.take());
        let clock = host::Clock::start();
        sets = Some(setup(args.seed, &work.0)?);
        setup_s.push(clock.secs());
    }
    let sets = sets.expect("at least one set-up");
    eprintln!(
        "perfbench: workload {} (pool width {}), seed {}, {} s{}",
        args.workload,
        args.width,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );

    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = pass(&sets, args.seed, half, &work.0, &mut tally);
        eprintln!(
            "perfbench: untraced pass done at {:.1} s",
            run_clock.read().0
        );
        trace::enable();
        ft_obs::set_enabled(true);
        ft_obs::reset();
        let traced = pass(&sets, args.seed, half, &work.0, &mut tally);
        eprintln!("perfbench: traced pass done at {:.1} s", run_clock.read().0);
        let m = per_layer(&sets, args.seed, &work.0, &untraced, &traced, &mut tally);
        eprintln!(
            "perfbench: layer probes done at {:.1} s",
            run_clock.read().0
        );
        let out = Path::new(".perfbench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&out).map_err(|e| format!("write {}: {e}", out.display()))?;
        eprintln!("perfbench: spans written to {}", out.display());
        m
    } else {
        let mut p = pass(&sets, args.seed, args.seconds, &work.0, &mut tally);
        p.e2e.put("setup_s", stats::median(&setup_s), "s");
        p.e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");
        p.e2e
    };
    let run_share = run_clock.run_share();
    if args.trace {
        metrics.put("host.run_share", run_share, "share");
    }
    eprintln!(
        "perfbench: the guest ran {:.1}% of the wall time (the rest was hypervisor steal)",
        100.0 * run_share
    );
    for name in metrics.non_finite() {
        tally
            .errors
            .push(format!("metric {name} is not a finite number"));
    }
    for e in &tally.errors {
        eprintln!("perfbench: output check failed: {e}");
    }
    Ok(metrics.result_json(tally.errors.is_empty(), tally.attempted, tally.failed))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
