//! Serving: an in-process `ServeEngine` fed through the wire protocol.
//!
//! Every request and response is encoded with `proto::write_*` and decoded
//! with `proto::read_frame` on in-memory buffers, so the protocol cost is
//! paid as over a socket while network noise stays out. There are three
//! phases, each run for a slice of time:
//!
//! * `sat` — one client keeps [`SAT_IN_FLIGHT`] predicts in flight; gives
//!   the saturated throughput;
//! * `high` — open-loop Poisson predicts at [`HIGH_LOAD`] of that
//!   throughput, so micro-batching engages, with a closed-loop rollout
//!   session stepping alongside (a higher share backs the queue up on two
//!   cores once the session competes for them);
//! * `low` — open-loop Poisson predicts at [`LOW_RATE`], where batches are
//!   mostly of one request.
//!
//! Open-loop latency runs from each request's due time, so a stalled
//! sender still charges the wait to the requests it delays; how late the
//! sender ran is reported separately. Load comes from at most two
//! threads: the sender and the session client. A third thread only
//! collects responses.

use std::collections::VecDeque;
use std::io::BufRead;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fno_core::{Fno, FnoConfig, ForecastModel};
use ft_serve::engine::PendingResponse;
use ft_serve::{proto, ModelRegistry, ServeConfig, ServeEngine, ServeHandle};
use ft_tensor::Tensor;
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{checks, host, stats, trace};

pub const MODEL: &str = "bench";
pub const CHANNELS: usize = 10;
pub const GRID: usize = 16;
pub const MAX_BATCH: usize = 8;
/// Admission queue bound: deep enough that a slow spell of the host
/// shows as queueing latency rather than as rejected requests.
pub const QUEUE_CAPACITY: usize = 1024;
/// Predicts the saturating client keeps in flight.
pub const SAT_IN_FLIGHT: usize = 2 * MAX_BATCH;
/// Offered load of the `high` phase as a share of the measured saturated
/// throughput.
pub const HIGH_LOAD: f64 = 0.35;
/// Offered load of the `low` phase, in requests per second.
pub const LOW_RATE: f64 = 100.0;
/// Pause of the session client between a frame's arrival and its next
/// step request.
pub const SESSION_THINK: Duration = Duration::from_millis(2);
/// Distinct inputs the clients cycle through.
const INPUTS: usize = 32;
/// Every this many requests of a phase, the response is kept and checked
/// against a direct forward pass after the phase.
const CHECK_EVERY: usize = 97;
/// Relative tolerance of that check: the response crossed the wire as f32.
const CHECK_TOL: f64 = 1e-5;

/// The FNO2d served: 10 input snapshots, 2 predicted.
pub fn model_config() -> FnoConfig {
    let mut cfg = FnoConfig::fno2d(8, 4, 8, 2);
    cfg.lifting_channels = 32;
    cfg.projection_channels = 32;
    cfg
}

pub struct ServeSet {
    pub engine: ServeEngine,
    /// The served model, loaded from the same file as the engine's.
    pub reference: Fno,
    pub inputs: Vec<Tensor>,
    pub history: Tensor,
    pub model_path: std::path::PathBuf,
}

/// Saves a seeded model, loads it into a registry, starts the engine and
/// warms it up with a round of predicts.
pub fn setup(seed: u64, work: &Path) -> Result<ServeSet, String> {
    let model_path = work.join("serve.fnc");
    Fno::new(model_config(), seed)
        .save(&model_path)
        .map_err(|e| format!("save served model: {e}"))?;
    let mut registry = ModelRegistry::new();
    registry
        .load_model(MODEL, &model_path)
        .map_err(|e| format!("load served model: {e}"))?;
    let reference = Fno::load(&model_path).map_err(|e| format!("load served model: {e}"))?;
    let engine = ServeEngine::new(
        registry,
        ServeConfig {
            max_batch: MAX_BATCH,
            queue_capacity: QUEUE_CAPACITY,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let dist = Uniform::new(-1.0, 1.0);
    let inputs: Vec<Tensor> = (0..INPUTS)
        .map(|_| Tensor::random(&[CHANNELS, GRID, GRID], &dist, &mut rng))
        .collect();
    let history = Tensor::random(&[CHANNELS, GRID, GRID], &dist, &mut rng);
    let h = engine.handle();
    for i in 0..4 * INPUTS {
        roundtrip(&h, &inputs[i % INPUTS])?;
    }
    Ok(ServeSet {
        engine,
        reference,
        inputs,
        history,
        model_path,
    })
}

fn encode(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    write(&mut buf).map_err(|e| format!("encode: {e}"))?;
    Ok(buf)
}

fn decode(buf: &[u8]) -> Result<(proto::Header, Option<Tensor>), String> {
    let mut r: &[u8] = buf;
    let frame = proto::read_frame(&mut r).map_err(|e| format!("decode: {e}"))?;
    if !r.fill_buf().map_err(|e| e.to_string())?.is_empty() {
        return Err("decode: trailing bytes after frame".into());
    }
    frame.ok_or_else(|| "decode: empty frame".to_string())
}

/// Client encodes a predict, server decodes it and admits it.
fn send(h: &ServeHandle, input: &Tensor) -> Result<PendingResponse, String> {
    let wire = encode(|b| proto::write_predict(b, MODEL, input))?;
    let (_, payload) = decode(&wire)?;
    let x = payload.ok_or("predict frame without payload")?;
    trace::timed("serve.admit", || h.submit(MODEL, x)).map_err(|e| e.to_string())
}

/// Server encodes the response, client decodes it.
fn receive(p: PendingResponse) -> Result<Tensor, String> {
    let y = p.wait().map_err(|e| e.to_string())?;
    let wire = encode(|b| proto::write_ok(b, Some(&y), None))?;
    let (header, payload) = decode(&wire)?;
    if header.get("ok") != Some(&proto::Value::Bool(true)) {
        return Err("response not ok".into());
    }
    payload.ok_or_else(|| "response without payload".into())
}

fn roundtrip(h: &ServeHandle, input: &Tensor) -> Result<Tensor, String> {
    receive(send(h, input)?)
}

/// Responses kept for checking: (input index, response).
type Kept = Vec<(usize, Tensor)>;

#[derive(Default)]
pub struct PhaseResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failed operations failed.
    pub failures: Vec<String>,
    pub latencies_ms: Vec<f64>,
    pub lags_ms: Vec<f64>,
    pub session_steps_ms: Vec<f64>,
    /// Completion rate of each run of [`SAT_UNIT`] consecutive `sat`
    /// responses, on the steal-free clock.
    pub unit_rates: Vec<f64>,
    kept: Kept,
    /// Requests sent so far, numbering the next one.
    sent: usize,
}

impl PhaseResult {
    fn merge(&mut self, mut other: PhaseResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.append(&mut other.failures);
        self.latencies_ms.append(&mut other.latencies_ms);
        self.session_steps_ms.append(&mut other.session_steps_ms);
        self.kept.append(&mut other.kept);
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(e);
        }
    }

    fn complete(&mut self, ordinal: usize, input: usize, r: Result<Tensor, String>) {
        match r {
            Ok(y) if ordinal.is_multiple_of(CHECK_EVERY) => self.kept.push((input, y)),
            Ok(_) => {}
            Err(e) => self.fail(e),
        }
    }
}

/// Completions per throughput sample of the `sat` phase.
const SAT_UNIT: usize = 64;

/// Closed loop: keep [`SAT_IN_FLIGHT`] predicts in flight for `dur`.
pub fn saturate(set: &ServeSet, dur: Duration, res: &mut PhaseResult) {
    let h = set.engine.handle();
    let mut inflight: VecDeque<(usize, PendingResponse)> = VecDeque::new();
    // Wall time at every SAT_UNIT-th completion.
    let mut marks: Vec<f64> = Vec::new();
    let mut done = 0usize;
    let clock = host::Clock::start();
    let start = Instant::now();
    let mut next = res.sent;
    loop {
        while inflight.len() < SAT_IN_FLIGHT && start.elapsed() < dur {
            res.attempted += 1;
            match send(&h, &set.inputs[next % INPUTS]) {
                Ok(p) => inflight.push_back((next, p)),
                Err(e) => res.fail(e),
            }
            next += 1;
        }
        let Some((idx, p)) = inflight.pop_front() else {
            break;
        };
        let r = receive(p);
        if done.is_multiple_of(SAT_UNIT) {
            marks.push(start.elapsed().as_secs_f64());
        }
        done += 1;
        res.complete(idx, idx % INPUTS, r);
    }
    res.sent = next;
    // The steal ticks are too coarse for one unit; take the slice's steal
    // out of every unit alike.
    let run_share = clock.run_share();
    res.unit_rates.extend(
        marks
            .windows(2)
            .map(|w| SAT_UNIT as f64 / (run_share * (w[1] - w[0]))),
    );
}

/// Open loop: Poisson predicts at `rate` per second for `dur`, optionally
/// with a closed-loop rollout session stepping one frame at a time.
pub fn open_loop(
    set: &ServeSet,
    rate: f64,
    dur: Duration,
    seed: u64,
    session: bool,
    res: &mut PhaseResult,
) {
    let h = set.engine.handle();
    let mut rng = StdRng::seed_from_u64(seed);
    let (tx, rx) = mpsc::channel::<(Instant, usize, Result<PendingResponse, String>)>();
    let clock = host::Clock::start();
    let start = Instant::now();
    let end = start + dur;
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut r = PhaseResult::default();
            for (due, ordinal, p) in rx {
                let out = p.and_then(receive);
                if out.is_ok() {
                    r.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                }
                r.complete(ordinal, ordinal % INPUTS, out);
            }
            r
        });
        let stepper = session.then(|| {
            let h = h.clone();
            let history = &set.history;
            s.spawn(move || run_session(&h, history, end))
        });

        let mut due = start;
        let mut i = res.sent;
        loop {
            due += Duration::from_secs_f64(-(1.0 - rng.gen::<f64>()).ln() / rate);
            if due >= end {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            res.lags_ms.push(due.elapsed().as_secs_f64() * 1e3);
            res.attempted += 1;
            let sent = send(&h, &set.inputs[i % INPUTS]);
            if tx.send((due, i, sent)).is_err() {
                break;
            }
            i += 1;
        }
        drop(tx);
        res.sent = i;
        let mut answered = collector.join().expect("response collector panicked");
        let mut stepped = stepper.map(|st| st.join().expect("session client panicked"));
        // Latencies stretch with the steal of their slice; take it out.
        let run_share = clock.run_share();
        for r in std::iter::once(&mut answered).chain(stepped.as_mut()) {
            r.latencies_ms
                .iter_mut()
                .chain(&mut r.session_steps_ms)
                .for_each(|v| *v *= run_share);
        }
        res.merge(answered);
        if let Some(r) = stepped {
            res.merge(r);
        }
    });
}

/// One rollout session through the wire protocol, stepping one frame per
/// request until `end`.
fn run_session(h: &ServeHandle, history: &Tensor, end: Instant) -> PhaseResult {
    let mut r = PhaseResult::default();
    r.attempted += 1;
    let id = match open_session(h, history) {
        Ok(id) => id,
        Err(e) => {
            r.fail(e);
            return r;
        }
    };
    while Instant::now() < end {
        r.attempted += 1;
        let t0 = Instant::now();
        match session_step(h, id) {
            Ok(_) => r.session_steps_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => r.fail(e),
        }
        std::thread::sleep(SESSION_THINK);
    }
    if !h.close_session(id) {
        r.fail("session vanished before close".into());
    }
    r
}

fn open_session(h: &ServeHandle, history: &Tensor) -> Result<u64, String> {
    let wire = encode(|b| proto::write_session_open(b, MODEL, history))?;
    let (_, payload) = decode(&wire)?;
    let id = h
        .open_session(MODEL, &payload.ok_or("session_open without payload")?)
        .map_err(|e| e.to_string())?;
    let (header, _) = decode(&encode(|b| proto::write_ok(b, None, Some(id)))?)?;
    header
        .get("session")
        .and_then(proto::Value::as_int)
        .ok_or_else(|| "no session id".into())
}

fn session_step(h: &ServeHandle, id: u64) -> Result<Tensor, String> {
    let (header, _) = decode(&encode(|b| proto::write_session_step(b, id, 1))?)?;
    let steps = header
        .get("steps")
        .and_then(proto::Value::as_int)
        .ok_or("no steps")? as usize;
    let frames = trace::timed("serve.session.step", || h.session_step(id, steps))
        .map_err(|e| e.to_string())?;
    let (_, payload) = decode(&encode(|b| proto::write_ok(b, Some(&frames), None))?)?;
    let frames = payload.ok_or("session step without payload")?;
    checks::finite("session frame", frames.data())?;
    Ok(frames)
}

/// Compares every kept response with a direct `forward_inference` of the
/// same f32-rounded input.
pub fn check_responses(set: &ServeSet, res: &PhaseResult) -> Result<(), String> {
    for (idx, got) in &res.kept {
        let x = checks::f32_rounded(&set.inputs[*idx]).reshape(&[1, CHANNELS, GRID, GRID]);
        let want = set.reference.forward_inference(&x);
        let dims = want.dims()[1..].to_vec();
        let want = checks::f32_rounded(&want.reshape(&dims));
        checks::response(got, &want, CHECK_TOL)?;
    }
    Ok(())
}

/// Median sat-phase throughput in requests per second.
pub fn sat_rps(res: &PhaseResult) -> f64 {
    stats::median(&res.unit_rates)
}
