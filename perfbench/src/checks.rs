//! Output checks. Each returns `Err` with a reason when an output is wrong;
//! the benchmark's self-tests feed each one a corrupted output.

use fno_core::TrajectoryLog;
use ft_tensor::Tensor;

/// Training loss: every epoch finite and the last below the first.
pub fn loss_curve(losses: &[f64]) -> Result<(), String> {
    if losses.is_empty() {
        return Err("training produced no epochs".into());
    }
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("training loss is not finite at epoch {i}"));
    }
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    if last.partial_cmp(&first) != Some(std::cmp::Ordering::Less) {
        return Err(format!("training loss did not decrease: {first} -> {last}"));
    }
    Ok(())
}

/// Bitwise equality of two outputs that must be identical.
pub fn same_bits(what: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{what}: lengths differ ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: element {i} differs ({} vs {})",
            a[i], b[i]
        )),
    }
}

/// Rounds every element to `f32`, the precision of the serving wire format.
pub fn f32_rounded(t: &Tensor) -> Tensor {
    t.map(|v| v as f32 as f64)
}

/// A served response against the direct forward pass of the same input:
/// same shape, and every element within `rel_tol` of the reference's
/// largest magnitude (the response crossed the wire as `f32`).
pub fn response(got: &Tensor, want: &Tensor, rel_tol: f64) -> Result<(), String> {
    if got.dims() != want.dims() {
        return Err(format!(
            "response shape {:?}, expected {:?}",
            got.dims(),
            want.dims()
        ));
    }
    let scale = want
        .data()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-300);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        if (g - w).abs().partial_cmp(&(rel_tol * scale)) != Some(std::cmp::Ordering::Less) {
            return Err(format!("response element {i} is {g}, expected {w}"));
        }
    }
    Ok(())
}

/// Every element finite.
pub fn finite(what: &str, data: &[f64]) -> Result<(), String> {
    match data.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: element {i} is {}", data[i])),
    }
}

/// A hybrid trajectory: `frames` entries, every diagnostic and frame finite.
pub fn hybrid_log(log: &TrajectoryLog, frames: usize) -> Result<(), String> {
    if log.times.len() != frames || log.frames.len() != frames {
        return Err(format!(
            "hybrid log has {} frames, expected {frames}",
            log.frames.len()
        ));
    }
    finite("hybrid kinetic energy", &log.kinetic_energy)?;
    finite("hybrid enstrophy", &log.enstrophy)?;
    finite("hybrid divergence", &log.divergence)?;
    for (ux, uy) in &log.frames {
        finite("hybrid ux", ux.data())?;
        finite("hybrid uy", uy.data())?;
    }
    Ok(())
}
