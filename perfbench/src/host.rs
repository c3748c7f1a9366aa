//! Time the guest actually ran: wall time minus hypervisor steal.
//!
//! On a shared virtual machine the hypervisor can take the vCPUs away for
//! a large share of a second; to the guest that shows only as "steal" in
//! `/proc/stat`, and it stretches every wall-clock measurement alike. The
//! end-to-end times of this benchmark are therefore taken on a [`Clock`]
//! that subtracts the steal accrued during the interval, averaged over the
//! CPUs. Where `/proc/stat` is unreadable the clock is plain wall time.

use std::time::Instant;

/// Ticks per second of the `/proc/stat` counters (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Steal summed over all CPUs in seconds, and the number of CPUs.
pub fn stolen() -> (f64, usize) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 1);
    };
    let mut lines = stat.lines();
    let steal = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cpus = lines.filter(|l| l.starts_with("cpu")).count().max(1);
    (steal / TICKS_PER_S, cpus)
}

/// A stopwatch that excludes hypervisor steal.
#[derive(Clone, Copy)]
pub struct Clock {
    wall: Instant,
    stolen: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            stolen: stolen().0,
        }
    }

    /// Wall seconds since [`Clock::start`], and the same less the steal
    /// accrued meanwhile per CPU. The second is never below a tenth of the
    /// first, so a burst of steal landing on an idle CPU cannot drive it
    /// to zero.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let (now, cpus) = stolen();
        (
            wall,
            (wall - (now - self.stolen) / cpus as f64).max(0.1 * wall),
        )
    }

    /// Seconds the guest ran since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        self.read().1
    }

    /// The share of wall time since [`Clock::start`] that the guest ran.
    pub fn run_share(&self) -> f64 {
        let (wall, guest) = self.read();
        if wall > 0.0 {
            guest / wall
        } else {
            1.0
        }
    }
}
