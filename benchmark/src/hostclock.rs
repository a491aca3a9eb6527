//! The host clock: thread CPU time, peak memory, and a calibration loop
//! that turns host time into time at a reference machine speed.
//!
//! This box is a shared 2-core VM: for stretches of tens of seconds every
//! CPU-time measurement reads about 30 % high (the harness's own runs,
//! seeds 18–20 of one ten-seed pass). Medians over a run's children cannot
//! remove that, because the whole run sits inside the stretch. So host
//! times are divided by how slow a fixed loop of the harness's own ran at
//! the same time.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Option<Duration> {
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`;
    // `ts` is a live, exclusively borrowed value of that layout (two
    // 64-bit fields on the targets this is compiled for).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Option<Duration> {
    None
}

/// This thread's CPU time where the platform reports it, wall time
/// otherwise. (`/proc/thread-self/schedstat` advances in 4 ms scheduler
/// ticks on this kernel, too coarse for the 2 ms calibration slices, so the
/// clock is `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`.)
pub struct CpuClock {
    cpu: Option<Duration>,
    wall: Instant,
}

impl CpuClock {
    pub fn start() -> CpuClock {
        CpuClock {
            cpu: thread_cpu(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        match (self.cpu, thread_cpu()) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => self.wall.elapsed(),
        }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib = line.split_whitespace().nth(1)?.parse::<f64>().ok()?;
    Some(kib / 1024.0)
}

/// A fixed piece of work that uses nothing of the program under test, so
/// no change to the program can speed it up: dependent loads around one
/// random cycle through a 32 KiB ring, with a multiply-add per step. The
/// ring stays in the first-level cache whatever the simulation did in
/// between, so a slice measures the core's speed (host steal, frequency)
/// and not how much of a bigger ring the simulation left cached.
/// Slices of it are timed next to what is measured.
pub struct Calibrator {
    ring: Vec<u32>,
    at: u32,
    acc: u64,
    spent: Duration,
    slices: u32,
}

impl Calibrator {
    const RING: usize = 8 << 10;
    const STEPS_PER_SLICE: usize = 1_000_000;
    /// What one slice takes on this box when it is quiet: the reference
    /// speed, at which calibrated time equals measured time.
    const REFERENCE_SLICE: Duration = Duration::from_micros(1_930);

    pub fn new() -> Calibrator {
        // Sattolo's algorithm: one cycle through every entry.
        let mut ring: Vec<u32> = (0..Self::RING as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..Self::RING).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ring.swap(i, ((state >> 33) as usize) % i);
        }
        Calibrator {
            ring,
            at: 0,
            acc: 0,
            spent: Duration::ZERO,
            slices: 0,
        }
    }

    /// Run and time one slice.
    pub fn slice(&mut self) {
        let clock = CpuClock::start();
        let (mut at, mut acc) = (self.at, self.acc);
        for _ in 0..Self::STEPS_PER_SLICE {
            at = self.ring[at as usize];
            acc = acc.wrapping_mul(0x9E37_79B9).wrapping_add(at as u64);
        }
        (self.at, self.acc) = black_box((at, acc));
        self.spent += clock.elapsed();
        self.slices += 1;
    }

    /// Machine speed over the slices since the last call, relative to the
    /// reference (below 1: slower). Host time × speed = calibrated time.
    pub fn take_speed(&mut self) -> f64 {
        assert!(self.slices > 0, "no calibration slice was run");
        let speed = (Self::REFERENCE_SLICE * self.slices).as_secs_f64() / self.spent.as_secs_f64();
        self.spent = Duration::ZERO;
        self.slices = 0;
        speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle() {
        let c = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.ring[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, Calibrator::RING);
    }

    #[test]
    fn speed_is_reference_over_spent_and_resets() {
        let mut c = Calibrator::new();
        c.slice();
        c.slice();
        let spent = c.spent;
        let speed = c.take_speed();
        let want = Calibrator::REFERENCE_SLICE.as_secs_f64() * 2.0 / spent.as_secs_f64();
        assert!((speed - want).abs() < 1e-12);
        assert_eq!((c.slices, c.spent), (0, Duration::ZERO));
    }
}
