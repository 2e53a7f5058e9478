//! Process accounting read from `/proc` (Linux).

use std::time::Instant;

/// Peak resident set (VmHWM) of process `pid` (`None`: this process),
/// MiB; NaN where `/proc` cannot tell.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User plus system CPU time of process `pid`, seconds. Assumes the
/// kernel's usual 100 clock ticks per second.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => f64::NAN,
    }
}

/// Milliseconds the calibration kernel takes on the reference machine (a
/// 2-CPU container) while its host is quiet.
const KERNEL_REFERENCE_MS: f64 = 20.5;

/// How fast this machine runs right now relative to the reference one:
/// the kernel's reference time ÷ the best of three runs now.
///
/// The reference machine shares its CPUs with other work, which slows
/// the same rep by up to 70 % for minutes at a time. A wall time
/// multiplied by this factor is what the quiet reference machine would
/// have taken; on the season workload that cut the spread of a 30 s
/// run's median across runs from ~13 % to ~4 %. The kernel is integer arithmetic in this crate, so no
/// change to frostlab can move it.
pub fn host_speed() -> f64 {
    let best = (0..3).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min);
    KERNEL_REFERENCE_MS / best
}

fn kernel_ms() -> f64 {
    let t = Instant::now();
    let (mut h, mut x) = (0xcbf2_9ce4_8422_2325_u64, 0x0139_408d_cbbf_7a44_u64);
    for _ in 0..std::hint::black_box(10_000_000) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h = (h ^ x).wrapping_mul(0x100_0000_01b3);
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// Call `rep` until `budget_s` seconds have passed, starting a rep only
/// if the slowest one so far still fits, but at least `min_reps` times.
/// Returns how many reps ran.
pub fn reps_within(budget_s: f64, min_reps: usize, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut slowest = 0.0_f64;
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() + slowest <= budget_s {
        let t = Instant::now();
        rep();
        slowest = slowest.max(t.elapsed().as_secs_f64());
        reps += 1;
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_a_peak_rss_and_cpu_time() {
        assert!(peak_rss_mib(None) > 0.0);
        assert!(cpu_seconds(std::process::id()) >= 0.0);
    }

    #[test]
    fn reps_respect_the_minimum_and_the_budget() {
        let mut n = 0;
        assert_eq!(reps_within(0.0, 3, || n += 1), 3);
        assert_eq!(n, 3);
        let ran = reps_within(0.05, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!((2..=6).contains(&ran), "{ran}");
    }
}
