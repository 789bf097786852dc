//! Order statistics over timing samples, and the `/proc` readers that give
//! process CPU time and peak memory from outside the program (std only).

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/*/stat`
/// (`USER_HZ`, 100 on every Linux architecture).
pub const TICKS_PER_SEC: f64 = 100.0;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the exclusive method,
/// which extrapolates past the ends of small samples). With fewer than two
/// samples every quartile is the single value (0 if empty).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len() as i64;
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Mean over keys of each key's median sample, for `(key, sample)` pairs
/// (0 if empty). Each key stands for one fixed piece of work done several
/// times — one table of the panel — so each counts once, however many
/// samples it got.
pub fn mean_of_medians(samples: &[(usize, f64)]) -> f64 {
    let mut keys: Vec<usize> = samples.iter().map(|s| s.0).collect();
    keys.sort_unstable();
    keys.dedup();
    let of_key =
        |k: usize| -> Vec<f64> { samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect() };
    let sum: f64 = keys.iter().map(|&k| median(&of_key(k))).sum();
    sum / keys.len().max(1) as f64
}

/// The time [`calibrate`] takes on the reference host, in seconds. A
/// repair's wall time divided by the kernel's time next to it, times this,
/// is the repair's time on a host where the kernel takes exactly this long.
pub const REFERENCE_S: f64 = 0.05;

/// Runs a fixed compute kernel, independent of the program, and returns
/// its wall time in seconds: a gauge of how fast the host runs this CPU
/// right now.
///
/// On a shared virtual machine a CPU's speed drifts by tens of percent
/// over minutes, with what other tenants run on the same cores; that shows
/// neither as steal nor as CPU time lost. Timed right next to a repair on
/// the same thread, the kernel slows with it, so the ratio of the two keeps
/// the program's cost and sheds most of the drift. The kernel keeps its
/// data in L1 (16 KiB) and mixes what a repair's inner loops do: integer
/// hashing, data-dependent branches, and short dot products with an `exp`
/// and an SGD-style update. It allocates nothing and does the same work on
/// every call.
pub fn calibrate() -> f64 {
    const WEIGHTS: usize = 2048;
    const ROW: usize = 16;
    let t0 = std::time::Instant::now();
    let mut weights = [0.01f64; WEIGHTS];
    let mut h = 0x1234_5678_u64;
    let mut total = 0.0;
    let mut mixed = 0u64;
    for step in 0..2_000_000usize {
        h = (h ^ step as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        let base = h as usize & (WEIGHTS - ROW);
        let row = &mut weights[base..base + ROW];
        let x = |k: usize| ((k + step) & 7) as f64;
        let z: f64 = row.iter().enumerate().map(|(k, w)| w * x(k)).sum();
        let p = 1.0 / (1.0 + (-z).exp());
        total += p;
        for (k, w) in row.iter_mut().enumerate() {
            *w -= 1e-6 * (p - 0.5) * x(k);
        }
        if h & 3 == 0 {
            mixed += h >> 60;
        } else if h & 5 == 1 {
            mixed ^= h;
        }
    }
    std::hint::black_box((total, mixed, weights));
    t0.elapsed().as_secs_f64()
}

/// Nearest-rank `p`-th percentile (`0 < p < 1`), or `None` when fewer than
/// ten samples lie beyond it — a tail percentile resting on fewer samples
/// is noise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank.min(v.len()) < 10 {
        return None;
    }
    Some(v[rank - 1])
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// `(steal, total)` clock ticks of the machine-wide `cpu` line of
/// `/proc/stat`: time the hypervisor ran something else while a virtual CPU
/// wanted to run, against all time accounted.
pub fn parse_proc_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Machine-wide `(steal, total)` clock ticks so far; zeros when
/// `/proc/stat` is unreadable.
pub fn steal_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat_steal(&s))
        .unwrap_or((0, 0))
}

/// CPU time this process has used so far, every thread included (the
/// kernel folds exited threads into the process totals), in clock ticks.
pub fn cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn mean_of_medians_counts_every_key_once() {
        let samples = [(0, 3.0), (1, 10.0), (0, 1.0), (1, 8.0), (0, 2.0)];
        assert_eq!(mean_of_medians(&samples), 5.5);
        assert_eq!(mean_of_medians(&[(7, 2.5)]), 2.5);
        assert_eq!(mean_of_medians(&[]), 0.0);
    }

    #[test]
    fn calibration_kernel_takes_time() {
        assert!(calibrate() > 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn stat_parser_counts_fields_after_the_command_name() {
        let stat = "4242 (a (b) c) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 0 0 20 0 3 0 1000 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1"), None);
    }

    #[test]
    fn status_parser_reads_the_high_water_mark() {
        let status =
            "Name:\tholobench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn proc_stat_parser_reads_steal_and_total() {
        let stat = "cpu  100 5 20 300 7 0 3 40 9 0\ncpu0 50 2 10 150 3 0 1 20 4 0\n";
        assert_eq!(parse_proc_stat_steal(stat), Some((40, 475)));
        assert_eq!(parse_proc_stat_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn own_process_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(cpu_ticks() > 0);
    }
}
