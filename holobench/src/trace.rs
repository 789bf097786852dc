//! The span recorder of the traced run. Spans are opened by the benchmark
//! around calls into the program's public API — nothing inside the program
//! is instrumented — and kept in memory until the run ends.
//!
//! Each span records its name, its start and end, the span that caused it
//! (its parent; the root span of one repair identifies that repair), the
//! thread budget of the call, and the process CPU time read from
//! `/proc/self/stat` at both boundaries. A *probe* span times work the
//! repair itself does not block on (re-running a layer in isolation to
//! count what it did); probes never count toward coverage.

use crate::stats::{self, TICKS_PER_SEC};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`"compile"`, `"insert"`, ...) or root (`"drive"`, `"feed"`).
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Off the critical path of the repair.
    pub probe: bool,
    /// Worker threads the call was allowed.
    pub threads: usize,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// End, relative to the tracer's creation.
    pub end: Duration,
    /// Process CPU ticks spent between start and end.
    pub cpu_ticks: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the tracer back to open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        threads: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.record(name, threads, false, f)
    }

    /// [`Tracer::span`] for work off the repair's critical path.
    pub fn probe<R>(
        &mut self,
        name: &'static str,
        threads: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.record(name, threads, true, f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        threads: usize,
        probe: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let cpu0 = stats::cpu_ticks();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            probe,
            threads: threads.max(1),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            cpu_ticks: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.cpu_ticks = stats::cpu_ticks().saturating_sub(cpu0);
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median wall time of the spans named `name`, in ms (0 if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self.named(name).map(|s| as_ms(s.wall())).collect();
        stats::median(&ms)
    }

    /// Wall times of the spans named `name`, in ms.
    pub fn samples_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| as_ms(s.wall())).collect()
    }

    /// CPU time over (wall time × threads), summed over the spans named
    /// `name` (0 if none).
    pub fn cpu_util(&self, name: &str) -> f64 {
        util(self.named(name))
    }

    /// [`Tracer::cpu_util`] over every in-path span that is a direct child
    /// of a root span named `root`.
    pub fn in_path_cpu_util(&self, root: &str) -> f64 {
        util(self.in_path(root))
    }

    fn in_path<'a>(&'a self, root: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| !s.probe && s.parent.is_some_and(|p| self.spans[p].name == root))
    }

    /// Share of the wall time of the root spans named `root` that their
    /// in-path child spans cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let covered: Duration = self.in_path(root).map(Span::wall).sum();
        let total: Duration = self.named(root).map(Span::wall).sum();
        if total.is_zero() {
            0.0
        } else {
            covered.as_secs_f64() / total.as_secs_f64()
        }
    }

    /// One summary line per span name: count, median and total wall time,
    /// self time (wall minus the part its child spans cover), CPU
    /// utilisation, and whether it is a probe.
    pub fn summary(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.wall();
            }
        }
        names
            .into_iter()
            .map(|name| {
                let ids: Vec<usize> = (0..self.spans.len())
                    .filter(|&i| self.spans[i].name == name)
                    .collect();
                let total: Duration = ids.iter().map(|&i| self.spans[i].wall()).sum();
                let own: Duration = ids
                    .iter()
                    .map(|&i| self.spans[i].wall().saturating_sub(child_time[i]))
                    .sum();
                format!(
                    "span {name:<12} n={:<5} median_ms={:<10.3} total_ms={:<11.3} self_ms={:<11.3} cpu_util={:.3}{}",
                    ids.len(),
                    self.median_ms(name),
                    as_ms(total),
                    as_ms(own),
                    self.cpu_util(name),
                    if self.spans[ids[0]].probe { " probe" } else { "" },
                )
            })
            .collect()
    }
}

fn util<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let (mut cpu, mut capacity) = (0.0, 0.0);
    for s in spans {
        cpu += s.cpu_ticks as f64 / TICKS_PER_SEC;
        capacity += s.wall().as_secs_f64() * s.threads as f64;
    }
    if capacity > 0.0 {
        cpu / capacity
    } else {
        0.0
    }
}

/// A duration in milliseconds.
pub fn as_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_probes_stay_out_of_coverage() {
        let mut t = Tracer::new();
        t.span("drive", 1, |t| {
            t.span("a", 1, |_| std::thread::sleep(Duration::from_millis(5)));
            t.probe("p", 1, |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].wall() >= spans[1].wall() + spans[2].wall());
        let cov = t.coverage("drive");
        assert!(cov > 0.0 && cov < 0.9, "coverage {cov}");
        assert_eq!(t.summary().len(), 3);
    }
}
