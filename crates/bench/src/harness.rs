//! A small `std::time::Instant` bench harness (the offline build
//! environment cannot fetch criterion).
//!
//! Each case runs a fixed number of timed samples after one warm-up
//! iteration and reports min / median / mean wall time. Set
//! `CLUSTERED_BENCH_SAMPLES` to trade time for stability, and
//! `CLUSTERED_BENCH_JSON=path.json` to also write the results as a
//! machine-readable document for trend tracking across PRs.

use clustered_stats::Json;
use std::time::{Duration, Instant};

/// Collects timing results for a suite of named closures.
#[derive(Debug)]
pub struct Harness {
    name: String,
    samples: usize,
    results: Vec<CaseResult>,
}

/// Timing summary of one bench case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case label, `group/name` by convention.
    pub name: String,
    /// Timed samples, ascending.
    pub sorted: Vec<Duration>,
}

impl CaseResult {
    /// Fastest sample, or zero for an empty (never-run) case.
    pub fn min(&self) -> Duration {
        self.sorted.first().copied().unwrap_or(Duration::ZERO)
    }

    /// Median sample, or zero for an empty case.
    pub fn median(&self) -> Duration {
        self.sorted.get(self.sorted.len() / 2).copied().unwrap_or(Duration::ZERO)
    }

    /// Mean of all samples, or zero for an empty case.
    pub fn mean(&self) -> Duration {
        match self.sorted.len() {
            0 => Duration::ZERO,
            n => self.sorted.iter().sum::<Duration>() / n as u32,
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

impl Harness {
    /// A harness named `name`, reading the sample count from the
    /// `CLUSTERED_BENCH_SAMPLES` environment variable.
    pub fn from_env(name: &str) -> Harness {
        Harness::from_env_str(name, std::env::var("CLUSTERED_BENCH_SAMPLES").ok().as_deref())
    }

    /// The injectable seam behind [`Harness::from_env`]: `samples` is
    /// the raw `CLUSTERED_BENCH_SAMPLES` value, if set. Tests pass
    /// values here directly — `std::env::set_var` is process-global, so
    /// mutating the real environment races sibling test threads that
    /// read it. The parsed count is clamped to at least 1: a `0` must
    /// not produce empty cases whose summaries would otherwise be
    /// undefined.
    pub fn from_env_str(name: &str, samples: Option<&str>) -> Harness {
        let samples = samples.and_then(|v| v.parse().ok()).map(|n: usize| n.max(1)).unwrap_or(10);
        println!("bench suite `{name}`: {samples} samples per case\n");
        println!("{:<44} {:>12} {:>12} {:>12}", "case", "min", "median", "mean");
        Harness { name: name.to_string(), samples, results: Vec::new() }
    }

    /// Times `f` and prints its row immediately.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        f(); // warm-up: first-touch costs are not what we track
        let mut sorted = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            f();
            sorted.push(t.elapsed());
        }
        self.record(name, sorted);
    }

    /// Times several cases one sample of each in turn, so the slow and
    /// fast phases of a shared host land on every case alike, then
    /// prints one row per case. Use it when the cases' ratio is the
    /// result.
    pub fn bench_interleaved(&mut self, cases: &mut [(&str, &mut dyn FnMut())]) {
        for (_, f) in cases.iter_mut() {
            f(); // warm-up
        }
        let mut samples = vec![Vec::with_capacity(self.samples); cases.len()];
        for _ in 0..self.samples {
            for ((_, f), times) in cases.iter_mut().zip(&mut samples) {
                let t = Instant::now();
                f();
                times.push(t.elapsed());
            }
        }
        for ((name, _), times) in cases.iter().zip(samples) {
            self.record(name, times);
        }
    }

    fn record(&mut self, name: &str, mut sorted: Vec<Duration>) {
        sorted.sort();
        let r = CaseResult { name: name.to_string(), sorted };
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            r.name,
            fmt_duration(r.min()),
            fmt_duration(r.median()),
            fmt_duration(r.mean())
        );
        self.results.push(r);
    }

    /// Completed results so far.
    pub fn results(&self) -> &[CaseResult] {
        &self.results
    }

    /// The whole suite as a JSON document. Alongside the `cases`
    /// array the document carries a `provenance` block (no trace or
    /// config — the suite times host code, so only the code version
    /// and host fingerprint identify a run); `bench-cmp` surfaces it
    /// when comparing two documents.
    pub fn to_json(&self) -> Json {
        let cases: Vec<Json> = self
            .results
            .iter()
            .map(|r| {
                Json::object()
                    .set("name", r.name.as_str())
                    .set("min_ns", r.min().as_nanos() as u64)
                    .set("median_ns", r.median().as_nanos() as u64)
                    .set("mean_ns", r.mean().as_nanos() as u64)
                    .set("samples", r.sorted.len())
            })
            .collect();
        let prov = clustered_stats::Provenance::new(self.name.as_str(), None, 0, "bench-harness");
        Json::object()
            .set("suite", self.name.as_str())
            .set("provenance", prov.to_json())
            .set("cases", Json::Arr(cases))
    }

    /// Writes the JSON document if `CLUSTERED_BENCH_JSON` is set
    /// (creating parent directories; benches run with the crate as
    /// cwd, so fresh relative paths are common); call last.
    pub fn finish(&self) {
        if let Ok(path) = std::env::var("CLUSTERED_BENCH_JSON") {
            if let Some(dir) = std::path::Path::new(&path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&path, self.to_json().to_string_pretty()) {
                Ok(()) => println!("\nwrote {path}"),
                Err(e) => eprintln!("\ncannot write {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = Harness { name: "t".into(), samples: 3, results: Vec::new() };
        let mut n = 0u64;
        h.bench("case", || n = n.wrapping_add(1));
        assert_eq!(n, 4, "warm-up plus three samples");
        let r = &h.results()[0];
        assert_eq!(r.sorted.len(), 3);
        assert!(r.min() <= r.median() && r.median() <= *r.sorted.last().unwrap());
        let j = h.to_json();
        assert_eq!(j.get("suite").and_then(Json::as_str), Some("t"));
        assert_eq!(j.get("cases").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        let prov = j.get("provenance").expect("harness documents carry provenance");
        assert!(clustered_stats::Provenance::from_json(prov).is_some());
    }

    #[test]
    fn interleaved_cases_alternate_sample_by_sample() {
        let mut h = Harness { name: "t".into(), samples: 3, results: Vec::new() };
        let order = std::cell::RefCell::new(Vec::new());
        h.bench_interleaved(&mut [
            ("a", &mut || order.borrow_mut().push('a')),
            ("b", &mut || order.borrow_mut().push('b')),
        ]);
        assert_eq!(order.into_inner().iter().collect::<String>(), "abababab", "warm-ups, then turns");
        let names: Vec<&str> = h.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(h.results().iter().all(|r| r.sorted.len() == 3));
    }

    /// Summaries are total: an empty case reports zeros instead of
    /// panicking on an index or a division by zero.
    #[test]
    fn empty_case_summaries_are_zero() {
        let r = CaseResult { name: "empty".into(), sorted: Vec::new() };
        assert_eq!(r.min(), Duration::ZERO);
        assert_eq!(r.median(), Duration::ZERO);
        assert_eq!(r.mean(), Duration::ZERO);
    }

    /// `CLUSTERED_BENCH_SAMPLES=0` is clamped to one sample, never an
    /// empty run. Exercised through the injectable seam — the test must
    /// not mutate the process-global environment, which other tests'
    /// threads may be reading concurrently.
    #[test]
    fn zero_samples_env_is_clamped() {
        assert_eq!(Harness::from_env_str("clamp", Some("0")).samples, 1);
        assert_eq!(Harness::from_env_str("parse", Some("7")).samples, 7);
        assert_eq!(Harness::from_env_str("garbage", Some("not-a-number")).samples, 10);
        assert_eq!(Harness::from_env_str("unset", None).samples, 10);
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.000 µs");
    }
}
