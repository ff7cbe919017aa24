//! Host timing around calls into the program's layers.
//!
//! Every timed call goes through [`Tracer::time`] (or a
//! [`Tracer::begin`]/[`Tracer::end`] pair), which always returns the
//! call's host duration: the end-to-end metrics are built from those. With
//! tracing on, each call additionally leaves a [`Span`] in memory — name,
//! episode, start, end and the enclosing span — and [`Tracer::to_json`]
//! serialises them when the run ends. The per-layer metrics are read from
//! the spans of a traced run.

use noc_exp::json::Json;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The episode (one full generate-simulate-check pass) it belongs to.
    pub episode: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A span in progress.
#[must_use = "a begun span must be ended"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    episode: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            episode: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Record spans from now on (`true`) or only measure (`false`).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with `episode`.
    pub fn set_episode(&mut self, episode: usize) {
        self.episode = episode;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.enabled.then(|| {
            let at = self.origin.elapsed();
            self.spans.push(Span {
                name,
                episode: self.episode,
                parent: self.stack.last().copied(),
                start: at,
                end: at,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        Open {
            start: Instant::now(),
            index,
        }
    }

    /// Close `open` and return its host duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let took = open.start.elapsed();
        if let Some(index) = open.index {
            self.spans[index].end = self.origin.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close innermost first");
        }
        took
    }

    /// Run `f` inside a span named `name`; returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name);
        let out = f();
        let took = self.end(open);
        (out, took)
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per traced episode, the summed duration (s) of spans named `name`.
    pub fn per_episode_totals(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some((ep, t)) if *ep == s.episode => *t += s.secs(),
                _ => totals.push((s.episode, s.secs())),
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// The spans as JSON, with each span's self time (its duration minus
    /// the time covered by its direct children).
    pub fn to_json(&self) -> Json {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let micros = |d: Duration| d.as_secs_f64() * 1e6;
        Json::Array(
            self.spans
                .iter()
                .zip(&child_time)
                .map(|(s, &children)| {
                    Json::obj()
                        .with("name", s.name)
                        .with("episode", s.episode)
                        .with("parent", s.parent)
                        .with("start_us", micros(s.start))
                        .with("end_us", micros(s.end))
                        .with(
                            "self_us",
                            micros((s.end - s.start).saturating_sub(children)),
                        )
                })
                .collect(),
        )
    }
}

/// Median of `xs` (0 for an empty list).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation (0 for an empty list).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_only_record_when_enabled() {
        let mut t = Tracer::new();
        let _ = t.time("off", || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let outer = t.begin("outer");
        let _ = t.time("inner", || ());
        let _ = t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.per_episode_totals("inner").len(), 1);
    }
}
