//! Tracing from outside: spans recorded by the driver around its own calls
//! into each layer's public functions, counts taken from the public result
//! structs, and kernel times from probes on states sampled from the
//! workload's own trajectories. Everything is kept in memory and written
//! when the run ends.

pub mod ensemble;
pub mod pe;
pub mod probes;
pub mod psa2d;
pub mod sweep;

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One interval of the staged replay.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// One row of the attribution table: a named share of the single-thread
/// campaign wall.
#[derive(Debug, Clone)]
pub struct Attribution {
    pub what: String,
    pub seconds: f64,
    /// `measured` for spans, `computed` for count × probe estimates.
    pub how: &'static str,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    metrics: BTreeMap<String, f64>,
    attribution: Vec<Attribution>,
    notes: Vec<String>,
    /// Time each probe may spend; a fixed share of `--seconds`.
    pub probe_budget: Duration,
}

impl Tracer {
    pub fn new(seconds: f64) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            metrics: BTreeMap::new(),
            attribution: Vec::new(),
            notes: Vec::new(),
            probe_budget: Duration::from_secs_f64((seconds / 60.0).clamp(0.02, 0.5)),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Total duration of every span named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        // An empty float sum is -0.0; report plain zero.
        self.metrics.insert(name.to_string(), value + 0.0);
    }

    /// The metric's value; 0 for a layer that did no work on this workload.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn attribute(&mut self, what: impl Into<String>, seconds: f64, how: &'static str) {
        self.attribution.push(Attribution { what: what.into(), seconds, how });
    }

    /// An attribution row that is one of the run's own metrics.
    pub fn attribute_metric(&mut self, name: &str, how: &'static str) {
        self.attribute(name, self.get(name), how);
    }

    /// Whether one-against-two-thread rows measure scaling here; notes the
    /// omission when the machine has a single core.
    pub fn can_measure_scaling(&mut self) -> bool {
        let two_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
        if !two_cores {
            self.note("exec.par_eff_2t omitted: oversubscribed (nproc < 2)");
        }
        two_cores
    }

    /// Closes the attribution table against the plain single-thread
    /// campaign wall: `trace.attributed_frac`, and the `unattributed` flag
    /// when the named rows explain under 80 % of it.
    pub fn close_attribution(&mut self, campaign_wall_1t_s: f64, replay_wall_s: f64) {
        let explained: f64 = self.attribution.iter().map(|a| a.seconds).sum();
        self.set("trace.campaign_wall_1t_s", campaign_wall_1t_s);
        self.set("trace.attributed_frac", explained / campaign_wall_1t_s);
        self.set("trace.overhead_frac", (replay_wall_s - campaign_wall_1t_s) / campaign_wall_1t_s);
    }

    pub fn print_report(&self) {
        println!("-- per-layer metrics --");
        for spec in crate::spec::PER_LAYER {
            if let Some(v) = self.metrics.get(spec.name) {
                let value = if *v != 0.0 && v.abs() < 1e-3 {
                    format!("{v:>16.6e}")
                } else {
                    format!("{v:>16.6}")
                };
                println!("{:<38} {value} {:<6} ({} is better)", spec.name, spec.unit, spec.better);
            }
        }
        let wall = self.get("trace.campaign_wall_1t_s");
        if wall > 0.0 {
            println!("-- attribution against the threads = 1 campaign wall ({wall:.4} s) --");
            for a in &self.attribution {
                println!(
                    "{:<44} {:>10.4} s {:>6.1} %  {}",
                    a.what,
                    a.seconds,
                    100.0 * a.seconds / wall,
                    a.how
                );
            }
            let frac = self.get("trace.attributed_frac");
            println!(
                "{:<44} {:>10.4} s {:>6.1} %{}",
                "explained by the rows above",
                frac * wall,
                100.0 * frac,
                if frac < 0.8 { "  unattributed: the named layers explain < 80 %" } else { "" }
            );
        }
        for note in &self.notes {
            println!("note: {note}");
        }
    }

    pub fn spans_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::str(s.name.as_str())),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("start_s", s.start_s.into()),
                        ("end_s", s.end_s.into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::new(1.0);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        assert!(t.span_s("inner") >= 0.025 && t.span_s("outer") >= t.span_s("inner"));
        assert_eq!((t.spans[1].parent, t.spans[2].parent), (Some(0), Some(0)));
        assert_eq!(t.get("never.set"), 0.0);
        t.set("empty.sum", [0.0f64; 0].iter().sum());
        assert!(t.get("empty.sum").is_sign_positive());
    }
}
