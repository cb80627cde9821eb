//! Harness-side spans.
//!
//! The program under test has no trace spine yet (ROADMAP item 1), so the
//! harness records a span around each call it makes into a layer's public
//! API. Spans are kept in memory and written once, at exit. With tracing off
//! [`Tracer::span`] only reads the clock, so the untraced run and the traced
//! run execute the same harness code and differ by the bookkeeping alone —
//! that difference is `harness.trace_overhead_frac`.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Statement id (`q5`, `d_q27`) shared by every span of one request.
    pub stmt: Option<&'static str>,
    /// Layer-metric prefix: `tag.build`, `session.execute`, ...
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Counts read at the same boundary (`ExecOutput.stats`, `NetStats`).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// First id this tracer hands out; client threads get disjoint ranges.
    id_base: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open, outermost first.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), id_base: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer for another thread: same clock origin, its own id range.
    /// Fold it back with [`Tracer::absorb`] once the thread has ended.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            id_base: lane * 10_000_000,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Run `f` inside a span and return its result with the seconds it took.
    /// The clock is read either way, so callers use the returned time as the
    /// latency sample whether or not the span is kept.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        stmt: Option<&'static str>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id: self.id_base + index as u32,
            parent,
            stmt,
            name,
            start_us: start * 1e6,
            end_us: start * 1e6,
            counts: Vec::new(),
        });
        self.open.push(index);
        let out = f(self);
        let end = self.epoch.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[index].end_us = end * 1e6;
        (out, end - start)
    }

    /// Attach counts to the span opened last (no-op when tracing is off).
    /// Call it right after a leaf span closes: the counters a call returned
    /// belong to the span around that call.
    pub fn annotate_last(&mut self, counts: &[(&'static str, f64)]) {
        if let Some(span) = self.spans.last_mut() {
            span.counts.extend_from_slice(counts);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by id: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_times_us(&self) -> BTreeMap<u32, f64> {
        let by_id: BTreeMap<u32, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut own: BTreeMap<u32, f64> =
            self.spans.iter().map(|s| (s.id, s.duration_us())).collect();
        for s in &self.spans {
            let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) else { continue };
            let covered = s.end_us.min(parent.end_us) - s.start_us.max(parent.start_us);
            *own.get_mut(&parent.id).expect("parent is a recorded span") -= covered.max(0.0);
        }
        own
    }

    /// Every child span lies inside its parent and carries its statement.
    pub fn check_nesting(&self) -> Result<(), String> {
        let by_id: BTreeMap<u32, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        for s in &self.spans {
            if s.end_us < s.start_us {
                return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
            }
            let Some(pid) = s.parent else { continue };
            let p = by_id.get(&pid).ok_or(format!("span {} has unknown parent {pid}", s.id))?;
            if s.start_us < p.start_us || s.end_us > p.end_us {
                return Err(format!("span {} `{}` leaves its parent `{}`", s.id, s.name, p.name));
            }
            if p.stmt.is_some() && s.stmt != p.stmt {
                return Err(format!("span {} `{}` changes statement id", s.id, s.name));
            }
        }
        Ok(())
    }

    /// Per span name: how many, their total time and their self time.
    pub fn summary(&self) -> Json {
        let own = self.self_times_us();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_us();
            e.2 += own[&s.id];
        }
        Json::Obj(
            by_name
                .into_iter()
                .map(|(name, (count, total, own))| {
                    let fields = [
                        ("count", Json::from(count)),
                        ("total_ms", Json::Num(total / 1e3)),
                        ("self_ms", Json::Num(own / 1e3)),
                    ];
                    (name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The span file: every span with its self time, plus the summary.
    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_times_us();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id as u64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                    ("stmt", s.stmt.map_or(Json::Null, Json::from)),
                    ("name", Json::from(s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("self_us", Json::Num(own[&s.id])),
                    (
                        "counts",
                        Json::Obj(
                            s.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::from("vcsql-benchmark-spans/v1")),
            ("workload", Json::from(workload)),
            ("summary", self.summary()),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn children_nest_and_self_times_add_up() {
        let mut t = Tracer::new(true);
        let (_, secs) = t.span("stmt", Some("q1"), |t| {
            busy(200);
            t.span("session.prepare_hit", Some("q1"), |_| busy(300));
            t.span("session.execute", Some("q1"), |_| busy(500));
            t.annotate_last(&[("rows", 3.0)]);
        });
        assert!(secs >= 0.001);
        t.check_nesting().unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].counts, vec![("rows", 3.0)]);
        let own = t.self_times_us();
        let total: f64 = own.values().sum();
        let wall = spans[0].duration_us();
        assert!((total - wall).abs() <= 0.02 * wall, "self {total} vs wall {wall}");
        assert!(own[&spans[0].id] >= 200.0 && own[&spans[0].id] < wall - 800.0 + 1.0);
        let file = t.to_json("w");
        assert_eq!(file.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (out, secs) = t.span("x", None, |_| {
            busy(100);
            7
        });
        assert_eq!(out, 7);
        assert!(secs >= 0.0001);
        t.annotate_last(&[("n", 1.0)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn forked_lanes_merge_with_disjoint_ids() {
        let mut root = Tracer::new(true);
        root.span("a", None, |_| ());
        let mut lane = root.fork(1);
        lane.span("b", None, |_| ());
        root.absorb(lane);
        let ids: Vec<u32> = root.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 10_000_000]);
        root.check_nesting().unwrap();
    }
}
