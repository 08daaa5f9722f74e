//! Tracing from outside the program: a [`SessionBackend`] wrapper that
//! records a span around every call the server makes into a session, and
//! the span arithmetic the per-layer report is built from.

use asqp_db::{DbResult, Query, ResultSet};
use asqp_serve::{RouteDecision, SessionBackend};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The backend calls of one request, in the order the worker makes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Plan,
    AnswerSubset,
    AnswerFull,
    Finish,
}

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Plan => "core.plan",
            Call::AnswerSubset => "core.answer_subset",
            Call::AnswerFull => "core.answer_full",
            Call::Finish => "core.finish",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory, one list per shard. Each shard has one worker, so
/// a shard's list is in request order and its mutex is never contended.
pub struct TraceSink {
    epoch: Instant,
    enabled: AtomicBool,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl TraceSink {
    pub fn new(epoch: Instant, shards: usize) -> TraceSink {
        TraceSink {
            epoch,
            enabled: AtomicBool::new(false),
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        // Relaxed: the flag publishes no data, and it only flips between
        // phases, when no request is in flight.
        self.enabled.load(Ordering::Relaxed)
    }

    fn record(&self, shard: usize, call: Call, start_ns: u64) {
        let end_ns = self.now_ns();
        if let Some(list) = self.shards.get(shard) {
            list.lock().expect("span list poisoned").push(Span {
                call,
                start_ns,
                end_ns,
            });
        }
    }

    /// Take every shard's spans, leaving the sink empty.
    pub fn drain(&self) -> Vec<Vec<Span>> {
        self.shards
            .iter()
            .map(|m| std::mem::take(&mut *m.lock().expect("span list poisoned")))
            .collect()
    }
}

/// Passes every call through to `inner` unchanged; with the sink enabled,
/// records a span around it.
pub struct TracedBackend<B> {
    inner: B,
    sink: Arc<TraceSink>,
    /// Set once the server has placed the tenant.
    shard: AtomicUsize,
}

impl<B> TracedBackend<B> {
    pub fn new(inner: B, sink: Arc<TraceSink>) -> TracedBackend<B> {
        TracedBackend {
            inner,
            sink,
            shard: AtomicUsize::new(0),
        }
    }

    pub fn set_shard(&self, shard: usize) {
        self.shard.store(shard, Ordering::SeqCst);
    }

    fn traced<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.sink.enabled() {
            return f();
        }
        let start = self.sink.now_ns();
        let out = f();
        self.sink
            .record(self.shard.load(Ordering::Relaxed), call, start);
        out
    }
}

impl<B: SessionBackend> SessionBackend for TracedBackend<B> {
    fn plan(&self, q: &Query) -> RouteDecision {
        self.traced(Call::Plan, || self.inner.plan(q))
    }

    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        self.traced(Call::AnswerSubset, || self.inner.answer_subset(q))
    }

    fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        self.traced(Call::AnswerFull, || self.inner.answer_full(q))
    }

    fn finish(&self, q: &Query, decision: &RouteDecision) -> DbResult<()> {
        self.traced(Call::Finish, || self.inner.finish(q, decision))
    }

    fn share_epoch(&self) -> u64 {
        self.inner.share_epoch()
    }

    fn pinned_subset_scan<'a>(
        &'a self,
        q: &'a Query,
    ) -> (u64, Box<dyn FnOnce() -> DbResult<ResultSet> + Send + 'a>) {
        let (epoch, scan) = self.inner.pinned_subset_scan(q);
        (
            epoch,
            Box::new(move || self.traced(Call::AnswerSubset, scan)),
        )
    }
}

/// The spans of one request on its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpans {
    pub plan: Span,
    pub answer: Span,
    pub finish: Span,
}

/// Cut a shard's span list into requests: each starts at a `Plan` span.
/// Requests that did not reach `finish` (a fatal answer) are dropped.
pub fn requests(spans: &[Span]) -> Vec<RequestSpans> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        if spans[i].call != Call::Plan {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < spans.len() && spans[j].call != Call::Plan {
            j += 1;
        }
        let answer = spans[i + 1..j]
            .iter()
            .find(|s| matches!(s.call, Call::AnswerSubset | Call::AnswerFull));
        let finish = spans[i + 1..j].iter().find(|s| s.call == Call::Finish);
        if let (Some(&answer), Some(&finish)) = (answer, finish) {
            out.push(RequestSpans {
                plan: spans[i],
                answer,
                finish,
            });
        }
        i = j;
    }
    out
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (children may overlap each other and stick out).
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(p0, p1), e.clamp(p0, p1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_db::{Database, Schema, Value, ValueType};
    use asqp_serve::MirrorBackend;

    fn tiny_db(n: i64) -> Arc<Database> {
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::build(&[("x", ValueType::Int)]))
            .unwrap();
        for i in 0..n {
            t.push_row(&[Value::Int(i)]).unwrap();
        }
        Arc::new(db)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once; a child sticking out is clipped.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 50), (90, 150)]), 50);
        assert_eq!(self_time_ns((20, 30), &[(0, 100)]), 0);
        assert_eq!(self_time_ns((20, 30), &[(0, 10), (40, 50)]), 10);
    }

    #[test]
    fn span_lists_cut_into_requests_at_plan() {
        let s = |call, start_ns, end_ns| Span {
            call,
            start_ns,
            end_ns,
        };
        let spans = [
            s(Call::Plan, 0, 2),
            s(Call::AnswerSubset, 3, 9),
            s(Call::Finish, 10, 11),
            s(Call::Plan, 20, 21),
            s(Call::AnswerFull, 22, 50), // fatal: no finish
            s(Call::Plan, 60, 61),
            s(Call::AnswerFull, 62, 90),
            s(Call::Finish, 91, 92),
        ];
        let r = requests(&spans);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].answer.call, Call::AnswerSubset);
        assert_eq!(r[0].plan.ns() + r[0].answer.ns() + r[0].finish.ns(), 9);
        assert_eq!(r[1].plan.start_ns, 60);
    }

    #[test]
    fn wrapper_returns_exactly_what_the_backend_returns() {
        let subset = tiny_db(5);
        let full = tiny_db(50);
        let plain = MirrorBackend::new(subset.clone(), full.clone(), 50);
        let sink = Arc::new(TraceSink::new(Instant::now(), 2));
        let traced = TracedBackend::new(MirrorBackend::new(subset, full, 50), sink.clone());
        traced.set_shard(1);
        let queries: Vec<Query> = (0..20)
            .map(|i| asqp_db::sql::parse(&format!("SELECT t.x FROM t WHERE t.x >= {i}")).unwrap())
            .collect();
        for on in [false, true] {
            sink.set_enabled(on);
            for q in &queries {
                let d = traced.plan(q);
                assert_eq!(d.answerable, plain.plan(q).answerable);
                assert_eq!(
                    traced.answer_subset(q).unwrap(),
                    plain.answer_subset(q).unwrap()
                );
                assert_eq!(
                    traced.answer_full(q).unwrap(),
                    plain.answer_full(q).unwrap()
                );
                let (epoch, scan) = traced.pinned_subset_scan(q);
                assert_eq!(epoch, plain.share_epoch());
                assert_eq!(scan().unwrap(), plain.answer_subset(q).unwrap());
                assert!(traced.finish(q, &d).is_ok());
            }
            let spans = sink.drain();
            if on {
                assert!(spans[0].is_empty());
                assert_eq!(spans[1].len(), 5 * queries.len());
                assert!(spans[1].iter().all(|s| s.end_ns >= s.start_ns));
            } else {
                assert!(spans.iter().all(Vec::is_empty));
            }
        }
    }
}
