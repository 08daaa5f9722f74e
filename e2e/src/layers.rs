//! Per-layer numbers of the traced run: the request decomposition from
//! the benchmark's own spans, and what the program's existing telemetry
//! (`db.*`, `rl.*`, `nn.*`, `preprocess.*`) already reports.

use crate::load::Outcome;
use crate::traced::{self, Call, RequestSpans, Span};
use asqp_telemetry::{SpanReport, TelemetryReport};

/// Calls and total time of every span named `name`, wherever it sits in
/// the forest (worker threads root their own trees).
pub fn span_total(report: &TelemetryReport, name: &str) -> (u64, f64) {
    fn walk(nodes: &[SpanReport], name: &str, acc: &mut (u64, f64)) {
        for n in nodes {
            if n.name == name {
                acc.0 += n.count;
                acc.1 += n.total_ns as f64 / 1e9;
            }
            walk(&n.children, name, acc);
        }
    }
    let mut acc = (0, 0.0);
    walk(&report.spans, name, &mut acc);
    acc
}

pub fn span_mean_us(report: &TelemetryReport, name: &str) -> f64 {
    let (count, secs) = span_total(report, name);
    if count == 0 {
        0.0
    } else {
        secs * 1e6 / count as f64
    }
}

pub fn counter(report: &TelemetryReport, name: &str) -> f64 {
    report.counters.get(name).copied().unwrap_or(0) as f64
}

pub fn histogram_sum_s(report: &TelemetryReport, name: &str) -> f64 {
    report
        .histograms
        .get(name)
        .map_or(0.0, |h| h.sum_ns as f64 / 1e9)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Where one open-loop request's latency went (µs). The named parts plus
/// `gaps` add up to `latency` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parts {
    /// Due → sent: how late the generator ran.
    pub late: f64,
    /// Sent → first backend call.
    pub queue_wait: f64,
    pub route: f64,
    pub answer: f64,
    pub finish: f64,
    /// Last backend call → seen by the collector.
    pub reply: f64,
    /// Worker time between the backend calls (batcher, counters): the part
    /// no span owns.
    pub gaps: f64,
    pub latency: f64,
    pub subset: bool,
}

impl Parts {
    pub fn of(o: &Outcome, r: &RequestSpans) -> Parts {
        let us = |ns: u64| ns as f64 / 1e3;
        let backend = [r.plan, r.answer, r.finish].map(|s| (s.start_ns, s.end_ns));
        // Self time of the request: sent → seen, minus the backend calls.
        let outside = traced::self_time_ns((o.submit_ns, o.done_ns), &backend);
        let queue_wait = r.plan.start_ns.saturating_sub(o.submit_ns);
        let reply = o.done_ns.saturating_sub(r.finish.end_ns);
        Parts {
            late: us(o.submit_ns - o.due_ns),
            queue_wait: us(queue_wait),
            route: us(r.plan.ns()),
            answer: us(r.answer.ns()),
            finish: us(r.finish.ns()),
            reply: us(reply),
            gaps: us(outside.saturating_sub(queue_wait + reply)),
            latency: us(o.done_ns - o.due_ns),
            subset: r.answer.call == Call::AnswerSubset,
        }
    }

    /// Server overhead: everything between sent and seen that is neither
    /// waiting in the queue nor a backend call.
    pub fn overhead(&self) -> f64 {
        self.reply + self.gaps
    }

    pub fn service(&self) -> f64 {
        self.route + self.answer + self.finish
    }
}

/// Pair one shard's resolved outcomes (in the order they were sent) with
/// its spans. `None` when the counts disagree.
pub fn decompose(sent: &[&Outcome], spans: &[Span]) -> Option<Vec<Parts>> {
    let requests = traced::requests(spans);
    (requests.len() == sent.len()).then(|| {
        sent.iter()
            .zip(&requests)
            .map(|(o, r)| Parts::of(o, r))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_add_up_to_the_latency() {
        let s = |call, start_ns, end_ns| Span {
            call,
            start_ns,
            end_ns,
        };
        let o = Outcome {
            idx: 0,
            due_ns: 1_000,
            submit_ns: 3_000,
            done_ns: 40_000,
            served: None,
        };
        let spans = [
            s(Call::Plan, 10_000, 12_000),
            s(Call::AnswerFull, 13_000, 30_000),
            s(Call::Finish, 31_000, 32_000),
        ];
        let parts = decompose(&[&o], &spans).unwrap();
        let p = parts[0];
        assert_eq!(p.late, 2.0);
        assert_eq!(p.queue_wait, 7.0);
        assert_eq!((p.route, p.answer, p.finish), (2.0, 17.0, 1.0));
        assert_eq!(p.reply, 8.0);
        assert_eq!(p.gaps, 2.0);
        assert_eq!(p.latency, 39.0);
        assert!(!p.subset);
        let sum = p.late + p.queue_wait + p.route + p.answer + p.finish + p.reply + p.gaps;
        assert_eq!(sum, p.latency);
        assert_eq!(p.overhead(), 10.0);
        assert!(decompose(&[&o, &o], &spans).is_none());
    }

    #[test]
    fn span_totals_sum_across_the_forest() {
        let leaf = |name: &str, count, total_ns| SpanReport {
            name: name.into(),
            count,
            total_ns,
            min_ns: 0,
            max_ns: 0,
            children: vec![],
        };
        let mut root = leaf("db.execute", 2, 10_000);
        root.children = vec![leaf("db.exec.scan", 2, 4_000)];
        let report = TelemetryReport {
            spans: vec![root, leaf("db.exec.scan", 1, 2_000)],
            ..TelemetryReport::default()
        };
        assert_eq!(span_total(&report, "db.exec.scan"), (3, 6e-6));
        assert_eq!(span_mean_us(&report, "db.exec.scan"), 2.0);
        assert_eq!(span_mean_us(&report, "absent"), 0.0);
    }
}
