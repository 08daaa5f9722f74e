//! Serializable run-report types: what a [`crate::MemoryRecorder`] turns
//! its state into. All maps are `BTreeMap`s and all span
//! children are sorted by first-seen order, so serialization is
//! deterministic for a deterministic run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One aggregated span-tree node: all calls that reached this `name` via
/// the same parent chain, on any thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    pub name: String,
    /// Completed calls.
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub children: Vec<SpanReport>,
}

/// Last-value-wins gauge with observed range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeReport {
    pub last: f64,
    pub min: f64,
    pub max: f64,
    pub count: u64,
}

/// Fixed-bucket latency histogram snapshot (see
/// [`crate::HISTOGRAM_BOUNDS_NS`] for the bucket boundaries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramReport {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// One count per bucket, `HISTOGRAM_BUCKETS` long.
    pub buckets: Vec<u64>,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

impl HistogramReport {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// Everything one recorder saw.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Root spans in first-seen order (one tree per instrumented entry
    /// point; worker threads contribute their own roots).
    pub spans: Vec<SpanReport>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeReport>,
    pub histograms: BTreeMap<String, HistogramReport>,
}

impl TelemetryReport {
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    pub fn from_json(s: &str) -> Result<TelemetryReport, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Depth-first lookup of a span node by name anywhere in the forest.
    pub fn find_span(&self, name: &str) -> Option<&SpanReport> {
        fn walk<'a>(nodes: &'a [SpanReport], name: &str) -> Option<&'a SpanReport> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = walk(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        walk(&self.spans, name)
    }
}
