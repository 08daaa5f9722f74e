//! The server under test and the in-process load generators.

use crate::fixture::Group;
use crate::trace::Req;
use crate::traced::{TraceSink, TracedBackend};
use crate::verify::digest;
use asqp_core::CowSession;
use asqp_db::Query;
use asqp_serve::{FaultPlan, MtConfig, MtServer, RetryPolicy, ServedSource, Ticket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TENANTS: u64 = 48;
/// Untimed queries per group before the first timed phase.
const WARM_QUERIES: usize = 20;

/// The query pool of each group, indexed by `Req::group`.
pub type Pools<'a> = Vec<&'a [Query]>;

type Backend = Arc<TracedBackend<CowSession>>;

pub struct Harness {
    pub server: MtServer<Backend>,
    pub sink: Arc<TraceSink>,
    pub shards: usize,
    tenant_shard: Vec<usize>,
}

/// What the server returned for one request.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub source: ServedSource,
    pub digest: u64,
    pub rows: usize,
}

/// One request as the load generator saw it (times in ns from the epoch).
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Position in the trace.
    pub idx: usize,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_ns: u64,
    pub submit_ns: u64,
    pub done_ns: u64,
    /// `None`: refused at admission or failed.
    pub served: Option<Served>,
}

impl Outcome {
    /// Open-loop latency is measured from the due time, so a stall charges
    /// the requests it delays.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Harness {
    /// Start the server and register 48 tenants, tenant `t` a COW view in
    /// group `t % groups` over that group's base session.
    pub fn start(groups: &[Group], epoch: Instant) -> Harness {
        let shards = nproc().saturating_sub(1).max(1);
        let config = MtConfig {
            shards,
            workers_per_shard: 1,
            // Deep enough that an open-loop burst behind a slow answer
            // waits (and is charged the wait) instead of being refused.
            queue_depth: 4096,
            deadline_ns: 0,
            retry: RetryPolicy::default(),
            faults: FaultPlan::disabled(),
        };
        let server = MtServer::start(config);
        let sink = Arc::new(TraceSink::new(epoch, shards));
        let mut tenant_shard = Vec::new();
        for t in 0..TENANTS {
            let group = &groups[t as usize % groups.len()];
            let view = CowSession::new(Arc::clone(&group.base), group.base.config.clone());
            let backend = Arc::new(TracedBackend::new(view, Arc::clone(&sink)));
            let shard = server.register_tenant(t, t % groups.len() as u64, Arc::clone(&backend));
            backend.set_shard(shard);
            tenant_shard.push(shard);
        }
        Harness {
            server,
            sink,
            shards,
            tenant_shard,
        }
    }

    pub fn shard_of(&self, tenant: u64) -> usize {
        self.tenant_shard[tenant as usize]
    }

    /// Let caches fill: the head of each group's pool, untimed.
    pub fn warm(&self, pools: &Pools, active_groups: &[u8]) {
        for &g in active_groups {
            let pool = pools[g as usize];
            for (i, query) in pool.iter().take(WARM_QUERIES).enumerate() {
                let tenant = g as u64 + (i as u64 % 4) * pools.len() as u64;
                self.server
                    .query_blocking(tenant, query.clone())
                    .expect("warm-up query");
            }
        }
    }
}

const SPIN_NS: u64 = 200_000;

fn wait_until(sink: &TraceSink, due_ns: u64) {
    loop {
        let now = sink.now_ns();
        if now >= due_ns {
            return;
        }
        // Sleep most of the gap and spin the last stretch: spinning all of
        // it would take a core from the worker and the collector.
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: this thread sends request `i` at `due[i]` whatever the
/// server is doing; one collector per shard waits on the tickets in the
/// order they were sent (exact, because a shard has one worker). Returns
/// the outcomes in trace order.
pub fn open_loop(h: &Harness, trace: &[Req], due: &[u64], pools: &Pools) -> Vec<Outcome> {
    let sink = &*h.sink;
    let start = sink.now_ns() + 2_000_000;
    let mut outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let mut senders = Vec::new();
        let mut collectors = Vec::new();
        for _ in 0..h.shards {
            let (tx, rx) = mpsc::channel::<(Outcome, Ticket)>();
            senders.push(tx);
            collectors.push(s.spawn(move || {
                let mut seen = Vec::new();
                for (mut o, ticket) in rx {
                    o.served = resolve_timed(sink, ticket, &mut o.done_ns);
                    seen.push(o);
                }
                seen
            }));
        }
        let mut refused = Vec::new();
        for (idx, (req, &offset)) in trace.iter().zip(due).enumerate() {
            let query = pools[req.group as usize][req.query as usize].clone();
            let due_ns = start + offset;
            wait_until(sink, due_ns);
            let submit_ns = sink.now_ns();
            let o = Outcome {
                idx,
                due_ns,
                submit_ns,
                done_ns: submit_ns,
                served: None,
            };
            match h.server.submit(req.tenant, query) {
                Ok(ticket) => senders[h.shard_of(req.tenant)]
                    .send((o, ticket))
                    .expect("collector alive"),
                Err(_) => refused.push(o),
            }
        }
        drop(senders);
        for c in collectors {
            refused.extend(c.join().expect("collector panicked"));
        }
        refused
    });
    outcomes.sort_by_key(|o| o.idx);
    outcomes
}

/// Wait for the answer; the completion time is taken before the digest so
/// that checking the result is not charged to the request.
fn resolve_timed(sink: &TraceSink, ticket: Ticket, done_ns: &mut u64) -> Option<Served> {
    let result = ticket.wait();
    *done_ns = sink.now_ns();
    result.ok().map(|a| Served {
        source: a.source,
        digest: digest(&a.rows),
        rows: a.rows.rows.len(),
    })
}

/// Closed loop: each of `clients` threads sends its next request when the
/// previous one has completed, for `secs` seconds, walking the trace
/// together. Returns the phase start and the outcomes by completion time.
pub fn closed_loop(
    h: &Harness,
    trace: &[Req],
    pools: &Pools,
    clients: usize,
    secs: f64,
) -> (u64, Vec<Outcome>) {
    let sink = &*h.sink;
    let next = AtomicUsize::new(0);
    let start = sink.now_ns();
    let deadline = start + (secs * 1e9) as u64;
    let mut outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out positions.
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let req = trace[idx % trace.len()];
                        let query = pools[req.group as usize][req.query as usize].clone();
                        let submit_ns = sink.now_ns();
                        if submit_ns >= deadline {
                            return seen;
                        }
                        let mut o = Outcome {
                            idx,
                            due_ns: submit_ns,
                            submit_ns,
                            done_ns: submit_ns,
                            served: None,
                        };
                        if let Ok(ticket) = h.server.submit(req.tenant, query) {
                            o.served = resolve_timed(sink, ticket, &mut o.done_ns);
                        }
                        seen.push(o);
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.done_ns);
    (start, outcomes)
}
