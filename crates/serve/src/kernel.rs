//! The discrete-event kernel both simulators run on: a virtual clock, one
//! strictly `(time, tie)`-ordered event heap, and per-shard pools of a
//! FIFO admission queue plus an idle-worker set. A [`Scenario`] supplies
//! the arrivals and what admitting, rejecting and serving one means, so a
//! run is a pure function of its configuration.

use crate::fault::{splitmix64, FaultPlan};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// What happens to the jobs the kernel schedules.
pub(crate) trait Scenario {
    /// One arriving request. Never decides an ordering: `(time, tie)` is
    /// unique per event.
    type Job: Ord;
    /// The shard pool `job` queues on.
    fn place(&mut self, _job: &Self::Job, _now: u64) -> usize {
        0
    }
    fn admit(&mut self, job: &Self::Job, now: u64);
    /// The pool's queue was at depth.
    fn reject(&mut self, job: Self::Job, now: u64);
    /// A worker picks up `job` at `now`; returns when it is free again.
    fn serve(&mut self, job: Self::Job, admitted_ns: u64, now: u64) -> u64;
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event<J> {
    Arrival(J),
    WorkerFree { shard: usize, worker: usize },
}

struct Pool<J> {
    /// Admitted jobs with their admission times.
    queue: VecDeque<(J, u64)>,
    idle: BTreeSet<usize>,
}

/// Replay `arrivals` (`(time, job)`, in tie-break order) through
/// `shards × workers` workers (each clamped to ≥ 1) behind per-shard
/// queues of `queue_depth`. Workers start idle at `t = 0`, except that the
/// fault plan's stalled worker (global index `shard * workers + local`)
/// starts when its stall ends.
pub(crate) fn run<S: Scenario>(
    scenario: &mut S,
    shards: usize,
    workers: usize,
    queue_depth: usize,
    faults: &FaultPlan,
    arrivals: impl IntoIterator<Item = (u64, S::Job)>,
) {
    let (shards, workers) = (shards.max(1), workers.max(1));
    let mut heap = BinaryHeap::new();
    let mut tie = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, at: u64, event: Event<S::Job>| {
        heap.push(Reverse((at, tie, event)));
        tie += 1;
    };
    for (at, job) in arrivals {
        push(&mut heap, at, Event::Arrival(job));
    }
    // Stall ends are pushed after every arrival, so an arrival at the
    // same instant is handled first.
    let mut pools: Vec<Pool<S::Job>> = Vec::with_capacity(shards);
    for shard in 0..shards {
        let mut idle = BTreeSet::new();
        for worker in 0..workers {
            match faults.worker_stall(shard * workers + worker) {
                Some(stall) => push(&mut heap, stall, Event::WorkerFree { shard, worker }),
                None => {
                    idle.insert(worker);
                }
            }
        }
        pools.push(Pool {
            queue: VecDeque::new(),
            idle,
        });
    }

    while let Some(Reverse((now, _, event))) = heap.pop() {
        let (shard, worker) = match event {
            Event::Arrival(job) => {
                let shard = scenario.place(&job, now);
                let pool = pools.get_mut(shard).filter(|p| p.queue.len() < queue_depth);
                let Some(pool) = pool else {
                    scenario.reject(job, now);
                    continue;
                };
                scenario.admit(&job, now);
                pool.queue.push_back((job, now));
                // An idle worker means the queue was empty: it takes this
                // job at once.
                match pool.idle.pop_first() {
                    Some(worker) => (shard, worker),
                    None => continue,
                }
            }
            Event::WorkerFree { shard, worker } => (shard, worker),
        };
        let Some(pool) = pools.get_mut(shard) else {
            continue;
        };
        match pool.queue.pop_front() {
            Some((job, admitted_ns)) => {
                let done = scenario.serve(job, admitted_ns, now);
                push(&mut heap, done, Event::WorkerFree { shard, worker });
            }
            None => {
                pool.idle.insert(worker);
            }
        }
    }
}

/// Per-request deadline from admission: a base attempt (20 µs injected
/// latency + [`FULL_SERVICE_NS`]) fits comfortably, but a 400 µs spike or
/// an error + backoff cycle blows it, so chaos runs exercise the degrade
/// path.
pub(crate) const DEADLINE_NS: u64 = 300_000;
/// Virtual cost of a subset (or degraded) answer.
pub(crate) const SUBSET_SERVICE_NS: u64 = 15_000;
/// Virtual cost of a successful full-database execution, after the
/// injected latency.
pub(crate) const FULL_SERVICE_NS: u64 = 60_000;

/// A request's virtual clock: `now`, and the deadline it runs against.
pub(crate) struct Clock {
    pub now: u64,
    deadline: u64,
}

impl Clock {
    /// A worker picks the request up at `now`; the [`DEADLINE_NS`] counts
    /// from its admission.
    pub fn start(admitted_ns: u64, now: u64) -> Clock {
        let deadline = admitted_ns.saturating_add(DEADLINE_NS);
        Clock { now, deadline }
    }

    pub fn remaining_ns(&self) -> u64 {
        self.deadline.saturating_sub(self.now)
    }
}

/// Pure routing rule: `pct` percent of hashes take the subset route.
pub(crate) fn pct(h: u64, pct: u8) -> bool {
    h % 100 < pct as u64
}

/// Deterministic pseudo row count of a simulated answer.
pub(crate) fn sim_rows(seed: u64, request: u64) -> usize {
    (splitmix64(seed ^ request.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 50) as usize
}
