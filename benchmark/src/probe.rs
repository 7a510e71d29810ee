//! The bench-side wrapping connector: times every `Connector::execute` call
//! with nanosecond resolution from outside the program, and delegates
//! everything else untouched.

use crate::steal;
use snb_core::SnbResult;
use snb_driver::connector::{OpOutcome, PartialOutcome};
use snb_driver::{Connector, OpKind, Operation};
use snb_obs::trace::{self, NameId};
use snb_obs::HistogramSnapshot;
use snb_queries::sharded;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Operation classes the benchmark reports latency for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Complex,
    Short,
    Update,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Complex, Class::Short, Class::Update];

    pub fn name(self) -> &'static str {
        match self {
            Class::Complex => "complex",
            Class::Short => "short",
            Class::Update => "update",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: OpKind,
    /// Whether a sharded router fans this read out to every shard
    /// (`snb_queries::sharded::scatters` / `scatters_short`).
    pub scatters: bool,
    pub nanos: u64,
    /// When the call returned, on the [`steal::ns_at`] clock.
    pub end_ns: u64,
}

impl Sample {
    pub fn class(&self) -> Class {
        match self.kind {
            OpKind::Complex(_) => Class::Complex,
            OpKind::Short(_) => Class::Short,
            OpKind::Update(_) => Class::Update,
        }
    }
}

/// Per-thread sample buffers. Each calling thread claims its own slot on
/// first use, so the partitions never contend on one lock and the slot
/// sums are per-partition execute times.
const SLOTS: usize = 64;

static PROBE_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(probe id, slot)` this thread claimed last.
    static CLAIM: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

static SPAN_EXECUTE: NameId = NameId::new("bench.execute");

/// Wraps a connector and records a [`Sample`] per `execute`.
pub struct Probe<'a> {
    inner: &'a dyn Connector,
    id: u64,
    next_slot: AtomicUsize,
    slots: Vec<Mutex<Vec<Sample>>>,
}

impl<'a> Probe<'a> {
    pub fn new(inner: &'a dyn Connector) -> Probe<'a> {
        Probe {
            inner,
            id: PROBE_IDS.fetch_add(1, Ordering::Relaxed),
            next_slot: AtomicUsize::new(0),
            slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn slot(&self) -> &Mutex<Vec<Sample>> {
        let slot = CLAIM.with(|claim| {
            let (id, slot) = claim.get();
            if id == self.id {
                return slot;
            }
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) % SLOTS;
            claim.set((self.id, slot));
            slot
        });
        &self.slots[slot]
    }

    /// The samples, one vector per calling thread that made any call.
    pub fn into_samples(self) -> Vec<Vec<Sample>> {
        self.slots
            .into_iter()
            .map(|m| m.into_inner().expect("a probe thread panicked while recording"))
            .filter(|v| !v.is_empty())
            .collect()
    }
}

fn scatters(op: &Operation) -> bool {
    match op {
        Operation::Complex(q) => sharded::scatters(q),
        Operation::Short(s) => sharded::scatters_short(s),
        Operation::Update(_) => false,
    }
}

impl Connector for Probe<'_> {
    fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
        let _span = trace::span(&SPAN_EXECUTE);
        let t0 = Instant::now();
        let outcome = self.inner.execute(op);
        let end = Instant::now();
        let nanos = end.duration_since(t0).as_nanos() as u64;
        if outcome.is_ok() {
            let end_ns = steal::ns_at(end);
            let sample = Sample { kind: op.kind(), scatters: scatters(op), nanos, end_ns };
            self.slot().lock().expect("probe slot poisoned").push(sample);
        }
        outcome
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.inner.counters()
    }

    fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner.histograms()
    }

    fn execute_partial(&self, op: &Operation) -> SnbResult<PartialOutcome> {
        self.inner.execute_partial(op)
    }

    fn gct_horizon(&self) -> i64 {
        self.inner.gct_horizon()
    }
}
