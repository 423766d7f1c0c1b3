//! Timing wrappers installed only by the traced run.
//!
//! Each wrapper sits on a public trait object of the checker — the
//! [`Reducer`], the [`Property`]s and the telemetry [`Recorder`] — and
//! times every delegated call from outside. The untraced run installs
//! none of them, so its exploration stays on the checker's zero-cost
//! path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cxl_core::{RuleId, Ruleset, SystemState};
use cxl_mc::{
    FlightEvent, FlightKind, LevelRecord, PhaseNanos, Property, PropertyOutcome, Recorder, Reducer,
    Reduction, ReductionStats, RunSummary,
};

/// Counter slots: one cache line per worker thread, so the pool's
/// threads never contend on a shared line.
const SLOTS: usize = 8;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

fn slot_index() -> usize {
    SLOT.with(|s| *s)
}

// Plain statistics: `Relaxed` is enough, the totals are read only after
// the exploration (and its scoped worker threads) returned.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    calls: AtomicU64,
    nanos: AtomicU64,
    hits: AtomicU64,
}

/// Call count, busy nanoseconds and "useful outcome" count of one layer
/// entry point, summed over threads.
#[derive(Debug, Default)]
pub struct Tally {
    slots: [Slot; SLOTS],
}

/// A [`Tally`]'s totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub nanos: u64,
    pub hits: u64,
}

impl Totals {
    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.nanos, self.calls)
    }

    /// Share of calls with a useful outcome (0 without calls).
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.calls)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Tally {
    fn add(&self, started: Instant, hit: bool) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = &self.slots[slot_index()];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.nanos.fetch_add(nanos, Ordering::Relaxed);
        if hit {
            slot.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn totals(&self) -> Totals {
        self.slots.iter().fold(Totals::default(), |t, s| Totals {
            calls: t.calls + s.calls.load(Ordering::Relaxed),
            nanos: t.nanos + s.nanos.load(Ordering::Relaxed),
            hits: t.hits + s.hits.load(Ordering::Relaxed),
        })
    }
}

/// A [`Reducer`] that delegates to a [`Reduction`] and times
/// `canonicalize` (hit = the bytes changed) and `ample_step` (hit = a
/// singleton ample set was elected).
#[derive(Debug)]
pub struct TimedReducer {
    inner: Arc<Reduction>,
    pub canon: Tally,
    pub ample: Tally,
}

impl TimedReducer {
    pub fn new(inner: Arc<Reduction>) -> Self {
        TimedReducer {
            inner,
            canon: Tally::default(),
            ample: Tally::default(),
        }
    }
}

impl Reducer for TimedReducer {
    fn wants_peer_variants(&self) -> bool {
        self.inner.wants_peer_variants()
    }

    fn ample_step(
        &self,
        rules: &Ruleset,
        state: &SystemState,
        scratch: &mut SystemState,
    ) -> Option<RuleId> {
        let t = Instant::now();
        let out = self.inner.ample_step(rules, state, scratch);
        self.ample.add(t, out.is_some());
        out
    }

    fn canonicalize(&self, bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) -> bool {
        let t = Instant::now();
        let changed = self.inner.canonicalize(bytes, scratch);
        self.canon.add(t, changed);
        changed
    }

    fn orbit_size(&self, bytes: &[u8]) -> u64 {
        self.inner.orbit_size(bytes)
    }

    fn stats(&self) -> ReductionStats {
        self.inner.stats()
    }

    fn restore_stats(&self, stats: ReductionStats) {
        self.inner.restore_stats(stats);
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// A [`Property`] that times every check of the wrapped property (hit =
/// the property held).
pub struct TimedProperty<P> {
    inner: P,
    pub tally: Tally,
}

impl<P: Property> TimedProperty<P> {
    pub fn new(inner: P) -> Self {
        TimedProperty {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<P: Property> Property for TimedProperty<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check(&self, s: &SystemState) -> PropertyOutcome {
        let t = Instant::now();
        let out = self.inner.check(s);
        self.tally.add(t, matches!(out, PropertyOutcome::Holds));
        out
    }
}

/// A telemetry [`Recorder`] that sums the checker's per-level phase
/// spans and counts levels and checkpoint writes.
#[derive(Debug, Default)]
pub struct PhaseRecorder {
    phases: Mutex<PhaseNanos>,
    levels: AtomicU64,
    checkpoint_writes: AtomicU64,
}

impl PhaseRecorder {
    pub fn phases(&self) -> PhaseNanos {
        *self
            .phases
            .lock()
            .expect("recorder lock poisoned by a panicking level commit")
    }

    pub fn levels(&self) -> u64 {
        self.levels.load(Ordering::Relaxed)
    }

    pub fn checkpoint_writes(&self) -> u64 {
        self.checkpoint_writes.load(Ordering::Relaxed)
    }
}

impl Recorder for PhaseRecorder {
    fn record_level(&self, record: &LevelRecord) {
        self.levels.fetch_add(1, Ordering::Relaxed);
        self.phases
            .lock()
            .expect("recorder lock poisoned by a panicking level commit")
            .accumulate(&record.phases);
    }

    fn record_event(&self, event: &FlightEvent) {
        if event.kind == FlightKind::CheckpointWrite {
            self.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn finish(&self, _summary: &RunSummary) {}
}

/// Nanoseconds as seconds.
pub fn secs(nanos: u64) -> f64 {
    Duration::from_nanos(nanos).as_secs_f64()
}
