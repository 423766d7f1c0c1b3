//! The explicit-state model checker.
//!
//! The paper explores its transition system inside Isabelle via the
//! `value` command with manual pruning (§5); here a breadth-first
//! enumeration with hashed state deduplication plays that role, made
//! exhaustive rather than semi-automatic. For bounded device programs the
//! model is finite-state (the invariant guarantees singleton channels), so
//! exhaustive exploration decides SWMR for every bounded configuration.
//!
//! ## The hot path
//!
//! Exploration throughput — and, for N ≥ 3 topologies, exploration
//! *memory* — is the binding constraint on how large a grid the
//! reproduction can decide, so the pipeline separates the canonical store
//! from the working representation:
//!
//! - **Packed state arena** — reached states live as
//!   [`cxl_core::StateCodec`] byte encodings in a [`cxl_core::StateArena`]
//!   (one contiguous buffer + offset table), tens of bytes per state
//!   instead of a heap `SystemState` behind an `Arc`. States are decoded
//!   on demand: once per expansion, per property check, and per
//!   counterexample-trace step.
//! - **Fingerprinted dedup over bytes** — every generated successor is
//!   encoded once into a reused scratch buffer and fingerprinted from its
//!   packed bytes; the visited index ([`cxl_core::FpIndex`]) maps
//!   fingerprints to arena slots, and the collision fallback is *byte*
//!   equality against the arena (the codec is deterministic, so byte
//!   equality is state equality). Only survivors are copied into the
//!   arena.
//! - **Scratch-state rule firing** — successors are generated by
//!   [`cxl_core::Ruleset::for_each_enabled`], which fires each enabled
//!   rule **into a reused scratch state** (`clone_from`, not
//!   clone-new). Together with the packed dedup path this makes
//!   generating a duplicate successor fully allocation-free.
//! - **No terminal rescan** — per-state successor counts are recorded
//!   during forward expansion, so terminal states (and deadlocks) fall out
//!   of the BFS itself.
//! - **One driver, shard-owned storage** — every search runs the same
//!   level loop over a store of S shards (one per worker thread unless
//!   [`CheckOptions::shards`] says otherwise), each owning a private
//!   [`cxl_core::FpIndex`] + arena segment. Every successor is routed to
//!   its owning shard ([`cxl_core::shard_of`], high fingerprint bits)
//!   and deduped *inside* that shard. Equal states always carry equal
//!   bytes, hence equal fingerprints, hence the same owner: cross-shard
//!   duplicates are impossible. Wide levels fan expansion, dedup and
//!   property checks out over a persistent worker pool (workers live
//!   for the whole search inside one [`std::thread::scope`]; shard
//!   state moves wholesale through the job queue, so insertion is
//!   lock-free single-owner mutation). Narrow levels and single-threaded
//!   runs expand and merge in one fused pass on the calling thread. A
//!   BFS-level commit barrier assigns global ids in (frontier order ×
//!   successor order) discovery order whatever S and the thread count,
//!   so reports, traces, checkpoints, and the returned arena are
//!   bit-identical across both. With one shard the store keeps no
//!   directory: global ids are slots of the lone segment.
//!
//! A [`CheckOptions::mem_budget`] bounds the packed store: when the arena
//! outgrows it the search truncates cleanly (like `max_states`) instead
//! of dying on allocation — the guard rail for 4-device grid sweeps.
//!
//! The pre-optimisation algorithm survives as
//! [`ModelChecker::explore_naive`], the oracle for the differential tests
//! that pin the optimized pipeline to bit-identical exploration results.

use crate::checkpoint::{
    options_fingerprint, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSource,
};
use crate::property::Property;
use crate::report::{
    Deadlock, DegradationAction, DegradationStep, Footprint, Quarantine, ReductionSummary, Report,
    Step, Trace, Violation,
};
use cxl_core::{
    shard_of, EntryCursor, FpIndex, RuleId, Ruleset, StateArena, StateCodec, SystemState,
};
use cxl_reduce::{Reducer, ReductionStats};
use cxl_telemetry::{
    FlightEvent, FlightKind, FlightRing, LevelRecord, Phase, PhaseClock, PhaseNanos,
    ReductionDelta, RunSummary, ShardLevelStats,
};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A pruning predicate: states for which it returns `true` are recorded
/// but not expanded. This reproduces the paper's §5 practice of "manually
/// prun\[ing\] the tree of possible paths by adding extra predicates, in
/// order to guide Isabelle towards a solution".
pub type Prune = Arc<dyn Fn(&SystemState) -> bool + Send + Sync>;

/// Exploration options.
#[derive(Clone)]
pub struct CheckOptions {
    /// Stop after this many distinct states (the exploration is then
    /// marked truncated).
    pub max_states: usize,
    /// Stop after this BFS depth, if set.
    pub max_depth: Option<usize>,
    /// Stop after collecting this many property violations.
    pub max_violations: usize,
    /// Worker threads for successor expansion and property checking.
    pub threads: usize,
    /// Byte budget for the search's resident footprint: the packed state
    /// store (payload + offset table) **plus** the dedup fingerprint
    /// table, parent links, successor counts, and the frontier queues.
    /// Approaching the budget walks a graceful-degradation ladder
    /// (recorded in [`Report::sheds`]): at 80% capacity slack and
    /// transient buffers are shed, at 90% an emergency checkpoint is
    /// written (when [`CheckOptions::checkpoint`] names a directory), and
    /// at 100% the exploration truncates cleanly with
    /// [`Report::truncated_by_memory`] set — the same contract as
    /// `max_states`, so big-N grid sweeps degrade into partial coverage
    /// instead of OOM. `None` disables the bound.
    pub mem_budget: Option<usize>,
    /// Wall-clock budget for the exploration. Checked at every BFS level
    /// boundary; on expiry the run stops with [`Report::truncated`] and
    /// [`Report::truncated_by_time`] set, returns the valid partial
    /// report, and (when [`CheckOptions::checkpoint`] is set) leaves a
    /// resumable final checkpoint. Time already spent by interrupted
    /// sessions counts against the budget of a resumed run. `None`
    /// disables the watchdog.
    pub time_budget: Option<Duration>,
    /// Periodic checkpointing (see [`CheckpointPolicy`]): the search
    /// state is serialized to the policy's directory at BFS level
    /// boundaries, atomically, and a final checkpoint is written when
    /// the run ends truncated or with findings (a clean completed run
    /// skips the final write — its result needs no crash insurance).
    /// [`ModelChecker::explore_resumed`] picks such a run back up.
    /// `None` disables checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Number of dedup/store shards. `None` (the default) means auto:
    /// one shard per worker thread. More than one shard at
    /// `threads == 1` routes and dedups exactly as a pooled run does,
    /// only inline (useful for testing the sharded layout
    /// deterministically on a single core); one shard at any thread
    /// count keeps a single segment whose slots are the global ids.
    /// Shard count is *not* part of a checkpoint's identity: a merged
    /// checkpoint written under any shard count resumes under any other.
    pub shards: Option<usize>,
    /// Optional pruning predicate (see [`Prune`]).
    pub prune: Option<Prune>,
    /// Keyframe interval for parent-delta state storage: when > 0, each
    /// stored successor may be kept as a [`StateCodec::encode_delta`]
    /// form against its BFS parent (same store segment only), with a
    /// full-encoding keyframe at least every this-many chain links
    /// bounding decode depth. `0` (the default) stores every state full
    /// — byte-identical to the historical arena, pinned by the
    /// differential suites. Delta storage never changes results: dedup,
    /// traces, checkpoints, and reduction canonicalization all operate
    /// on materialized full encodings.
    pub delta_keyframe: u32,
    /// Directory for cold-extent spill files. When set, completed BFS
    /// levels whose resident payload exceeds
    /// [`CheckOptions::spill_budget`] are sealed into immutable
    /// checksummed extents there and dropped from RAM (the degradation
    /// ladder's shed rung also seals everything cold); decoding an old
    /// id faults its extent back in through a small pinned cache. `None`
    /// (the default) keeps the whole store resident.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Resident-payload watermark (bytes) that triggers proactive
    /// spilling at BFS level boundaries when [`CheckOptions::spill_dir`]
    /// is set. `None` defaults to [`DEFAULT_SPILL_BUDGET`]; `Some(0)`
    /// spills every completed level eagerly.
    pub spill_budget: Option<usize>,
    /// Optional state-space reduction (see [`cxl_reduce::Reduction`]).
    /// With a reducer installed the checker canonicalizes every
    /// successor's packed encoding before dedup, may collapse
    /// interleavings around safe-local steps, and — whenever the reducer
    /// asks for peer variants — expands frontiers over the equivariant
    /// successor relation. Reported `states`/`transitions` then count
    /// orbit representatives; the verdict (clean / violating per
    /// property / deadlocked) is preserved. Callers must not combine a
    /// reducer with `prune` (reduction soundness assumes an unpruned
    /// relation); install one per exploration — the stats counters are
    /// cumulative.
    pub reduction: Option<Arc<dyn Reducer>>,
    /// Optional telemetry sink (see [`cxl_telemetry::Recorder`]). When
    /// set, the search hands the recorder one [`cxl_telemetry::LevelRecord`]
    /// per committed BFS level, every flight-recorder event as it is
    /// pushed, and a [`cxl_telemetry::RunSummary`] at the end. All
    /// metrics are computed at level-commit barriers from counters the
    /// search already maintains — `None` (the default) leaves the hot
    /// path without a single extra branch or clock read, and exploration
    /// results are bit-identical either way.
    pub telemetry: Option<Arc<dyn cxl_telemetry::Recorder>>,
    /// Capacity of the flight-recorder ring (last-K structured events:
    /// level commits, checkpoint writes, degradation rungs, spill
    /// seals/faults, quarantines, violations, resumes). The ring is kept
    /// regardless of [`CheckOptions::telemetry`] — events are rare and
    /// the ring is the black box surfaced in [`Report::flight`] and
    /// carried inside checkpoints. `0` disables it.
    pub flight_events: usize,
}

/// The default packed-store budget: ample for every workload in this
/// repository (the N = 3 sweeps fit in a few MiB) while keeping a runaway
/// 4-device grid from exhausting the host.
pub const DEFAULT_MEM_BUDGET: usize = 1536 * 1024 * 1024;

/// Default resident-payload watermark for proactive cold-extent spilling
/// (used when [`CheckOptions::spill_dir`] is set without an explicit
/// [`CheckOptions::spill_budget`]): big enough that N ≤ 4 sweeps never
/// touch disk, small enough that an N = 5–6 grid starts shedding sealed
/// levels long before the memory-budget ladder has to truncate.
pub const DEFAULT_SPILL_BUDGET: usize = 32 * 1024 * 1024;

/// Minimum frontier width before a run with a worker pool ships
/// expansion to it. A pooled phase costs a submit/wake/drain round-trip
/// regardless of size, so levels below this run the fused inline pass
/// on the calling thread — see the phase-1 dispatch comment in
/// `run_sharded`.
const PAR_EXPAND_MIN: usize = 256;

/// Minimum routed-message count before shard dedup jobs cross the pool.
/// Dedup work per message (hash probe + possible segment append) is an
/// order of magnitude lighter than expansion work per state, so the bar
/// is correspondingly higher.
const PAR_DEDUP_MIN: usize = 2048;

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 10_000_000,
            max_depth: None,
            max_violations: 1,
            threads: 1,
            mem_budget: Some(DEFAULT_MEM_BUDGET),
            time_budget: None,
            checkpoint: None,
            shards: None,
            delta_keyframe: 0,
            spill_dir: None,
            spill_budget: None,
            prune: None,
            reduction: None,
            telemetry: None,
            flight_events: cxl_telemetry::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

impl std::fmt::Debug for CheckOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckOptions")
            .field("max_states", &self.max_states)
            .field("max_depth", &self.max_depth)
            .field("max_violations", &self.max_violations)
            .field("threads", &self.threads)
            .field("mem_budget", &self.mem_budget)
            .field("time_budget", &self.time_budget)
            .field("checkpoint", &self.checkpoint)
            .field("shards", &self.shards)
            .field("delta_keyframe", &self.delta_keyframe)
            .field("spill_dir", &self.spill_dir)
            .field("spill_budget", &self.spill_budget)
            .field("prune", &self.prune.is_some())
            .field("reduction", &self.reduction.as_ref().map(|r| r.describe()))
            .field("telemetry", &self.telemetry.is_some())
            .field("flight_events", &self.flight_events)
            .finish()
    }
}

/// Sentinel for "this state was never expanded" in
/// [`Exploration::successor_counts`].
pub const NOT_EXPANDED: u32 = u32::MAX;

/// A stored state's BFS parent link: `None` for the root, else the
/// parent's discovery-order id and the rule that fired from it. State ids
/// are `u32` in the dedup index already, so the `u32` parent adds no new
/// limit; `Shape`'s niche makes the whole link 8 bytes.
pub type ParentLink = Option<(u32, RuleId)>;

const _: () = assert!(std::mem::size_of::<ParentLink>() == 8);

/// The link to a stored state's BFS `parent` through `rule`.
fn link(parent: usize, rule: RuleId) -> ParentLink {
    Some((u32::try_from(parent).expect("state ids fit u32"), rule))
}

/// Append a freshly stored state's parent link and its not-yet-expanded
/// successor count. Once the memory ladder has shed (`frugal`), both
/// columns grow by an eighth instead of doubling: a doubling straight
/// after the shed would hand back the reclaimed slack at once and
/// truncate a run whose states the budget could still hold.
fn push_fresh(
    parents: &mut Vec<ParentLink>,
    succ_counts: &mut Vec<u32>,
    link: ParentLink,
    frugal: bool,
) {
    if frugal && parents.len() == parents.capacity() {
        parents.reserve_exact(parents.len() / 8 + 1);
    }
    if frugal && succ_counts.len() == succ_counts.capacity() {
        succ_counts.reserve_exact(succ_counts.len() / 8 + 1);
    }
    parents.push(link);
    succ_counts.push(NOT_EXPANDED);
}

/// The outcome of expanding one frontier state inside an
/// [`ExpandedChunk`]. Rule firing runs inside `catch_unwind` (in both
/// the inline path and the pool workers), so a panic in the rule engine
/// poisons *one state* — quarantined in [`Report::quarantined`] —
/// instead of tearing down the whole search.
enum Outcome {
    /// The state expanded cleanly and emitted this many successors; its
    /// metadata occupies the next that-many entries of the chunk's
    /// parent-major item list.
    Succs(u32),
    /// Expansion panicked; the payload's message. The state stays
    /// unexpanded ([`NOT_EXPANDED`]) and is quarantined by the driver,
    /// contributing zero successors to the chunk.
    Poisoned(String),
}

/// A chunk of expanded frontier states in frontier order.
///
/// The layout is deliberately struct-of-arrays: all successor bytes of
/// the whole chunk live in **one** buffer, with per-successor metadata
/// `(rule, end offset, fingerprint)` in one parent-major vector. The
/// earlier shape — a `Vec<u8>` per successor plus a `Vec` per parent —
/// spent more time in the allocator than in the rule engine on small
/// states (≈3 heap round-trips per expanded state at ~1.9 successors per
/// parent), which is exactly the per-message cost the shard protocol
/// must keep negligible. A chunk is three allocations total, whatever
/// its size; consumers walk it with an (item, byte) cursor pair.
#[derive(Default)]
struct ExpandedChunk {
    /// `(arena id, outcome)` in frontier order.
    parents: Vec<(usize, Outcome)>,
    /// Successor metadata, parent-major: `(rule, end offset into buf,
    /// fingerprint)` — a successor's bytes start where its predecessor's
    /// ended.
    items: Vec<(RuleId, usize, u64)>,
    /// Concatenated packed (canonical) bytes of every successor.
    buf: Vec<u8>,
}

/// Packed shipment of arena states across the pool: ids plus their
/// concatenated bytes (one buffer per job instead of one `Vec<u8>` per
/// state).
struct StateBatch {
    ids: Vec<usize>,
    ends: Vec<usize>,
    buf: Vec<u8>,
}

impl StateBatch {
    fn of(ids: &[usize], store: &ShardedStore) -> Self {
        let mut ends = Vec::with_capacity(ids.len());
        let mut buf = Vec::new();
        for &id in ids {
            store.append_full_bytes(id, &mut buf);
            ends.push(buf.len());
        }
        StateBatch { ids: ids.to_vec(), ends, buf }
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.ids.iter().zip(&self.ends).scan(0usize, |start, (&id, &end)| {
            let bytes = &self.buf[*start..end];
            *start = end;
            Some((id, bytes))
        })
    }
}

/// How a search begins: from scratch, or mid-run from a validated
/// checkpoint.
enum Start<'s> {
    Fresh(&'s SystemState),
    Resume(Box<Checkpoint>),
}

/// The result of [`ModelChecker::explore`]: the report plus the packed
/// store of every reachable state (the exact universe the obligation
/// matrix of `cxl-sketch` quantifies over).
#[derive(Debug)]
pub struct Exploration {
    /// Statistics and findings.
    pub report: Report,
    /// Every distinct state visited, in discovery (BFS) order, as packed
    /// bytes — decode on demand via [`Self::state`] /
    /// [`StateArena::decode`].
    pub arena: StateArena,
    /// Per-state successor counts recorded during forward expansion
    /// (pre-dedup fan-out), indexed like the arena. States the
    /// search stopped before expanding hold [`NOT_EXPANDED`]. A pruned
    /// state records 0, mirroring the naive checker's terminal notion.
    pub successor_counts: Vec<u32>,
}

impl Exploration {
    /// Number of stored states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Is the store empty? (Never, for a completed exploration — the
    /// initial state is always stored.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Decode state `id` (discovery order).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: usize) -> SystemState {
        self.arena.decode(id)
    }

    /// Decode the whole visited set into shared heap states, in discovery
    /// order — the compatibility surface for consumers that want to hold
    /// the universe as objects (`cxl-sketch`'s obligation matrix).
    #[must_use]
    pub fn states(&self) -> Vec<Arc<SystemState>> {
        self.arena.iter_decoded().map(Arc::new).collect()
    }

    /// Mean *resident* store bytes per state: payload bytes actually
    /// held in RAM (delta-compressed entries at their compressed size,
    /// spilled extents excluded) plus the offset/base tables. For a
    /// plain arena this is the packed payload plus the offset table —
    /// note the tables were not counted before delta/spill landed, so
    /// this runs ~8 B/state higher than historical snapshots on
    /// identical plain runs.
    #[must_use]
    pub fn bytes_per_state(&self) -> f64 {
        if self.arena.is_empty() {
            0.0
        } else {
            (self.arena.resident_payload_bytes() + self.arena.table_bytes()) as f64
                / self.arena.len() as f64
        }
    }

    /// Was state `id` expanded with zero successors (i.e. is it terminal)?
    /// `None` when the search stopped before expanding it.
    #[must_use]
    pub fn is_terminal(&self, id: usize) -> Option<bool> {
        match self.successor_counts.get(id) {
            Some(&NOT_EXPANDED) | None => None,
            Some(&n) => Some(n == 0),
        }
    }

    /// Indices of all terminal states, in discovery order. On a clean,
    /// non-truncated run every state has been expanded, so this is exact —
    /// without re-running successor generation over the visited set.
    pub fn terminal_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.successor_counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(id, _)| id)
    }
}

/// A breadth-first explicit-state model checker over a [`Ruleset`].
///
/// # Examples
///
/// ```
/// use cxl_core::{ProtocolConfig, Ruleset, SystemState};
/// use cxl_core::instr::programs;
/// use cxl_mc::{ModelChecker, SwmrProperty};
///
/// let mc = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
/// let init = SystemState::initial(programs::store(42), programs::load());
/// let report = mc.check(&init, &[&SwmrProperty]);
/// assert!(report.clean());
/// ```
#[derive(Debug)]
pub struct ModelChecker {
    rules: Ruleset,
    opts: CheckOptions,
}

impl ModelChecker {
    /// A checker with default options.
    #[must_use]
    pub fn new(rules: Ruleset) -> Self {
        ModelChecker { rules, opts: CheckOptions::default() }
    }

    /// A checker with explicit options.
    #[must_use]
    pub fn with_options(rules: Ruleset, opts: CheckOptions) -> Self {
        ModelChecker { rules, opts }
    }

    /// The rule set being explored.
    #[must_use]
    pub fn rules(&self) -> &Ruleset {
        &self.rules
    }

    /// The exploration options.
    #[must_use]
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// Explore and return just the report.
    #[must_use]
    pub fn check(&self, initial: &SystemState, props: &[&dyn Property]) -> Report {
        self.explore(initial, props).report
    }

    /// Explore all states reachable from `initial`, checking `props` on
    /// every state (including the initial one), detecting non-quiescent
    /// terminal states, and retaining the visited set (packed).
    ///
    /// # Panics
    /// Panics if the options combine a pruning predicate with a
    /// state-space reduction — pruning decoded canonical representatives
    /// would prune whole orbits by an asymmetric, order-dependent
    /// criterion, silently skipping reachable states.
    #[must_use]
    pub fn explore(&self, initial: &SystemState, props: &[&dyn Property]) -> Exploration {
        assert!(
            self.opts.prune.is_none() || self.opts.reduction.is_none(),
            "CheckOptions::prune and CheckOptions::reduction are mutually exclusive \
             (pruning canonical representatives is unsound)"
        );
        assert!(
            self.opts.prune.is_none() || self.opts.checkpoint.is_none(),
            "CheckOptions::prune and CheckOptions::checkpoint are mutually exclusive \
             (a pruning closure cannot be checkpointed, so its checkpoints could \
              never be safely resumed)"
        );
        self.drive(Start::Fresh(initial), props)
    }

    /// Resume (or reconstitute) the exploration recorded in the options'
    /// checkpoint directory.
    ///
    /// A checkpoint written at a BFS level boundary re-enters the search
    /// loop with identical algorithm state, so the resumed run's verdict,
    /// state count, and counterexample traces are exactly those of an
    /// uninterrupted run. Resource budgets (`max_states`, `max_depth`,
    /// `mem_budget`, `time_budget`) and `threads` are *not* part of a
    /// checkpoint's identity and may differ — raising a budget between
    /// sessions is the point of checkpointed campaigns. A final
    /// checkpoint of a mid-level stop (violation, `max_states`, the
    /// memory ladder's hard rung) is not re-enterable; its recorded
    /// report and arena are reconstituted and returned without further
    /// exploration.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when no checkpoint can be read,
    /// [`CheckpointError::Corrupt`] when the file fails validation
    /// (checksum, framing, state decoding — a damaged file is always
    /// refused, never partially resumed), and [`CheckpointError::Mismatch`]
    /// when it was written under different exploration semantics
    /// (topology, protocol configuration, initial state, or reduction
    /// setup), or when the options carry a pruning predicate or no
    /// checkpoint directory.
    pub fn explore_resumed(
        &self,
        props: &[&dyn Property],
    ) -> Result<Exploration, CheckpointError> {
        let policy = self.opts.checkpoint.as_ref().ok_or_else(|| {
            CheckpointError::Mismatch("resume requires CheckOptions::checkpoint".into())
        })?;
        if self.opts.prune.is_some() {
            return Err(CheckpointError::Mismatch(
                "cannot resume under a pruning predicate (closures are not checkpointable)"
                    .into(),
            ));
        }
        let cp = Checkpoint::read_dir(&policy.dir, &self.rules)?;
        let describe = self.opts.reduction.as_deref().map(|r| r.describe());
        let expected =
            options_fingerprint(&self.rules, describe.as_deref(), cp.arena.bytes_of(0));
        if expected != cp.fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint fingerprint {:#018x} does not match this checker's {expected:#018x} \
                 (different protocol config, initial state, or reduction setup)",
                cp.fingerprint
            )));
        }
        if !cp.resumable {
            return Ok(self.reconstitute(cp));
        }
        Ok(self.drive(Start::Resume(Box::new(cp)), props))
    }

    /// Rebuild the [`Exploration`] a non-resumable (mid-level) checkpoint
    /// recorded, without exploring: the verdict, arena, and traces are
    /// exactly the interrupted run's.
    fn reconstitute(&self, cp: Checkpoint) -> Exploration {
        let mut report = cp.partial_report(&self.rules);
        // The same presentation rule the search applies: terminal
        // statistics are only meaningful for complete, clean explorations.
        if report.truncated || !report.violations.is_empty() {
            report.terminal_states = 0;
            report.deadlocks.clear();
        }
        if let Some(r) = self.opts.reduction.as_deref() {
            if let Some(stats) = cp.reduction_stats {
                r.restore_stats(stats);
            }
            let stats = r.stats();
            let orbit_states =
                (0..cp.arena.len()).map(|id| r.orbit_size(cp.arena.bytes_of(id))).sum();
            report.reduction = Some(ReductionSummary {
                description: r.describe(),
                group_order: stats.group_order,
                orbit_canonicalized: stats.orbit_canonicalized,
                value_canonicalized: stats.value_canonicalized,
                data_symmetry: stats.data_symmetry,
                ample_local: stats.ample_local,
                ample_diamond: stats.ample_diamond,
                ample_host_drain: stats.ample_host_drain,
                por: stats.por,
                canon: stats.canon,
                orbit_states,
            });
        }
        // The interrupted session's black box is the reconstituted run's
        // too — there was no further exploration to add events.
        report.flight = cp.flight;
        Exploration { report, arena: cp.arena, successor_counts: cp.succ_counts }
    }

    /// Run the search with the resolved shard count, spinning up the
    /// persistent worker pool when more than one thread is requested. A
    /// single-threaded run has no pool and executes every level inline
    /// (whatever the shard count, which makes the sharded layout
    /// testable deterministically on a one-core host).
    fn drive(&self, start: Start<'_>, props: &[&dyn Property]) -> Exploration {
        let shards = self.opts.shards.unwrap_or(self.opts.threads).max(1);
        if self.opts.threads <= 1 {
            return self.run_sharded(start, props, shards, None);
        }
        let shared = PoolShared::new(
            &self.rules,
            self.opts.prune.as_ref(),
            self.opts.reduction.as_deref(),
            props,
        );
        std::thread::scope(|scope| {
            // Workers spawn on first pooled phase, not here: a check
            // whose levels all run inline (narrow frontiers — the
            // common case for small grids) never pays thread
            // spawn/join at all.
            let pool = LazyPool {
                shared: &shared,
                scope,
                threads: self.opts.threads,
                spawned: Cell::new(false),
            };
            let out = self.run_sharded(start, props, shards, Some(&pool));
            if pool.spawned.get() {
                shared.shutdown();
            }
            out
        })
    }

    /// All states reachable from `initial` (no properties checked),
    /// decoded into shared heap states.
    #[must_use]
    pub fn reachable(&self, initial: &SystemState) -> Vec<Arc<SystemState>> {
        self.explore(initial, &[]).states()
    }

    // -----------------------------------------------------------------
    // The search.
    // -----------------------------------------------------------------

    /// The search: fingerprint-routed, shard-owned dedup with a
    /// BFS-level commit barrier, over `shards` shards and an optional
    /// worker pool.
    ///
    /// Without a pool (one thread), or for a level too narrow to pay for
    /// one, the level runs as one fused pass: each frontier state is
    /// expanded and its successors merged at once, in (frontier order ×
    /// successor order). A pooled level runs four phases:
    ///
    /// 1. **Expand** the frontier over the worker pool's chunk protocol,
    ///    in frontier order — the same successor stream as the fused
    ///    pass.
    /// 2. **Route**: every successor gets a global sequence number in
    ///    (frontier order × successor order) and its packed-bytes message
    ///    goes to the inbox of its owning shard ([`shard_of`]).
    /// 3. **Dedup**: each shard's inbox is processed by one worker that
    ///    temporarily *owns* the shard's private `FpIndex` + arena
    ///    segment (ownership moves through the job queue), so probe,
    ///    insert, and append are lock-free. Equal states always route to
    ///    the same shard, so this dedup is globally complete.
    /// 4. **Commit**: fresh states from all shards are merged by global
    ///    sequence number, assigning discovery-order global ids — the
    ///    fused pass's exact order, making reports, traces, checkpoints,
    ///    and the returned arena bit-identical.
    ///
    /// Truncation semantics (the over-cap transient tail, per-state stop
    /// points, the memory ladder's mid-level rungs) are inherently
    /// sequential, so a pooled level that *could* cross `max_states` or
    /// approach the memory budget falls back to a serial merge with the
    /// fused pass's exact per-successor rules.
    #[allow(clippy::too_many_lines)]
    fn run_sharded(
        &self,
        start: Start<'_>,
        props: &[&dyn Property],
        shards: usize,
        pool: Option<&LazyPool<'_, '_>>,
    ) -> Exploration {
        let start_time = Instant::now();
        let mut report = Report::default();
        let codec = StateCodec::new(self.rules.topology());
        let reducer = self.opts.reduction.as_deref();
        let peer_variants = reducer.is_some_and(Reducer::wants_peer_variants);
        // Telemetry: the flight ring runs unconditionally (a handful of
        // pushes per level); the phase clock and level records exist only
        // with a recorder installed — everything they report is derived
        // at level boundaries from counters the search already keeps.
        let recorder = self.opts.telemetry.as_deref();
        let mut clock = PhaseClock::new(recorder.is_some());
        let mut flight = FlightRing::new(self.opts.flight_events);
        let mut phase_total = PhaseNanos::default();

        // The store (packed segments + dedup indexes), parent links for
        // trace rebuilding, and per-state successor counts (recorded at
        // expansion time).
        let mut store: ShardedStore;
        let mut parents: Vec<ParentLink> = Vec::new();
        let mut succ_counts: Vec<u32> = Vec::new();

        // Side arena for over-cap states checked transiently after
        // truncation, so a state reached twice in the truncated tail is
        // deduped and checked once.
        let mut transient = StateArena::new(codec);
        let mut transient_index = FpIndex::new();

        // Flat per-rule firing counters (dense-indexed; shapes × devices
        // of the rule set's topology); folded into the report's BTreeMap
        // once at the end, so the hot loop does one array increment per
        // transition instead of a map operation.
        let mut firings = vec![0u64; self.rules.rule_ids().len()];
        let mut routed_messages: u64 = 0;

        // Scratch for inline expansion and terminal/deadlock decoding:
        // the decoded frontier state, the rule-firing scratch successor,
        // and the canonicalization buffers. All stop allocating once
        // grown to the workload's high-water mark.
        let mut cur = codec.blank();
        let mut fire_scratch = codec.blank();
        let mut enc_scratch: Vec<u8> = Vec::new();
        let mut canon_scratch: Vec<u8> = Vec::new();

        let mut frontier: Vec<usize>;
        let mut depth: usize;
        // Wall-clock already spent by interrupted sessions: added to this
        // session's clock for the time budget, the report, and every
        // checkpoint, so elapsed time is cumulative across resumes.
        let mut elapsed_offset = Duration::ZERO;
        match start {
            Start::Fresh(initial) => {
                // The initial state is stored **uncanonicalized**: it
                // serves as its own class representative, so every
                // reported trace starts from the caller's own initial
                // state (the data-symmetry engine would otherwise
                // renumber its program operands into canonical tokens).
                // Orbit reduction does not require the root to be a
                // canonical form — only successors are rewritten.
                store = ShardedStore::new(codec, shards);
                let mut enc = Vec::new();
                codec.encode_into(initial, &mut enc);
                let fp = StateCodec::fingerprint(&enc);
                let s = shard_of(fp, shards);
                {
                    let ShardState { index, segment } = store.shard_mut(s);
                    segment.push_encoded(&enc);
                    index.insert(fp, 0, |_| unreachable!("empty shard"));
                }
                store.commit(s, 0);
                parents.push(None);
                succ_counts.push(NOT_EXPANDED);
                self.check_state(0, &store, &parents, props, &mut report);
                frontier = vec![0];
                depth = 0;
            }
            Start::Resume(cp) => {
                // Re-enter the loop at the checkpoint's level boundary:
                // levels 0..depth fully expanded, frontier = level
                // `depth`. Everything below reproduces the writing run's
                // algorithm state exactly.
                let cp = *cp;
                store = ShardedStore::restore(codec, shards, cp.arena, &cp.fps);
                parents = cp.parents;
                succ_counts = cp.succ_counts;
                firings = cp.firings;
                frontier = cp.frontier;
                depth = cp.depth;
                elapsed_offset = cp.elapsed;
                report.transitions = cp.transitions;
                report.terminal_states = cp.terminal_states;
                report.depth = depth;
                report.violations = cp.violations;
                report.deadlocks = cp.deadlocks;
                report.quarantined = cp.quarantined;
                report.sheds = cp.sheds;
                report.resumed_from = Some(store.len());
                if let (Some(r), Some(stats)) = (reducer, cp.reduction_stats) {
                    r.restore_stats(stats);
                }
                // Seed the black box from the interrupted session and
                // record the hand-off.
                flight = FlightRing::restore(self.opts.flight_events, cp.flight);
                flight_note(
                    &mut flight,
                    recorder,
                    FlightKind::Resume,
                    depth as u64,
                    store.len() as u64,
                    "",
                );
            }
        }

        // Arm the beyond-RAM layers per shard segment, after the start
        // match (a resume scatters plain full encodings, which then
        // serve as keyframe bases). Deltas are shard-local: a successor
        // may compress against its BFS parent only when the parent
        // landed in the same shard — the routing fingerprint decides.
        for (i, shard) in store.shards.iter_mut().enumerate() {
            let Some(shard) = shard else { continue };
            if self.opts.delta_keyframe > 0 {
                shard.segment.enable_delta(self.opts.delta_keyframe);
            }
            if let Some(dir) = &self.opts.spill_dir {
                // Failure degrades to a resident shard; the ladder still
                // guards the run.
                let _ = shard.segment.enable_spill(dir, &format!("shard{i}"));
            }
        }
        let spill_watermark = self.opts.spill_budget.unwrap_or(DEFAULT_SPILL_BUDGET);

        let ckpt = self.opts.checkpoint.as_ref();
        let ckpt_fingerprint = ckpt.map(|_| {
            let describe = reducer.map(|r| r.describe());
            let mut init = Vec::new();
            store.append_full_bytes(0, &mut init);
            options_fingerprint(&self.rules, describe.as_deref(), &init)
        });
        let mut last_checkpoint = Instant::now();
        let mut ckpt_bufs = CheckpointBuffers::default();
        let mut stopped_at_boundary = false;
        let mut shed_done = false;
        let mut emergency_done = false;

        // Level-boundary telemetry baselines: records carry *deltas* of
        // these cumulative counters, so a resumed session's stream picks
        // up exactly where the interrupted one's left off and the two sum
        // to an uninterrupted run's totals.
        let mut prev_transitions = report.transitions;
        let mut prev_sheds = report.sheds.len();
        let mut prev_quarantined = report.quarantined.len();
        let mut prev_violations = report.violations.len();
        let (mut prev_sealed, mut prev_faulted) = sharded_spill_counts(&store);
        let mut prev_reduction = reducer.map(|r| r.stats());
        let mut level_started = Instant::now();

        'outer: while !frontier.is_empty() {
            if let Some(md) = self.opts.max_depth {
                if depth >= md {
                    report.truncated = true;
                    stopped_at_boundary = true;
                    break;
                }
            }
            if let Some(tb) = self.opts.time_budget {
                if elapsed_offset + start_time.elapsed() >= tb {
                    report.truncated = true;
                    report.truncated_by_time = true;
                    stopped_at_boundary = true;
                    break;
                }
            }
            // Graceful-degradation ladder, walked at level boundaries
            // while every structure is still coherent, over the whole
            // footprint (all segments, shard indexes and the directory).
            // Rung 1 (≥ 80% of the budget): shed capacity slack and
            // transient buffers.
            if let Some(budget) = self.opts.mem_budget {
                let before = search_footprint(
                    store.heap_bytes(),
                    parents.capacity(),
                    succ_counts.capacity(),
                    frontier.capacity(),
                )
                .total();
                if !shed_done && before.saturating_mul(10) >= budget.saturating_mul(8) {
                    shed_done = true;
                    // The shed rung also seals every pre-frontier shard
                    // entry to disk when a spill dir is armed.
                    if self.opts.spill_dir.is_some() {
                        store.spill_cold_below(&frontier);
                    }
                    store.shrink_to_fit();
                    parents.shrink_to_fit();
                    succ_counts.shrink_to_fit();
                    frontier.shrink_to_fit();
                    transient.clear_and_release();
                    transient_index = FpIndex::new();
                    let after = search_footprint(
                        store.heap_bytes(),
                        parents.capacity(),
                        succ_counts.capacity(),
                        frontier.capacity(),
                    )
                    .total();
                    report.sheds.push(DegradationStep {
                        action: DegradationAction::ShedBuffers {
                            reclaimed: before.saturating_sub(after),
                        },
                        at_states: store.len(),
                        footprint: after,
                    });
                }
                // Rung 2 (≥ 90%): one emergency checkpoint while the
                // search state is still serializable.
                if !emergency_done && before.saturating_mul(10) >= budget.saturating_mul(9) {
                    if let (Some(policy), Some(fp)) = (ckpt, ckpt_fingerprint) {
                        emergency_done = true;
                        report.sheds.push(DegradationStep {
                            action: DegradationAction::EmergencyCheckpoint,
                            at_states: store.len(),
                            footprint: before,
                        });
                        let t = clock.tick();
                        flight_note(
                            &mut flight,
                            recorder,
                            FlightKind::CheckpointWrite,
                            depth as u64,
                            store.len() as u64,
                            "",
                        );
                        write_checkpoint(
                            &self.rules,
                            &policy.dir,
                            &mut ckpt_bufs,
                            fp,
                            true,
                            depth,
                            elapsed_offset + start_time.elapsed(),
                            &store,
                            &parents,
                            &succ_counts,
                            &frontier,
                            &firings,
                            &report,
                            reducer.map(|r| r.stats()),
                            &flight.events(),
                        );
                        clock.tock(Phase::Checkpoint, t);
                        last_checkpoint = Instant::now();
                    }
                }
            }
            // Proactive cold-extent spill, per shard: seal completed
            // levels once the combined resident payload outgrows the
            // watermark (the frontier's own slots stay resident).
            if self.opts.spill_dir.is_some()
                && store.resident_payload_bytes() > spill_watermark
            {
                let t = clock.tick();
                store.spill_cold_below(&frontier);
                clock.tock(Phase::Spill, t);
            }
            // Periodic checkpoint, at the first boundary after each
            // `every` interval (a zero interval checkpoints every level):
            // the segments merge to one single-arena wire layout, so
            // checkpoints are interchangeable across shard counts.
            if let (Some(policy), Some(fp)) = (ckpt, ckpt_fingerprint) {
                if last_checkpoint.elapsed() >= policy.every {
                    let t = clock.tick();
                    // Pushed *before* encoding, so the checkpoint file on
                    // disk carries its own write event — a resumed run's
                    // flight recorder then shows the very write it came
                    // back from.
                    flight_note(
                        &mut flight,
                        recorder,
                        FlightKind::CheckpointWrite,
                        depth as u64,
                        store.len() as u64,
                        "",
                    );
                    write_checkpoint(
                        &self.rules,
                        &policy.dir,
                        &mut ckpt_bufs,
                        fp,
                        true,
                        depth,
                        elapsed_offset + start_time.elapsed(),
                        &store,
                        &parents,
                        &succ_counts,
                        &frontier,
                        &firings,
                        &report,
                        reducer.map(|r| r.stats()),
                        &flight.events(),
                    );
                    clock.tock(Phase::Checkpoint, t);
                    last_checkpoint = Instant::now();
                }
            }

            // Phase 1: expand the frontier — over the pool's chunk
            // protocol when it pays, in the fused inline pass otherwise
            // (narrow frontiers or a single-threaded run). Either way the
            // successor stream is in frontier order and identical.
            // The gate is work-based, not thread-based: a pooled phase
            // costs a submit/wake/drain round-trip (tens of µs on a
            // loaded host), so levels with less than ~a quarter
            // millisecond of expansion work run inline — on oversold
            // single-core runners this is what keeps a pooled run's
            // protocol overhead within a few percent of a
            // single-threaded one instead of 2× behind it.
            let expand_min = (2 * self.opts.threads).max(PAR_EXPAND_MIN);
            let mut new_indices = Vec::new();
            // Per-shard routed-message counts for this level's telemetry
            // record; filled only by the routed pooled-dedup path (the
            // other paths build no inboxes).
            let mut level_queue_depths: Vec<u32> = Vec::new();
            // Merge one successor at its global turn (frontier order ×
            // successor order): dedupe by fingerprint with byte-equality
            // fallback inside the owning shard, link the parent, count
            // the firing. Once `max_states` (or the memory budget) is
            // reached no further states are stored, but the rest of the
            // level is still deduped and property-checked transiently,
            // so a violation inside the truncated tail is reported
            // rather than silently dropped. Returns `true` when that
            // tail reaches the violation cap: the level stops. The
            // structures the expansion side also touches are passed in.
            let frontier_slots = frontier.capacity();
            let mut merge = |parent: usize,
                             (ps, pslot): (usize, u32),
                             rule: RuleId,
                             encoded: &[u8],
                             fp: u64,
                             store: &mut ShardedStore,
                             parents: &mut Vec<ParentLink>,
                             succ_counts: &mut Vec<u32>,
                             report: &mut Report|
             -> bool {
                firings[self.rules.dense_index(rule)] += 1;
                report.transitions += 1;
                routed_messages += 1;
                let s = shard_of(fp, shards);
                if report.truncated {
                    // Over-cap tail: dedup against the store (read-only
                    // probe) and the transient side arena, then
                    // property-check genuinely new states once.
                    let ShardState { index, segment } = store.shard(s);
                    if index.probe(fp, |id| segment.entry_matches(id as usize, encoded)).is_some()
                    {
                        return false;
                    }
                    let candidate = u32::try_from(transient.len()).expect("state count fits u32");
                    if transient_index
                        .insert(fp, candidate, |id| transient.bytes_of(id as usize) == encoded)
                        .is_some()
                    {
                        return false;
                    }
                    transient.push_encoded(encoded);
                    let succ = transient.decode(transient.len() - 1);
                    self.check_transient(parent, rule, &succ, store, parents, props, report);
                    return report.violations.len() >= self.opts.max_violations
                        && !report.violations.is_empty();
                }
                let ShardState { index, segment } = store.shard_mut(s);
                let slot = u32::try_from(segment.len()).expect("state count fits u32");
                if index.insert(fp, slot, |id| segment.entry_matches(id as usize, encoded)).is_some()
                {
                    return false;
                }
                // Stored as a parent-delta when armed and profitable —
                // only against a parent in the same shard segment.
                segment.push_encoded_delta(encoded, (ps == s).then_some(pslot));
                let gid = store.commit(s, slot);
                push_fresh(parents, succ_counts, link(parent, rule), shed_done);
                new_indices.push(gid);
                if store.len() >= self.opts.max_states {
                    report.truncated = true;
                }
                if let Some(budget) = self.opts.mem_budget {
                    // The hard rung: the full resident footprint — store,
                    // dedup indexes, parent links, successor counts, and
                    // both frontier queues — against the budget.
                    let footprint_now = |store: &ShardedStore,
                                         parents: &Vec<ParentLink>,
                                         succ_counts: &Vec<u32>,
                                         queued: usize| {
                        search_footprint(
                            store.heap_bytes(),
                            parents.capacity(),
                            succ_counts.capacity(),
                            frontier_slots + queued,
                        )
                        .total()
                    };
                    let mut footprint =
                        footprint_now(store, parents, succ_counts, new_indices.capacity());
                    // A fast-growing level can blow through the 80%
                    // boundary rung and the budget in one stride; shed
                    // the capacity slack reachable from here before
                    // giving up, so truncation is always the ladder's
                    // *last* step.
                    if !shed_done && footprint.saturating_mul(10) >= budget.saturating_mul(8) {
                        shed_done = true;
                        store.shrink_to_fit();
                        parents.shrink_to_fit();
                        succ_counts.shrink_to_fit();
                        let after =
                            footprint_now(store, parents, succ_counts, new_indices.capacity());
                        report.sheds.push(DegradationStep {
                            action: DegradationAction::ShedBuffers {
                                reclaimed: footprint.saturating_sub(after),
                            },
                            at_states: store.len(),
                            footprint: after,
                        });
                        footprint = after;
                    }
                    if footprint >= budget {
                        report.truncated = true;
                        report.truncated_by_memory = true;
                        report.sheds.push(DegradationStep {
                            action: DegradationAction::Truncate,
                            at_states: store.len(),
                            footprint,
                        });
                    }
                }
                false
            };
            // Record one expanded frontier state's outcome at its turn,
            // just before its successors merge: its successor count and,
            // with none, whether it is terminal or deadlocked (`cur`
            // holds the decoded parent when `decoded`); or quarantine
            // it. Frontier order is discovery order, so deadlock traces
            // come out in the order the naive rescan produced, and a
            // level the violation cap stops leaves the same later
            // parents unexpanded whichever arm ran it.
            let mut settle = |parent: usize,
                              outcome: &Outcome,
                              cur: &mut SystemState,
                              decoded: bool,
                              store: &ShardedStore,
                              parents: &[ParentLink],
                              succ_counts: &mut [u32],
                              report: &mut Report| match outcome {
                Outcome::Poisoned(message) => {
                    flight_note(
                        &mut flight,
                        recorder,
                        FlightKind::Quarantine,
                        parent as u64,
                        0,
                        message,
                    );
                    report.quarantined.push(quarantine_of(parent, store, message.clone()));
                }
                Outcome::Succs(n) => {
                    succ_counts[parent] = (*n).min(u32::MAX - 1);
                    if *n == 0 {
                        report.terminal_states += 1;
                        if !decoded {
                            store.decode_into(parent, cur);
                        }
                        if !cur.is_quiescent() {
                            report.deadlocks.push(Deadlock {
                                trace: rebuild_trace(parent, store, parents),
                            });
                        }
                    }
                }
            };
            match pool {
                // ——— Pooled level: two-phase. Expansion fans out over
                // the chunk protocol, then dedup runs routed (parallel)
                // or inline on this thread, by message count. ———
                Some(pool) if frontier.len() >= expand_min => {
                    let expand_t = clock.tick();
                    let expanded: Vec<ExpandedChunk> = pool.expand(&frontier, &store);
                    clock.tock(Phase::Expand, expand_t);
                    let merge_t = clock.tick();

                    // Size the level: can it provably not truncate? Only then is
                    // the routed, shard-owned dedup permitted; otherwise the
                    // level merges on this thread with the fused pass's exact
                    // truncation semantics. The SoA chunk layout makes this
                    // O(chunks).
                    let mut total_msgs = 0usize;
                    let mut payload_bytes = 0usize;
                    for chunk in &expanded {
                        total_msgs += chunk.items.len();
                        payload_bytes += chunk.buf.len();
                    }
                    // Conservative worst case: every message is fresh and costs
                    // its payload plus per-state bookkeeping (offset slot, index
                    // slot, parent link, successor count, directory entry,
                    // queue slot).
                    const PER_STATE_OVERHEAD: usize = 80;
                    let fast = !report.truncated
                        && store.len() + total_msgs <= self.opts.max_states
                        && self.opts.mem_budget.is_none_or(|budget| {
                            let now = search_footprint(
                                store.heap_bytes(),
                                parents.capacity(),
                                succ_counts.capacity(),
                                frontier.capacity(),
                            )
                            .total();
                            let worst = now + payload_bytes + total_msgs * PER_STATE_OVERHEAD;
                            worst.saturating_mul(10) < budget.saturating_mul(8)
                        });

                    // The dedup dispatch decision, made *before* routing: the
                    // inbox protocol only exists to hand each shard's messages
                    // to a worker, so a level whose dedup runs on this thread
                    // anyway (fewer messages than the pool round-trip is worth
                    // — same work-based rationale as the expansion gate) skips
                    // routing entirely and merges straight
                    // from the chunks, which are already in global sequence
                    // order. One pass over each message instead of two, no inbox
                    // buffers, no commit sort — this is most of what keeps a
                    // pooled run near a single-threaded one on a single core.
                    let pooled_dedup = total_msgs >= PAR_DEDUP_MIN;
                    if fast && pooled_dedup {
                        // This path cannot stop mid-level, so every
                        // parent settles up front.
                        for chunk in &expanded {
                            for (parent, outcome) in &chunk.parents {
                                settle(
                                    *parent,
                                    outcome,
                                    &mut cur,
                                    false,
                                    &store,
                                    &parents,
                                    &mut succ_counts,
                                    &mut report,
                                );
                            }
                        }
                        // Phase 2: route. Global sequence numbers follow
                        // (frontier order × successor order) — the fused
                        // pass's merge order. Each successor's bytes are
                        // memcpy'd into its shard's inbox buffer: a few dozen
                        // bytes moved per message, zero allocations per message.
                        let mut inboxes: Vec<Inbox> = (0..shards)
                            .map(|_| Inbox {
                                msgs: Vec::with_capacity(total_msgs / shards + 1),
                                buf: Vec::with_capacity(payload_bytes / shards + 64),
                            })
                            .collect();
                        let mut seq: u64 = 0;
                        for chunk in &expanded {
                            let mut item = 0usize;
                            let mut start = 0usize;
                            for (parent, outcome) in &chunk.parents {
                                let Outcome::Succs(n) = outcome else { continue };
                                let (ps, pslot) = store.locate(*parent);
                                let parent =
                                    u32::try_from(*parent).expect("state count fits u32");
                                for &(rule, end, fp) in &chunk.items[item..item + *n as usize] {
                                    let bytes = &chunk.buf[start..end];
                                    start = end;
                                    firings[self.rules.dense_index(rule)] += 1;
                                    report.transitions += 1;
                                    routed_messages += 1;
                                    let dest = shard_of(fp, shards);
                                    let base = if ps == dest { pslot } else { u32::MAX };
                                    let inbox = &mut inboxes[dest];
                                    inbox.buf.extend_from_slice(bytes);
                                    inbox.msgs.push(RoutedMsg {
                                        seq,
                                        parent,
                                        rule,
                                        end: inbox.buf.len(),
                                        fp,
                                        base,
                                    });
                                    seq += 1;
                                }
                                item += *n as usize;
                            }
                        }

                        // The commit barrier is where per-shard queue
                        // depth is observable: each inbox's message count
                        // is exactly what its owning worker will drain.
                        if recorder.is_some() {
                            level_queue_depths = inboxes
                                .iter()
                                .map(|inbox| {
                                    u32::try_from(inbox.msgs.len()).unwrap_or(u32::MAX)
                                })
                                .collect();
                        }

                        // Phase 3: shard-owned dedup. Shard state is *moved*
                        // into the job and back out — the owning worker holds
                        // the only reference, so no lock guards the index or
                        // the segment.
                        let jobs: Vec<Job> = inboxes
                            .into_iter()
                            .enumerate()
                            .map(|(s, inbox)| Job::Dedup {
                                shard: s,
                                state: Box::new(store.take_shard(s)),
                                inbox,
                            })
                            .collect();
                        let mut fresh: Vec<(usize, FreshSucc)> = Vec::new();
                        for result in pool.submit_and_wait(jobs) {
                            let JobResult::Deduped { shard, state, fresh: f } = result else {
                                unreachable!("dedup received a foreign result")
                            };
                            store.put_shard(shard, *state);
                            fresh.extend(f.into_iter().map(|x| (shard, x)));
                        }

                        // Phase 4: commit. Per-shard fresh lists are already
                        // seq-sorted, so this sort is a merge; global ids come
                        // out in the fused pass's discovery order, which
                        // makes the merged arena bit-identical.
                        fresh.sort_unstable_by_key(|(_, f)| f.seq);
                        for (s, f) in fresh {
                            let gid = store.commit(s, f.slot);
                            push_fresh(
                                &mut parents,
                                &mut succ_counts,
                                Some((f.parent, f.rule)),
                                shed_done,
                            );
                            new_indices.push(gid);
                        }
                        if store.len() >= self.opts.max_states {
                            report.truncated = true;
                        }
                    } else {
                        // Merge on this thread in global sequence order,
                        // each successor at its global turn — the fused
                        // pass's merge exactly, truncation semantics
                        // included. (A shard's inbox preserves the global
                        // order of the messages routed to it, so this is
                        // also the per-shard insertion sequence and the
                        // commit order the routed path produces.)
                        'merge: for chunk in &expanded {
                            let mut item = 0usize;
                            let mut start = 0usize;
                            for (parent, outcome) in &chunk.parents {
                                settle(
                                    *parent,
                                    outcome,
                                    &mut cur,
                                    false,
                                    &store,
                                    &parents,
                                    &mut succ_counts,
                                    &mut report,
                                );
                                let Outcome::Succs(n) = outcome else { continue };
                                let at = store.locate(*parent);
                                for &(rule, end, fp) in &chunk.items[item..item + *n as usize] {
                                    let encoded = &chunk.buf[start..end];
                                    start = end;
                                    if merge(
                                        *parent,
                                        at,
                                        rule,
                                        encoded,
                                        fp,
                                        &mut store,
                                        &mut parents,
                                        &mut succ_counts,
                                        &mut report,
                                    ) {
                                        break 'merge;
                                    }
                                }
                                item += *n as usize;
                            }
                        }
                    }
                    drop(expanded);
                    clock.tock(Phase::Merge, merge_t);
                }
                // ——— Inline level: fused expand+merge, one pass. ———
                // A narrow frontier (or a single-threaded run) gains
                // nothing from the chunk protocol, and the two-phase
                // shape is not free: the level's successor bytes are
                // written to a chunk and re-streamed through the cache
                // before they reach the dedup index. Fusing instead
                // expands each parent into a small per-parent chunk
                // that stays L1-hot and merges it immediately. The
                // message stream keeps the exact global order (frontier
                // order × successor order) and every per-message rule —
                // dedup turn, per-insert truncation, the transient
                // over-cap tail, the memory ladder's mid-level rungs —
                // of the two-phase path, so the bits that come out are
                // identical whichever arm ran the level.
                _ => {
                    let mut pchunk = ExpandedChunk::default();
                    // One clock span for the fused pass: per-parent
                    // timestamps would put two clock reads in the hot
                    // loop — measurably over the telemetry overhead
                    // budget — so inline merges count under expand here
                    // and only the pooled arm reports a true
                    // expand/merge split.
                    let expand_t = clock.tick();
                    'fused: for &parent in &frontier {
                        pchunk.parents.clear();
                        pchunk.items.clear();
                        pchunk.buf.clear();
                        let outcome = expand_one(
                            &self.rules,
                            codec,
                            self.opts.prune.as_ref(),
                            reducer,
                            peer_variants,
                            parent,
                            |cur| store.decode_into(parent, cur),
                            &mut cur,
                            &mut fire_scratch,
                            &mut enc_scratch,
                            &mut canon_scratch,
                            &mut pchunk,
                        );
                        if outcome.is_err() {
                            cur = codec.blank();
                            fire_scratch = codec.blank();
                            canon_scratch = Vec::new();
                        }
                        // `cur` still holds the decoded parent (firing
                        // never mutates the source state); a poisoned
                        // parent's chunk holds no successors.
                        settle(
                            parent,
                            &pchunk.parents[0].1,
                            &mut cur,
                            true,
                            &store,
                            &parents,
                            &mut succ_counts,
                            &mut report,
                        );
                        // Merge this parent's successors at their
                        // global turns.
                        let at = store.locate(parent);
                        let mut start = 0usize;
                        for &(rule, end, fp) in &pchunk.items {
                            let encoded = &pchunk.buf[start..end];
                            start = end;
                            if merge(
                                parent,
                                at,
                                rule,
                                encoded,
                                fp,
                                &mut store,
                                &mut parents,
                                &mut succ_counts,
                                &mut report,
                            ) {
                                break 'fused;
                            }
                        }
                    }
                    clock.tock(Phase::Expand, expand_t);
                }
            }

            let mut stop_violations = report.violations.len() >= self.opts.max_violations
                && !report.violations.is_empty();

            // Phase 5: property checking over freshly committed states —
            // across the pool when it pays, with violations applied in
            // deterministic discovery order either way.
            if !stop_violations && !props.is_empty() && !new_indices.is_empty() {
                let check_t = clock.tick();
                match pool {
                    Some(pool) if new_indices.len() >= expand_min => {
                        let mut found = pool.check(&new_indices, &store);
                        found.sort_by_key(|&(id, prop_idx, _)| (id, prop_idx));
                        for (id, prop_idx, detail) in found {
                            report.violations.push(Violation {
                                property: props[prop_idx].name().to_string(),
                                detail,
                                trace: rebuild_trace(id, &store, &parents),
                            });
                            if report.violations.len() >= self.opts.max_violations {
                                stop_violations = true;
                                break;
                            }
                        }
                    }
                    _ => {
                        for &id in &new_indices {
                            self.check_state(id, &store, &parents, props, &mut report);
                            if report.violations.len() >= self.opts.max_violations
                                && !report.violations.is_empty()
                            {
                                stop_violations = true;
                                break;
                            }
                        }
                    }
                }
                clock.tock(Phase::Check, check_t);
            }

            // Level commit, telemetry side: flight events plus one record
            // of level deltas — before the violation stop below, so every
            // exit path that stored work is covered and a metrics stream
            // always sums exactly to the final report.
            {
                for v in &report.violations[prev_violations..] {
                    flight_note(
                        &mut flight,
                        recorder,
                        FlightKind::Violation,
                        store.len() as u64,
                        0,
                        &v.property,
                    );
                }
                let shed_delta = report.sheds.len() - prev_sheds;
                for shed in &report.sheds[prev_sheds..] {
                    flight_note(
                        &mut flight,
                        recorder,
                        FlightKind::Degradation,
                        degradation_rung(shed.action),
                        shed.footprint as u64,
                        "",
                    );
                }
                let (sealed, faulted) = sharded_spill_counts(&store);
                if sealed > prev_sealed {
                    flight_note(
                        &mut flight,
                        recorder,
                        FlightKind::SpillSeal,
                        sealed - prev_sealed,
                        sealed,
                        "",
                    );
                }
                if faulted > prev_faulted {
                    flight_note(
                        &mut flight,
                        recorder,
                        FlightKind::SpillFault,
                        faulted - prev_faulted,
                        faulted,
                        "",
                    );
                }
                flight_note(
                    &mut flight,
                    recorder,
                    FlightKind::LevelCommit,
                    (depth + 1) as u64,
                    store.len() as u64,
                    "",
                );
                if let Some(rec) = recorder {
                    let phases = clock.drain();
                    phase_total.accumulate(&phases);
                    let transitions_delta = report.transitions - prev_transitions;
                    let reduction_now = reducer.map(|r| r.stats());
                    let record = LevelRecord {
                        depth: depth + 1,
                        stored: new_indices.len(),
                        states_total: store.len(),
                        transitions: transitions_delta,
                        duplicates: transitions_delta.saturating_sub(new_indices.len()),
                        frontier: new_indices.len(),
                        footprint: search_footprint(
                            store.heap_bytes(),
                            parents.capacity(),
                            succ_counts.capacity(),
                            frontier.capacity() + new_indices.capacity(),
                        )
                        .total(),
                        elapsed: level_started.elapsed(),
                        phases,
                        sheds: shed_delta,
                        spill_seals: sealed.saturating_sub(prev_sealed),
                        spill_faults: faulted.saturating_sub(prev_faulted),
                        quarantines: report.quarantined.len() - prev_quarantined,
                        reduction: reduction_now.map(|now| {
                            let base = prev_reduction.unwrap_or_default();
                            ReductionDelta {
                                orbit_canonicalized: now.orbit_canonicalized
                                    - base.orbit_canonicalized,
                                value_canonicalized: now.value_canonicalized
                                    - base.value_canonicalized,
                                ample_steps: now.ample_steps() - base.ample_steps(),
                                canon: now.canon,
                            }
                        }),
                        // One shard routes nothing: no per-shard block.
                        shards: (shards > 1).then(|| ShardLevelStats {
                            queue_depths: std::mem::take(&mut level_queue_depths),
                            imbalance_pct: store.imbalance_pct(),
                        }),
                    };
                    rec.record_level(&record);
                    prev_reduction = reduction_now;
                }
                prev_transitions = report.transitions;
                prev_sheds = report.sheds.len();
                prev_quarantined = report.quarantined.len();
                prev_violations = report.violations.len();
                prev_sealed = sealed;
                prev_faulted = faulted;
                level_started = Instant::now();
            }

            if stop_violations {
                break 'outer;
            }

            depth += 1;
            report.depth = depth;
            if report.truncated {
                break;
            }
            frontier = new_indices;
        }

        // The final checkpoint — written *before* the terminal-statistics
        // presentation rule below, so a resumed run keeps counting from
        // the exact boundary values. `resumable` records whether the stop
        // landed on a level boundary; mid-level stops leave a checkpoint
        // whose report is reconstituted verbatim instead of re-entered.
        //
        // Crash insurance is only worth paying for when there is
        // something to come back for: a truncated run resumes, one with
        // findings reconstitutes. A clean completed run hands its result
        // back right here (any periodic checkpoint is simply left behind;
        // resuming it re-explores to the same clean end).
        if frontier.is_empty() {
            stopped_at_boundary = true;
        }
        let worth_keeping = report.truncated
            || !report.violations.is_empty()
            || !report.deadlocks.is_empty()
            || !report.quarantined.is_empty();
        if let (Some(policy), Some(fp)) = (ckpt.filter(|_| worth_keeping), ckpt_fingerprint) {
            let ckpt_t = clock.tick();
            flight_note(
                &mut flight,
                recorder,
                FlightKind::CheckpointWrite,
                depth as u64,
                store.len() as u64,
                "",
            );
            write_checkpoint(
                &self.rules,
                &policy.dir,
                &mut ckpt_bufs,
                fp,
                stopped_at_boundary,
                depth,
                elapsed_offset + start_time.elapsed(),
                &store,
                &parents,
                &succ_counts,
                &frontier,
                &firings,
                &report,
                reducer.map(|r| r.stats()),
                &flight.events(),
            );
            clock.tock(Phase::Checkpoint, ckpt_t);
        }

        // Terminal statistics were collected on the fly; they are only
        // meaningful (and only reported, matching the naive checker) when
        // the exploration ran to completion with no violations.
        if report.truncated || !report.violations.is_empty() {
            report.terminal_states = 0;
            report.deadlocks.clear();
        }

        report.rule_firings = self
            .rules
            .rule_ids()
            .iter()
            .zip(&firings)
            .filter(|(_, &n)| n > 0)
            .map(|(&id, &n)| (id, n))
            .collect();
        report.states = store.len();
        report.set_footprint(search_footprint(
            store.heap_bytes(),
            parents.capacity(),
            succ_counts.capacity(),
            frontier.capacity(),
        ));
        if let Some(r) = reducer {
            // One pass over the stored representatives prices the
            // device-symmetry engine: Σ orbit sizes is the exact store
            // size of the unreduced equivariant exploration *of that
            // engine alone* (data-symmetry and POR savings only show
            // against a measured unreduced run).
            let stats = r.stats();
            let orbit_states = orbit_states(&store, r);
            report.reduction = Some(ReductionSummary {
                description: r.describe(),
                group_order: stats.group_order,
                orbit_canonicalized: stats.orbit_canonicalized,
                value_canonicalized: stats.value_canonicalized,
                data_symmetry: stats.data_symmetry,
                ample_local: stats.ample_local,
                ample_diamond: stats.ample_diamond,
                ample_host_drain: stats.ample_host_drain,
                por: stats.por,
                canon: stats.canon,
                orbit_states,
            });
        }
        report.shards = shards;
        if shards > 1 {
            report.routed_messages = routed_messages;
            report.shard_imbalance_pct = store.imbalance_pct();
        }
        // Count store compression/spill activity before `into_arena`
        // below (which, sharded, reads every sealed extent once more) —
        // these are run-time figures, not merge-time ones.
        for shard in store.shards.iter().flatten() {
            report.delta_entries += shard.segment.delta_entries() as u64;
            report.spilled_extents += shard.segment.spilled_extents();
            report.faulted_extents += shard.segment.faulted_extents();
        }
        report.elapsed = elapsed_offset + start_time.elapsed();
        phase_total.accumulate(&clock.drain());
        if clock.enabled() {
            report.profile = Some(phase_total);
        }
        report.flight = flight.events();
        if let Some(rec) = recorder {
            rec.finish(&run_summary(&report, phase_total));
        }
        Exploration { report, arena: store.into_arena(), successor_counts: succ_counts }
    }

    /// Property-check a successor that was *not* stored because the state
    /// cap was already reached. Its trace is its parent's trace plus the
    /// final step.
    #[allow(clippy::too_many_arguments)]
    fn check_transient(
        &self,
        parent: usize,
        rule: RuleId,
        succ: &SystemState,
        store: &ShardedStore,
        parents: &[ParentLink],
        props: &[&dyn Property],
        report: &mut Report,
    ) {
        for p in props {
            if let crate::property::PropertyOutcome::Violated(detail) = p.check(succ) {
                let mut trace = rebuild_trace(parent, store, parents);
                trace.steps.push(Step { rule, state: succ.clone() });
                report.violations.push(Violation {
                    property: p.name().to_string(),
                    detail,
                    trace,
                });
                if report.violations.len() >= self.opts.max_violations {
                    return;
                }
            }
        }
    }

    fn check_state(
        &self,
        id: usize,
        store: &ShardedStore,
        parents: &[ParentLink],
        props: &[&dyn Property],
        report: &mut Report,
    ) {
        if props.is_empty() {
            return;
        }
        let st = store.decode(id);
        for p in props {
            let outcome = p.check(&st);
            if let crate::property::PropertyOutcome::Violated(detail) = outcome {
                report.violations.push(Violation {
                    property: p.name().to_string(),
                    detail,
                    trace: rebuild_trace(id, store, parents),
                });
                if report.violations.len() >= self.opts.max_violations {
                    return;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The naive reference implementation.
    // -----------------------------------------------------------------

    /// The pre-optimisation exploration algorithm, retained verbatim as
    /// the oracle for differential testing and as the baseline of the
    /// `mc_throughput` bench: a `HashMap<Arc<SystemState>, usize>` visited
    /// set (full SipHash per probe), freshly allocated successor vectors,
    /// allocation-heavy per-level merging, and a terminal-state rescan
    /// that re-runs successor generation over every reached state after
    /// the search. Its heap visited set is packed into a [`StateArena`]
    /// only at the end, so the two pipelines return the same result type
    /// (and differential tests can compare arenas byte for byte).
    #[must_use]
    pub fn explore_naive(&self, initial: &SystemState, props: &[&dyn Property]) -> Exploration {
        let start = Instant::now();
        let mut report = Report::default();

        let mut states: Vec<Arc<SystemState>> = Vec::new();
        let mut parents: Vec<ParentLink> = Vec::new();
        let mut index: HashMap<Arc<SystemState>, usize> = HashMap::new();

        let init = Arc::new(initial.clone());
        states.push(Arc::clone(&init));
        parents.push(None);
        index.insert(init, 0);

        self.check_state_naive(0, &states, &parents, props, &mut report);

        let mut frontier: Vec<usize> = vec![0];
        let mut depth = 0usize;

        'outer: while !frontier.is_empty() {
            if let Some(md) = self.opts.max_depth {
                if depth >= md {
                    report.truncated = true;
                    break;
                }
            }

            let mut expanded = Vec::new();
            for &id in &frontier {
                let st = &states[id];
                if let Some(prune) = &self.opts.prune {
                    if prune(st) {
                        continue;
                    }
                }
                for (rule, succ) in self.rules.successors_naive(st) {
                    expanded.push((id, rule, succ));
                }
            }

            let mut new_indices = Vec::new();
            for (parent, rule, succ) in expanded {
                *report.rule_firings.entry(rule).or_insert(0) += 1;
                report.transitions += 1;
                let succ = Arc::new(succ);
                if index.contains_key(&succ) {
                    continue;
                }
                let id = states.len();
                states.push(Arc::clone(&succ));
                parents.push(link(parent, rule));
                index.insert(succ, id);
                new_indices.push(id);
                if states.len() >= self.opts.max_states {
                    report.truncated = true;
                    break;
                }
            }

            for &id in &new_indices {
                self.check_state_naive(id, &states, &parents, props, &mut report);
                if report.violations.len() >= self.opts.max_violations
                    && !report.violations.is_empty()
                {
                    break 'outer;
                }
            }

            depth += 1;
            report.depth = depth;
            if report.truncated {
                break;
            }
            frontier = new_indices;
        }

        // The naive terminal-state rescan: a second full pass of
        // successor generation over every reached state.
        let mut succ_counts = vec![NOT_EXPANDED; states.len()];
        if !report.truncated && report.violations.is_empty() {
            for (id, st) in states.iter().enumerate() {
                let n = self.naive_successor_count(st);
                succ_counts[id] = u32::try_from(n).unwrap_or(u32::MAX - 1);
                if n == 0 {
                    report.terminal_states += 1;
                    if !st.is_quiescent() {
                        report.deadlocks.push(Deadlock {
                            trace: rebuild_trace_arcs(id, &states, &parents),
                        });
                    }
                }
            }
        }

        // Pack the visited set so both pipelines return the same shape.
        let mut arena = StateArena::new(StateCodec::new(self.rules.topology()));
        for st in &states {
            arena.push_state(st);
        }

        report.states = arena.len();
        report.set_footprint(Footprint {
            arena: arena.approx_heap_bytes(),
            ..Footprint::default()
        });
        report.elapsed = start.elapsed();
        Exploration { report, arena, successor_counts: succ_counts }
    }

    fn check_state_naive(
        &self,
        id: usize,
        states: &[Arc<SystemState>],
        parents: &[ParentLink],
        props: &[&dyn Property],
        report: &mut Report,
    ) {
        let st = &states[id];
        for p in props {
            let outcome = p.check(st);
            if let crate::property::PropertyOutcome::Violated(detail) = outcome {
                report.violations.push(Violation {
                    property: p.name().to_string(),
                    detail,
                    trace: rebuild_trace_arcs(id, states, parents),
                });
                if report.violations.len() >= self.opts.max_violations {
                    return;
                }
            }
        }
    }

    fn naive_successor_count(&self, s: &SystemState) -> usize {
        if let Some(prune) = &self.opts.prune {
            if prune(s) {
                return 0;
            }
        }
        self.rules.successors_naive(s).len()
    }
}

// ---------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------

/// A unit of work handed to the pool. Both variants ship states as packed
/// bytes: the driver never decodes on behalf of the workers, and the
/// workers never see the arena.
enum Job {
    /// Expand a chunk of frontier states (arena ids + packed bytes).
    Expand { chunk: usize, items: StateBatch },
    /// Property-check a chunk of freshly stored states.
    Check { chunk: usize, items: StateBatch },
    /// Drain a shard's inbox inside its owned (index, segment) pair.
    /// The shard state *moves* through the queue: while the job runs the
    /// worker is the sole owner, so dedup and insertion are lock-free.
    Dedup { shard: usize, state: Box<ShardState>, inbox: Inbox },
}

/// A finished unit of work.
enum JobResult {
    /// The chunk's successors, encoded + fingerprinted, in SoA layout.
    Expanded { chunk: usize, out: ExpandedChunk },
    /// `(state id, property index, violation detail)` triples.
    Checked { chunk: usize, out: Vec<(usize, usize, String)> },
    /// The shard's state handed back to the driver, plus the genuinely
    /// fresh states it stored (seq-tagged for deterministic commit).
    Deduped { shard: usize, state: Box<ShardState>, fresh: Vec<FreshSucc> },
}

struct JobQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the driver and the persistent workers. Workers
/// are spawned once per [`ModelChecker::explore`] call inside a
/// [`std::thread::scope`] and live for the whole search — no per-level
/// thread spawning, no per-level lock on a merged output vector.
struct PoolShared<'a> {
    rules: &'a Ruleset,
    codec: StateCodec,
    prune: Option<&'a Prune>,
    reducer: Option<&'a dyn Reducer>,
    props: &'a [&'a dyn Property],
    queue: Mutex<JobQueue>,
    work_cv: Condvar,
    results: Mutex<Vec<JobResult>>,
    done_cv: Condvar,
}

impl<'a> PoolShared<'a> {
    fn new(
        rules: &'a Ruleset,
        prune: Option<&'a Prune>,
        reducer: Option<&'a dyn Reducer>,
        props: &'a [&'a dyn Property],
    ) -> Self {
        PoolShared {
            rules,
            codec: StateCodec::new(rules.topology()),
            prune,
            reducer,
            props,
            queue: Mutex::new(JobQueue { jobs: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
            results: Mutex::new(Vec::new()),
            done_cv: Condvar::new(),
        }
    }

    fn shutdown(&self) {
        self.queue.lock().expect("queue poisoned").shutdown = true;
        self.work_cv.notify_all();
    }

    /// Worker body: pull jobs until shutdown, reusing one decoded-state
    /// buffer, one rule-firing scratch, and one canonicalization buffer
    /// across all jobs (the per-worker working set of the frontier
    /// pipeline).
    fn worker_loop(&self) {
        let mut cur = self.codec.blank();
        let mut fire_scratch = self.codec.blank();
        let mut enc_scratch: Vec<u8> = Vec::new();
        let mut canon_scratch: Vec<u8> = Vec::new();
        let peer_variants = self.reducer.is_some_and(Reducer::wants_peer_variants);
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.work_cv.wait(q).expect("queue poisoned");
                }
            };
            let result = match job {
                Job::Expand { chunk, items } => {
                    // Supervised expansion through the shared expansion
                    // body ([`expand_one`]): a panic in decode, prune, or
                    // the rule engine poisons that one item — the worker
                    // re-blanks its scratch and keeps serving the queue;
                    // the driver quarantines the state.
                    let mut out = ExpandedChunk {
                        parents: Vec::with_capacity(items.ids.len()),
                        items: Vec::new(),
                        buf: Vec::new(),
                    };
                    for (id, encoded) in items.iter() {
                        let outcome = expand_one(
                            self.rules,
                            self.codec,
                            self.prune,
                            self.reducer,
                            peer_variants,
                            id,
                            |cur| {
                                self.codec
                                    .decode_into(encoded, cur)
                                    .expect("driver ships codec output");
                            },
                            &mut cur,
                            &mut fire_scratch,
                            &mut enc_scratch,
                            &mut canon_scratch,
                            &mut out,
                        );
                        if outcome.is_err() {
                            cur = self.codec.blank();
                            fire_scratch = self.codec.blank();
                            canon_scratch = Vec::new();
                        }
                    }
                    JobResult::Expanded { chunk, out }
                }
                Job::Check { chunk, items } => {
                    let mut out = Vec::new();
                    for (id, encoded) in items.iter() {
                        self.codec
                            .decode_into(encoded, &mut cur)
                            .expect("driver ships codec output");
                        for (prop_idx, p) in self.props.iter().enumerate() {
                            if let crate::property::PropertyOutcome::Violated(detail) =
                                p.check(&cur)
                            {
                                out.push((id, prop_idx, detail));
                            }
                        }
                    }
                    JobResult::Checked { chunk, out }
                }
                Job::Dedup { shard, mut state, inbox } => {
                    let fresh = dedup_into_shard(&mut state, &inbox);
                    JobResult::Deduped { shard, state, fresh }
                }
            };
            self.results.lock().expect("results poisoned").push(result);
            self.done_cv.notify_all();
        }
    }

    /// Enqueue `jobs` and block until all have completed.
    fn submit_and_wait(&self, jobs: Vec<Job>) -> Vec<JobResult> {
        let n = jobs.len();
        {
            let mut q = self.queue.lock().expect("queue poisoned");
            q.jobs.extend(jobs);
        }
        self.work_cv.notify_all();
        let mut results = self.results.lock().expect("results poisoned");
        while results.len() < n {
            results = self.done_cv.wait(results).expect("results poisoned");
        }
        std::mem::take(&mut *results)
    }

    /// Chunk size balancing queue overhead against load balance.
    fn chunk_size(len: usize) -> usize {
        (len / 64).clamp(16, 512)
    }

    /// Expand a frontier across the pool, returning one successor chunk
    /// per job in frontier order (deterministic merge by chunk index).
    /// The outbound protocol copies each chunk's packed state bytes out
    /// of the store into one batched buffer — a few dozen bytes per
    /// state, zero per-state allocations.
    fn expand(&self, frontier: &[usize], store: &ShardedStore) -> Vec<ExpandedChunk> {
        let chunk_size = Self::chunk_size(frontier.len());
        let jobs: Vec<Job> = frontier
            .chunks(chunk_size)
            .enumerate()
            .map(|(chunk, ids)| Job::Expand { chunk, items: StateBatch::of(ids, store) })
            .collect();
        let mut results = self.submit_and_wait(jobs);
        results.sort_by_key(|r| match r {
            JobResult::Expanded { chunk, .. } | JobResult::Checked { chunk, .. } => *chunk,
            JobResult::Deduped { .. } => unreachable!("expand received a dedup result"),
        });
        results
            .into_iter()
            .map(|r| match r {
                JobResult::Expanded { out, .. } => out,
                JobResult::Checked { .. } | JobResult::Deduped { .. } => {
                    unreachable!("expand received a foreign result")
                }
            })
            .collect()
    }

    /// Property-check freshly stored states across the pool, returning
    /// `(state id, property index, detail)` triples (unordered; the
    /// driver sorts by discovery order).
    fn check(&self, ids: &[usize], store: &ShardedStore) -> Vec<(usize, usize, String)> {
        let chunk_size = Self::chunk_size(ids.len());
        let jobs: Vec<Job> = ids
            .chunks(chunk_size)
            .enumerate()
            .map(|(chunk, ids)| Job::Check { chunk, items: StateBatch::of(ids, store) })
            .collect();
        self.submit_and_wait(jobs)
            .into_iter()
            .flat_map(|r| match r {
                JobResult::Checked { out, .. } => out,
                JobResult::Expanded { .. } | JobResult::Deduped { .. } => {
                    unreachable!("check received a foreign result")
                }
            })
            .collect()
    }
}

/// A worker pool whose threads spawn on first use. The search's phase
/// gates are work-based, so a run whose levels are all narrow
/// enough to process inline never submits a job — and with this wrapper
/// it never pays thread spawn/join either (on an oversold single-core
/// host that round-trip alone is a measurable slice of a small check).
struct LazyPool<'scope, 'env> {
    shared: &'scope PoolShared<'env>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    threads: usize,
    spawned: Cell<bool>,
}

impl LazyPool<'_, '_> {
    fn ensure_spawned(&self) {
        if !self.spawned.replace(true) {
            for _ in 0..self.threads {
                let shared = self.shared;
                self.scope.spawn(move || shared.worker_loop());
            }
        }
    }

    fn expand(&self, frontier: &[usize], store: &ShardedStore) -> Vec<ExpandedChunk> {
        self.ensure_spawned();
        self.shared.expand(frontier, store)
    }

    fn submit_and_wait(&self, jobs: Vec<Job>) -> Vec<JobResult> {
        self.ensure_spawned();
        self.shared.submit_and_wait(jobs)
    }

    fn check(&self, ids: &[usize], store: &ShardedStore) -> Vec<(usize, usize, String)> {
        self.ensure_spawned();
        self.shared.check(ids, store)
    }
}

/// Full resident footprint of the search, the quantity
/// [`CheckOptions::mem_budget`] bounds, per structure: the store's
/// `(arena, index)` bytes ([`ShardedStore::heap_bytes`]), the parent
/// links, the successor counts, and the frontier queues (`queue_slots` =
/// total `usize` slots across them).
fn search_footprint(
    (arena, index): (usize, usize),
    parents_cap: usize,
    succ_counts_cap: usize,
    queue_slots: usize,
) -> Footprint {
    Footprint {
        arena,
        index,
        parents: parents_cap * std::mem::size_of::<ParentLink>(),
        succ_counts: succ_counts_cap * std::mem::size_of::<u32>(),
        frontier: queue_slots * std::mem::size_of::<usize>(),
    }
}

// ---------------------------------------------------------------------
// The sharded visited set.
// ---------------------------------------------------------------------

/// One shard of the visited set: a private dedup index over a private
/// packed-state segment. The pair moves wholesale through the job queue,
/// so the worker draining a shard's inbox mutates both as the sole owner
/// — no shared visited set, no lock, no atomics.
struct ShardState {
    index: FpIndex,
    segment: StateArena,
}

/// The search's visited set: S shard-owned (index, segment) pairs plus,
/// with more than one shard, a global directory mapping discovery-order
/// global ids to `(shard, slot)` — the bookkeeping that makes shard-local
/// storage look like one arena (and merge back into one,
/// byte-identically, for checkpoints and the returned [`Exploration`]).
/// With one shard there is no directory: global ids are slots of the
/// lone segment, which *is* the returned arena.
///
/// Shards are held in `Option`s so [`Self::take_shard`] can move a
/// shard's state into a [`Job::Dedup`] and [`Self::put_shard`] can slot
/// it back when the result returns; outside a dedup barrier every shard
/// is home. The state count is kept apart from the shards for that
/// reason.
struct ShardedStore {
    codec: StateCodec,
    shards: Vec<Option<ShardState>>,
    /// `(shard, slot)` per global id; empty with one shard.
    dir: Vec<(u32, u32)>,
    len: usize,
}

impl ShardedStore {
    fn new(codec: StateCodec, shards: usize) -> Self {
        ShardedStore {
            codec,
            shards: (0..shards.max(1))
                .map(|_| {
                    Some(ShardState { index: FpIndex::new(), segment: StateArena::new(codec) })
                })
                .collect(),
            dir: Vec::new(),
            len: 0,
        }
    }

    /// The store a resumed run continues from: a checkpoint's merged
    /// `arena` (with each state's fingerprint in `fps`) scattered back
    /// into per-shard segments. The routing function is a pure function
    /// of the fingerprint, and replaying inserts in global discovery
    /// order reproduces each shard's insertion order — so the
    /// reconstituted per-shard layout is exactly what a run that was
    /// never interrupted would hold (for any writing shard count: the
    /// merged layout is shard-count-free). One shard takes the arena
    /// over as its segment, with an index sized once and never grown:
    /// dedup answers depend only on which states are indexed, not on
    /// where the table places them.
    fn restore(codec: StateCodec, shards: usize, arena: StateArena, fps: &[u64]) -> Self {
        let mut store = ShardedStore::new(codec, shards);
        if store.shards.len() == 1 {
            let mut index = FpIndex::with_capacity(arena.len());
            for (gid, &fp) in fps.iter().enumerate() {
                let slot = u32::try_from(gid).expect("state count fits u32");
                index.insert(fp, slot, |id| arena.bytes_of(id as usize) == arena.bytes_of(gid));
            }
            store.len = arena.len();
            store.shards[0] = Some(ShardState { index, segment: arena });
            return store;
        }
        for (gid, &fp) in fps.iter().enumerate() {
            let s = shard_of(fp, shards);
            let ShardState { index, segment } = store.shard_mut(s);
            let slot = u32::try_from(segment.len()).expect("state count fits u32");
            index.insert(fp, slot, |id| segment.bytes_of(id as usize) == arena.bytes_of(gid));
            segment.push_encoded(arena.bytes_of(gid));
            store.commit(s, slot);
        }
        store
    }

    /// Total stored states (across all shards, home or not).
    fn len(&self) -> usize {
        self.len
    }

    /// Where global id `gid` lives: `(shard, slot)`.
    fn locate(&self, gid: usize) -> (usize, u32) {
        if self.shards.len() == 1 {
            (0, u32::try_from(gid).expect("state count fits u32"))
        } else {
            let (s, slot) = self.dir[gid];
            (s as usize, slot)
        }
    }

    /// Record the state just appended at `slot` of shard `s` under the
    /// next global id, and return that id.
    fn commit(&mut self, s: usize, slot: u32) -> usize {
        if self.shards.len() > 1 {
            self.dir.push((u32::try_from(s).expect("shard fits u32"), slot));
        }
        self.len += 1;
        self.len - 1
    }

    fn shard(&self, s: usize) -> &ShardState {
        self.shards[s].as_ref().expect("shard is home")
    }

    fn shard_mut(&mut self, s: usize) -> &mut ShardState {
        self.shards[s].as_mut().expect("shard is home")
    }

    /// Move shard `s`'s state out, to ship through the job queue.
    fn take_shard(&mut self, s: usize) -> ShardState {
        self.shards[s].take().expect("shard is home")
    }

    /// Return shard `s`'s state after a dedup job.
    fn put_shard(&mut self, s: usize, state: ShardState) {
        debug_assert!(self.shards[s].is_none(), "shard returned twice");
        self.shards[s] = Some(state);
    }

    /// `(arena, index)` store bytes: every shard's segment plus the
    /// global directory, and every shard's index.
    fn heap_bytes(&self) -> (usize, usize) {
        let mut arena = self.dir.capacity() * std::mem::size_of::<(u32, u32)>();
        let mut index = 0;
        for shard in self.shards.iter().flatten() {
            arena += shard.segment.approx_heap_bytes();
            index += shard.index.approx_heap_bytes();
        }
        (arena, index)
    }

    /// The degradation ladder's shed step, per shard.
    fn shrink_to_fit(&mut self) {
        for shard in self.shards.iter_mut().flatten() {
            shard.index.shrink_to_fit();
            shard.segment.shrink_to_fit();
        }
        self.dir.shrink_to_fit();
    }

    /// Total resident payload bytes across shard segments — the spill
    /// watermark's input.
    fn resident_payload_bytes(&self) -> usize {
        self.shards.iter().flatten().map(|s| s.segment.resident_payload_bytes()).sum()
    }

    /// Seal every shard's entries below the current frontier (global
    /// ids) into cold extents and drop them from RAM. Commits append to
    /// each shard in global order, so a level's slots are a suffix of
    /// its shard segment — everything below the frontier's minimum slot
    /// per shard is fully expanded. No-op on shards without spill armed.
    fn spill_cold_below(&mut self, frontier: &[usize]) {
        let mut floors: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.as_ref().map_or(0, |s| s.segment.len()))
            .collect();
        for &gid in frontier {
            let (s, slot) = self.locate(gid);
            // Seal below the frontier's keyframe-chain roots, not its
            // raw slots, so expanding the frontier never faults.
            floors[s] = floors[s].min(self.shard(s).segment.decode_floor(slot as usize));
        }
        for (s, floor) in floors.iter().enumerate() {
            if let Some(shard) = &mut self.shards[s] {
                let _ = shard.segment.spill_cold(*floor);
            }
        }
    }

    /// How far the most loaded shard sits above a perfect split:
    /// `(max − mean) / mean`, in percent, over per-shard state counts.
    /// 0% is a perfectly even partition; the fingerprint routing keeps
    /// this small for any workload big enough to matter.
    fn imbalance_pct(&self) -> f64 {
        let lens: Vec<usize> =
            self.shards.iter().flatten().map(|s| s.segment.len()).collect();
        if lens.is_empty() {
            return 0.0;
        }
        let max = lens.iter().copied().max().unwrap_or(0) as f64;
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            (max - mean) / mean * 100.0
        }
    }

    /// The visited set as one arena in global discovery order, for the
    /// returned [`Exploration`]. One shard hands its segment over as it
    /// stands (still delta-encoded and spilled, if it was); more are
    /// merged into one plain arena from one
    /// [`Self::append_all_full_bytes`] pass — the same state sequence,
    /// so the result is shard-count-free.
    fn into_arena(mut self) -> StateArena {
        if self.shards.len() == 1 {
            return self.take_shard(0).segment;
        }
        let (mut payload, mut ends) = (Vec::new(), Vec::new());
        self.append_all_full_bytes(&mut payload, &mut ends);
        StateArena::from_full_bytes(self.codec, payload, ends)
    }

    /// Append state `id`'s **full encoding** to `out` — materialized
    /// from its delta chain / spilled extent when the store compresses,
    /// byte-identical to what was originally stored.
    fn append_full_bytes(&self, id: usize, out: &mut Vec<u8>) {
        let (s, slot) = self.locate(id);
        self.shard(s).segment.append_full_bytes(slot as usize, out);
    }

    /// Append every state's full encoding to `out` in global id order,
    /// pushing each one's end offset in `out` onto `ends` — one
    /// sequential pass over the store (each sealed extent read once,
    /// each delta decoded once), for checkpoints and end-of-run passes.
    ///
    /// Sharded, this walks `dir` in global order with one
    /// [`EntryCursor`] per shard (shards fill in global order, so each
    /// cursor moves forward and reads each of its extents once). A
    /// delta's base is a slot of the same shard; a per-shard slot→gid
    /// table — kept only for shards holding deltas — locates its bytes
    /// in `out`, so no per-shard copy of the payload is made.
    fn append_all_full_bytes(&self, out: &mut Vec<u8>, ends: &mut Vec<usize>) {
        if self.shards.len() == 1 {
            self.shard(0).segment.append_all_full_bytes(out, ends);
            return;
        }
        let segments: Vec<&StateArena> =
            (0..self.shards.len()).map(|s| &self.shard(s).segment).collect();
        out.reserve_exact(segments.iter().map(|seg| seg.full_payload_bytes()).sum());
        ends.reserve_exact(self.dir.len());
        let (start, first) = (out.len(), ends.len());
        let mut cursors: Vec<EntryCursor<'_>> = segments.iter().map(|seg| seg.cursor()).collect();
        let mut slot_gid: Vec<Vec<u32>> = segments
            .iter()
            .map(|seg| if seg.delta_entries() > 0 { vec![u32::MAX; seg.len()] } else { Vec::new() })
            .collect();
        for (gid, &(s, slot)) in self.dir.iter().enumerate() {
            let (s, slot) = (s as usize, slot as usize);
            let gids = &mut slot_gid[s];
            if !gids.is_empty() {
                gids[slot] = u32::try_from(gid).expect("global ids fit the directory's u32 slots");
            }
            cursors[s].append_full(slot, out, |base| {
                let g = gids[base] as usize;
                debug_assert!(g < gid, "delta base slot {base} not yet materialized");
                let lo = if g == 0 { start } else { ends[first + g - 1] };
                lo..ends[first + g]
            });
            ends.push(out.len());
        }
    }

    fn decode(&self, id: usize) -> SystemState {
        let (s, slot) = self.locate(id);
        self.shard(s).segment.decode(slot as usize)
    }

    fn decode_into(&self, id: usize, out: &mut SystemState) {
        let (s, slot) = self.locate(id);
        self.shard(s).segment.decode_into(slot as usize, out);
    }
}

/// A successor in flight to its owning shard: the global sequence number
/// (frontier order × successor order — the fused pass's merge order),
/// the discovering edge, and the end offset of its packed
/// (canonical) bytes in the carrying [`Inbox`]'s buffer, plus their
/// fingerprint.
struct RoutedMsg {
    seq: u64,
    parent: u32,
    rule: RuleId,
    end: usize,
    fp: u64,
    /// The parent's shard-local slot when it lives in the *destination*
    /// shard (the delta-eligible case), else `u32::MAX`. Resolved by the
    /// router, which holds the global directory; the draining worker
    /// only ever sees same-shard bases.
    base: u32,
}

/// One shard's per-level mailbox: routed messages plus all their packed
/// bytes in a single buffer (messages hold end offsets — same SoA
/// rationale as [`ExpandedChunk`]: the mailbox costs two allocations per
/// level, not one per successor).
#[derive(Default)]
struct Inbox {
    msgs: Vec<RoutedMsg>,
    buf: Vec<u8>,
}

/// A genuinely fresh state a shard stored while draining its inbox:
/// where it landed (shard-local slot) and its discovering edge, tagged
/// with the global sequence number so the commit barrier can assign
/// global ids in deterministic discovery order.
struct FreshSucc {
    seq: u64,
    parent: u32,
    rule: RuleId,
    slot: u32,
}

/// Drain one shard's inbox into its owned (index, segment) pair:
/// probe-or-insert each message in sequence order, appending survivors
/// to the segment. Single-owner mutation — runs lock-free on whichever
/// worker holds the shard. Inbox order is globally seq-sorted (the
/// router assigns seq monotonically), so per-shard insertion order — and
/// hence each shard's segment layout and index bucket layout — is
/// deterministic regardless of which worker runs the job or when.
fn dedup_into_shard(state: &mut ShardState, inbox: &Inbox) -> Vec<FreshSucc> {
    let ShardState { index, segment } = state;
    let mut fresh = Vec::new();
    let mut start = 0usize;
    for msg in &inbox.msgs {
        let bytes = &inbox.buf[start..msg.end];
        start = msg.end;
        let slot = u32::try_from(segment.len()).expect("state count fits u32");
        if index
            .insert(msg.fp, slot, |id| segment.entry_matches(id as usize, bytes))
            .is_none()
        {
            segment
                .push_encoded_delta(bytes, (msg.base != u32::MAX).then_some(msg.base));
            fresh.push(FreshSucc { seq: msg.seq, parent: msg.parent, rule: msg.rule, slot });
        }
    }
    fresh
}

/// Append one successor's encoded (canonical) bytes, fingerprint, and
/// item entry to `chunk` — the emission kernel of [`expand_one`].
fn emit_succ(
    chunk: &mut ExpandedChunk,
    codec: StateCodec,
    reducer: Option<&dyn Reducer>,
    enc_scratch: &mut Vec<u8>,
    canon_scratch: &mut Vec<u8>,
    rule: RuleId,
    succ: &SystemState,
) {
    let start = chunk.buf.len();
    if let Some(r) = reducer {
        // Canonicalization rewrites the encoding in place, so it goes
        // through a reusable side buffer rather than the chunk's
        // append-only one.
        enc_scratch.clear();
        codec.encode_into(succ, enc_scratch);
        r.canonicalize(enc_scratch, canon_scratch);
        chunk.buf.extend_from_slice(enc_scratch);
    } else {
        codec.encode_into(succ, &mut chunk.buf);
    }
    let fp = StateCodec::fingerprint(&chunk.buf[start..]);
    chunk.items.push((rule, chunk.buf.len(), fp));
}

/// Expand one frontier state into `chunk` — the single expansion body
/// shared by the fused inline pass and the pool workers (same
/// supervision, same reduction path, same output layout).
///
/// `decode` materializes the parent into `cur` and runs *inside* the
/// supervision boundary: a panic anywhere in decode, prune, reduction,
/// rule firing, encoding, or canonicalization poisons this one parent.
/// On poison, every partially emitted successor is rolled back, so a
/// quarantined state contributes exactly zero successors, and the caller
/// must re-blank the scratch states (the panic may have left them torn).
#[allow(clippy::too_many_arguments)]
fn expand_one(
    rules: &Ruleset,
    codec: StateCodec,
    prune: Option<&Prune>,
    reducer: Option<&dyn Reducer>,
    peer_variants: bool,
    parent: usize,
    decode: impl FnOnce(&mut SystemState),
    cur: &mut SystemState,
    fire_scratch: &mut SystemState,
    enc_scratch: &mut Vec<u8>,
    canon_scratch: &mut Vec<u8>,
    chunk: &mut ExpandedChunk,
) -> Result<(), String> {
    let items_mark = chunk.items.len();
    let buf_mark = chunk.buf.len();
    let expanded = catch_unwind(AssertUnwindSafe(|| {
        decode(cur);
        if prune.is_some_and(|prune| prune(cur)) {
            return;
        }
        let mut emit = |rule: RuleId, succ: &SystemState| {
            emit_succ(chunk, codec, reducer, enc_scratch, canon_scratch, rule, succ);
        };
        match reducer.and_then(|r| r.ample_step(rules, cur, fire_scratch)) {
            Some(rule) => emit(rule, fire_scratch),
            None if peer_variants => rules.for_each_enabled_variants(cur, fire_scratch, emit),
            None => rules.for_each_enabled(cur, fire_scratch, emit),
        }
    }));
    match expanded {
        Ok(()) => {
            let emitted = u32::try_from(chunk.items.len() - items_mark)
                .unwrap_or(u32::MAX - 1);
            chunk.parents.push((parent, Outcome::Succs(emitted)));
            Ok(())
        }
        Err(payload) => {
            chunk.items.truncate(items_mark);
            chunk.buf.truncate(buf_mark);
            let message = panic_message(payload.as_ref());
            chunk.parents.push((parent, Outcome::Poisoned(message.clone())));
            Err(message)
        }
    }
}

/// Run-total (sealed, faulted) extent counters summed over shard
/// segments — the sharded analogue of the arena's own counters.
fn sharded_spill_counts(store: &ShardedStore) -> (u64, u64) {
    let mut sealed = 0;
    let mut faulted = 0;
    for shard in store.shards.iter().flatten() {
        sealed += shard.segment.spilled_extents();
        faulted += shard.segment.faulted_extents();
    }
    (sealed, faulted)
}

/// Σ orbit sizes over every stored representative — the exact store
/// size of the unreduced equivariant exploration under the
/// device-symmetry engine alone — read through one
/// [`ShardedStore::append_all_full_bytes`] pass.
fn orbit_states(store: &ShardedStore, reducer: &dyn Reducer) -> u64 {
    let (mut payload, mut ends) = (Vec::new(), Vec::new());
    store.append_all_full_bytes(&mut payload, &mut ends);
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let full = &payload[start..end];
            start = end;
            reducer.orbit_size(full)
        })
        .sum()
}

/// The buffers a driver keeps across its checkpoint writes: the store
/// materialized in full, its entry ends, and the encoded file. A
/// checkpoint at every level would otherwise allocate, page in and free
/// three store-sized buffers per level.
#[derive(Default)]
struct CheckpointBuffers {
    payload: Vec<u8>,
    ends: Vec<usize>,
    file: Vec<u8>,
}

/// Serialize the search state and write it (atomically) to the policy
/// directory, reusing `bufs`. A failed write degrades to a stderr
/// warning and the search continues — the resilience layer must not
/// become a crash source itself.
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    rules: &Ruleset,
    dir: &std::path::Path,
    bufs: &mut CheckpointBuffers,
    fingerprint: u64,
    resumable: bool,
    depth: usize,
    elapsed: Duration,
    store: &ShardedStore,
    parents: &[ParentLink],
    succ_counts: &[u32],
    frontier: &[usize],
    firings: &[u64],
    report: &Report,
    reduction_stats: Option<ReductionStats>,
    flight: &[FlightEvent],
) {
    let CheckpointBuffers { payload, ends, file } = bufs;
    payload.clear();
    ends.clear();
    store.append_all_full_bytes(payload, ends);
    let source = CheckpointSource {
        fingerprint,
        resumable,
        depth,
        elapsed,
        transitions: report.transitions,
        terminal_states: report.terminal_states,
        truncated: report.truncated,
        truncated_by_memory: report.truncated_by_memory,
        truncated_by_time: report.truncated_by_time,
        payload,
        ends,
        parents,
        succ_counts,
        frontier,
        firings,
        violations: &report.violations,
        deadlocks: &report.deadlocks,
        quarantined: &report.quarantined,
        sheds: &report.sheds,
        reduction_stats,
        flight,
    };
    if let Err(e) = source.write_atomic(rules, dir, file) {
        eprintln!("warning: checkpoint write failed: {e}");
    }
}

/// Record a flight event, mirroring it to the telemetry recorder (the
/// ring may be disabled — capacity 0 — in which case nothing happens).
fn flight_note(
    ring: &mut FlightRing,
    recorder: Option<&dyn cxl_telemetry::Recorder>,
    kind: FlightKind,
    a: u64,
    b: u64,
    detail: &str,
) {
    if let Some(event) = ring.push(kind, a, b, detail) {
        if let Some(rec) = recorder {
            rec.record_event(event);
        }
    }
}

/// The flight-event rung code of a degradation-ladder action (see
/// [`FlightKind::Degradation`]).
fn degradation_rung(action: DegradationAction) -> u64 {
    match action {
        DegradationAction::ShedBuffers { .. } => 0,
        DegradationAction::EmergencyCheckpoint => 1,
        DegradationAction::Truncate => 2,
    }
}

/// The end-of-run roll-up handed to [`cxl_telemetry::Recorder::finish`]:
/// a mirror of the final report's headline numbers.
fn run_summary(report: &Report, phases: PhaseNanos) -> RunSummary {
    RunSummary {
        states: report.states,
        transitions: report.transitions,
        depth: report.depth,
        violations: report.violations.len(),
        deadlocks: report.deadlocks.len(),
        quarantined: report.quarantined.len(),
        truncated: report.truncated,
        clean: report.clean(),
        elapsed: report.elapsed,
        footprint: report.memory_bytes,
        phases,
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Build the quarantine record for a poison state: its packed bytes plus
/// a decoded dump (itself guarded — if decoding is what panicked, the
/// dump degrades to a placeholder instead of re-panicking).
fn quarantine_of(state: usize, store: &ShardedStore, message: String) -> Quarantine {
    let dump = catch_unwind(AssertUnwindSafe(|| store.decode(state).to_string()))
        .unwrap_or_else(|_| "<undecodable>".to_string());
    let mut packed = Vec::new();
    store.append_full_bytes(state, &mut packed);
    Quarantine { state, packed, dump, message }
}

/// Rebuild the trace from the initial state to state `id` via parent
/// links, decoding each step's state from the packed store.
fn rebuild_trace(id: usize, store: &ShardedStore, parents: &[ParentLink]) -> Trace {
    let mut rev = Vec::new();
    let mut cur = id;
    while let Some((parent, rule)) = parents[cur] {
        rev.push(Step { rule, state: store.decode(cur) });
        cur = parent as usize;
    }
    rev.reverse();
    Trace { initial: store.decode(cur), steps: rev }
}

/// [`rebuild_trace`] over the naive pipeline's heap visited set.
fn rebuild_trace_arcs(id: usize, states: &[Arc<SystemState>], parents: &[ParentLink]) -> Trace {
    let mut rev = Vec::new();
    let mut cur = id;
    while let Some((parent, rule)) = parents[cur] {
        rev.push(Step { rule, state: (*states[cur]).clone() });
        cur = parent as usize;
    }
    rev.reverse();
    Trace { initial: (*states[cur]).clone(), steps: rev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{boolean_property, SwmrProperty};
    use cxl_core::instr::programs;
    use cxl_core::{ProtocolConfig, Relaxation};

    fn checker(cfg: ProtocolConfig) -> ModelChecker {
        ModelChecker::new(Ruleset::new(cfg))
    }

    #[test]
    fn empty_programs_yield_single_quiescent_state() {
        let mc = checker(ProtocolConfig::strict());
        let exp = mc.explore(&SystemState::initial(vec![], vec![]), &[&SwmrProperty]);
        assert_eq!(exp.report.states, 1);
        assert_eq!(exp.report.terminal_states, 1);
        assert!(exp.report.clean());
        assert_eq!(exp.is_terminal(0), Some(true));
    }

    #[test]
    fn single_load_explores_and_terminates_cleanly() {
        let mc = checker(ProtocolConfig::strict());
        let exp = mc.explore(&SystemState::initial(programs::load(), vec![]), &[&SwmrProperty]);
        assert!(exp.report.clean(), "{}", exp.report);
        assert!(exp.report.states > 3);
        assert!(!exp.report.truncated);
        // Every terminal state is quiescent; the load must complete.
        assert!(exp.report.terminal_states >= 1);
        assert_eq!(exp.terminal_indices().count(), exp.report.terminal_states);
    }

    #[test]
    fn store_load_race_is_coherent_under_strict_config() {
        let mc = checker(ProtocolConfig::strict());
        let init = SystemState::initial(programs::store(42), programs::load());
        let report = mc.check(&init, &[&SwmrProperty]);
        assert!(report.clean(), "{report}");
        assert!(report.states > 20, "the race should produce real interleaving");
    }

    #[test]
    fn arena_decodes_back_to_real_states() {
        // The packed store is the canonical record: state 0 decodes to
        // the initial state, and every stored state decodes to something
        // the codec re-encodes to the same bytes.
        let mc = checker(ProtocolConfig::strict());
        let init = SystemState::initial(programs::store(42), programs::load());
        let exp = mc.explore(&init, &[]);
        assert_eq!(exp.state(0), init);
        for id in 0..exp.len() {
            let decoded = exp.state(id);
            assert_eq!(
                exp.arena.codec().encode(&decoded),
                exp.arena.bytes_of(id),
                "state {id} did not round-trip"
            );
        }
        assert!(exp.bytes_per_state() > 0.0);
        assert!(exp.report.memory_bytes >= exp.arena.byte_len());
    }

    #[test]
    fn footprint_parts_sum_to_memory_bytes_at_one_and_two_shards() {
        let init = SystemState::initial(programs::store(42), programs::load());
        for shards in [None, Some(2)] {
            let mc = ModelChecker::with_options(
                Ruleset::new(ProtocolConfig::strict()),
                CheckOptions { shards, ..CheckOptions::default() },
            );
            let exp = mc.explore(&init, &[]);
            let (fp, states) = (exp.report.footprint, exp.report.states);
            assert_eq!(fp.total(), exp.report.memory_bytes, "{shards:?}: {fp:?}");
            assert!(fp.arena >= exp.arena.byte_len(), "{shards:?}: {fp:?}");
            assert!(fp.index >= states * 12, "{shards:?}: {fp:?}");
            assert!(fp.parents >= states * 8 && fp.parents % 8 == 0, "{shards:?}: {fp:?}");
            assert!(fp.succ_counts >= states * 4, "{shards:?}: {fp:?}");
        }
    }

    #[test]
    fn violation_traces_replay_from_initial_state() {
        // Force a violation with a trivially false property and confirm the
        // trace replays.
        let mc = checker(ProtocolConfig::strict());
        let init = SystemState::initial(programs::load(), vec![]);
        let p = boolean_property("no_isad", |s: &SystemState| {
            s.dev(cxl_core::DeviceId::D1).cache.state != cxl_core::DState::ISAD
        });
        let report = mc.check(&init, &[&p]);
        assert_eq!(report.violations.len(), 1);
        let trace = &report.violations[0].trace;
        // Replay the trace through the rule engine.
        let rules = Ruleset::new(ProtocolConfig::strict());
        let mut cur = trace.initial.clone();
        for step in &trace.steps {
            cur = rules.try_fire(step.rule, &cur).expect("trace step must be enabled");
            assert_eq!(&cur, &step.state, "trace state mismatch");
        }
    }

    #[test]
    fn four_threads_match_one_thread() {
        let init = SystemState::initial(programs::store(1), programs::store(2));
        let seq = checker(ProtocolConfig::strict()).explore(&init, &[]);
        let opts = CheckOptions { threads: 4, ..CheckOptions::default() };
        let par = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[]);
        assert_eq!(seq.report.states, par.report.states);
        assert_eq!(seq.report.transitions, par.report.transitions);
        // Deterministic merge: the packed arenas are byte-identical.
        assert_eq!(seq.arena, par.arena);
        assert_eq!(seq.successor_counts, par.successor_counts);
    }

    #[test]
    fn optimized_exploration_matches_naive_reference() {
        let init = SystemState::initial(programs::stores(0, 2), programs::loads(2));
        for cfg in [
            ProtocolConfig::strict(),
            ProtocolConfig::full(),
            ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
        ] {
            let mc = checker(cfg);
            let fast = mc.explore(&init, &[]);
            let naive = mc.explore_naive(&init, &[]);
            assert_eq!(fast.report.states, naive.report.states);
            assert_eq!(fast.report.transitions, naive.report.transitions);
            assert_eq!(fast.report.depth, naive.report.depth);
            assert_eq!(fast.report.terminal_states, naive.report.terminal_states);
            assert_eq!(fast.report.rule_firings, naive.report.rule_firings);
            assert_eq!(fast.arena, naive.arena, "discovery order must match");
            assert_eq!(fast.successor_counts, naive.successor_counts);
        }
    }

    #[test]
    fn prune_limits_expansion() {
        let init = SystemState::initial(programs::load(), vec![]);
        let opts = CheckOptions {
            prune: Some(Arc::new(|s: &SystemState| s.counter > 0) as Prune),
            ..CheckOptions::default()
        };
        let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
        let exp = mc.explore(&init, &[]);
        assert_eq!(exp.report.states, 2, "only the first transition survives pruning");
    }

    #[test]
    fn max_states_truncates() {
        let init = SystemState::initial(programs::stores(0, 3), programs::loads(3));
        let opts = CheckOptions { max_states: 50, ..CheckOptions::default() };
        let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
        let exp = mc.explore(&init, &[]);
        assert!(exp.report.truncated);
        assert!(!exp.report.truncated_by_memory);
        assert!(exp.report.states <= 51);
    }

    #[test]
    fn mem_budget_truncates_cleanly() {
        // A budget far below the space's packed footprint stops the
        // search like max_states does — with the memory flag raised and
        // the store bounded — instead of exhausting the host.
        let init = SystemState::initial(programs::stores(0, 3), programs::loads(3));
        let opts = CheckOptions { mem_budget: Some(2048), ..CheckOptions::default() };
        let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
        let exp = mc.explore(&init, &[]);
        assert!(exp.report.truncated);
        assert!(exp.report.truncated_by_memory);
        let unbounded = checker(ProtocolConfig::strict()).explore(&init, &[]);
        assert!(
            exp.report.states < unbounded.report.states,
            "budgeted run must store fewer states ({} vs {})",
            exp.report.states,
            unbounded.report.states
        );
        // Everything stored still decodes.
        assert_eq!(exp.state(0), init);
    }

    #[test]
    fn truncated_batches_are_still_property_checked() {
        // Regression test: states generated in the same BFS batch after
        // `max_states` is reached used to be silently dropped without a
        // property check. With a cap of 1, every state beyond the initial
        // one is over-cap — the violating ISAD state must still be found.
        let init = SystemState::initial(programs::load(), vec![]);
        let opts = CheckOptions { max_states: 1, ..CheckOptions::default() };
        let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
        let p = boolean_property("no_isad", |s: &SystemState| {
            s.dev(cxl_core::DeviceId::D1).cache.state != cxl_core::DState::ISAD
        });
        let report = mc.check(&init, &[&p]);
        assert!(report.truncated);
        assert_eq!(report.violations.len(), 1, "over-cap state must be checked");
        // The transient trace still replays.
        let trace = &report.violations[0].trace;
        let rules = Ruleset::new(ProtocolConfig::strict());
        let mut cur = trace.initial.clone();
        for step in &trace.steps {
            cur = rules.try_fire(step.rule, &cur).expect("transient trace step enabled");
            assert_eq!(&cur, &step.state);
        }
    }

    #[test]
    fn snoop_pushes_go_relaxation_breaks_swmr() {
        // The headline result (paper Table 3 / Figure 5): relaxing
        // Snoop-pushes-GO makes an SWMR violation reachable.
        let mc = checker(ProtocolConfig::relaxed(Relaxation::SnoopPushesGo));
        let init = SystemState::initial(programs::store(42), programs::load());
        let report = mc.check(&init, &[&SwmrProperty]);
        assert!(
            !report.violations.is_empty(),
            "relaxed model must reach an SWMR violation: {report}"
        );
    }

    #[test]
    fn naive_tracking_relaxation_breaks_swmr() {
        let mc = checker(ProtocolConfig::relaxed(Relaxation::NaiveTransientTracking));
        let init = SystemState::initial(programs::store(42), programs::load());
        let report = mc.check(&init, &[&SwmrProperty]);
        assert!(!report.violations.is_empty(), "naive tracking must violate SWMR: {report}");
    }

    #[test]
    fn symmetry_reduction_collapses_a_symmetric_two_device_space() {
        // Identical programs on both devices: the detected group is S_2,
        // and on two devices the equivariant relation coincides with the
        // determinised one — so Σ orbit sizes over the reduced arena must
        // equal the unreduced state count exactly.
        use cxl_reduce::{CanonMode, PorMode, Reduction, ReductionConfig};
        let init = SystemState::initial(programs::store(7), programs::store(7));
        let unreduced = checker(ProtocolConfig::strict()).explore(&init, &[&SwmrProperty]);
        assert!(unreduced.report.clean());

        let rules = Ruleset::new(ProtocolConfig::strict());
        // Device symmetry alone, so the Σ-orbit accounting below is exact.
        let red = Arc::new(Reduction::new(
            &rules,
            &init,
            ReductionConfig { symmetry: true, data_symmetry: false, por: PorMode::Off, canon: CanonMode::Auto },
        ));
        let opts = CheckOptions { reduction: Some(red), ..CheckOptions::default() };
        let reduced = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[&SwmrProperty]);
        assert!(reduced.report.clean());
        assert!(
            reduced.report.states < unreduced.report.states,
            "symmetric space must shrink ({} vs {})",
            reduced.report.states,
            unreduced.report.states
        );
        let summary = reduced.report.reduction.as_ref().expect("reduction stats recorded");
        assert_eq!(summary.group_order, 2);
        assert_eq!(
            summary.orbit_states, unreduced.report.states as u64,
            "orbit sizes must account for the whole unreduced space"
        );
        assert!(summary.orbit_canonicalized > 0);
        assert!(summary.effective_factor(reduced.report.states) > 1.0);
    }

    #[test]
    fn reduced_parallel_exploration_matches_reduced_sequential() {
        use cxl_reduce::{CanonMode, PorMode, Reduction, ReductionConfig};
        let init = SystemState::initial_n(
            3,
            vec![programs::store(1), programs::store(1), programs::store(1)],
        );
        let cfg =
            ReductionConfig { symmetry: true, data_symmetry: true, por: PorMode::Wide, canon: CanonMode::Auto };
        let mk_opts = |threads: usize| {
            let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
            let red = Arc::new(Reduction::new(&rules, &init, cfg));
            CheckOptions { threads, reduction: Some(red), ..CheckOptions::default() }
        };
        let seq = ModelChecker::with_options(
            Ruleset::with_devices(ProtocolConfig::strict(), 3),
            mk_opts(1),
        )
        .explore(&init, &[]);
        let par = ModelChecker::with_options(
            Ruleset::with_devices(ProtocolConfig::strict(), 3),
            mk_opts(4),
        )
        .explore(&init, &[]);
        assert_eq!(seq.report.states, par.report.states);
        assert_eq!(seq.report.transitions, par.report.transitions);
        assert_eq!(seq.arena, par.arena, "reduced discovery order must be deterministic");
    }

    #[test]
    fn por_only_reduction_prunes_evict_interleavings() {
        use cxl_reduce::{CanonMode, PorMode, Reduction, ReductionConfig};
        // Evicts on invalid lines are safe-local: with POR on, their
        // interleavings with the other device's store collapse, yet the
        // terminal verdict is untouched.
        let init = SystemState::initial(programs::evicts(2), programs::store(3));
        let unreduced = checker(ProtocolConfig::strict()).explore(&init, &[&SwmrProperty]);
        let rules = Ruleset::new(ProtocolConfig::strict());
        let red = Arc::new(Reduction::new(
            &rules,
            &init,
            ReductionConfig { symmetry: false, data_symmetry: false, por: PorMode::On, canon: CanonMode::Auto },
        ));
        let opts = CheckOptions { reduction: Some(red), ..CheckOptions::default() };
        let reduced = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[&SwmrProperty]);
        assert!(unreduced.report.clean() && reduced.report.clean());
        assert!(
            reduced.report.states < unreduced.report.states,
            "ample evicts must prune interleavings ({} vs {})",
            reduced.report.states,
            unreduced.report.states
        );
        let summary = reduced.report.reduction.as_ref().expect("stats recorded");
        assert!(summary.ample_steps() > 0);
        assert!(summary.ample_local > 0);
        assert_eq!(summary.ample_diamond, 0, "the conservative tier never collapses diamonds");
        assert_eq!(summary.group_order, 1);
        assert_eq!(summary.orbit_states, reduced.report.states as u64, "no symmetry in play");
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn prune_and_reduction_refuse_to_combine() {
        use cxl_reduce::{Reduction, ReductionConfig};
        let init = SystemState::initial(programs::load(), programs::load());
        let rules = Ruleset::new(ProtocolConfig::strict());
        let red = Arc::new(Reduction::new(&rules, &init, ReductionConfig::default()));
        let opts = CheckOptions {
            prune: Some(Arc::new(|_: &SystemState| false) as Prune),
            reduction: Some(red),
            ..CheckOptions::default()
        };
        let _ = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[]);
    }

    #[test]
    fn parallel_property_checking_matches_sequential() {
        let init = SystemState::initial(programs::store(42), programs::load());
        let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
        let seq = checker(cfg).explore(&init, &[&SwmrProperty]);
        let opts = CheckOptions { threads: 4, ..CheckOptions::default() };
        let par = ModelChecker::with_options(Ruleset::new(cfg), opts)
            .explore(&init, &[&SwmrProperty]);
        assert_eq!(seq.report.violations.len(), par.report.violations.len());
        let (a, b) = (&seq.report.violations[0], &par.report.violations[0]);
        assert_eq!(a.property, b.property);
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.trace.last_state(), b.trace.last_state());
    }
}
