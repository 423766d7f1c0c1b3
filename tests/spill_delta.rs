//! Beyond-RAM state store guarantees: parent-delta encoding and
//! cold-extent spilling must be *invisible* to results.
//!
//! The acceptance bar (ISSUE 8): an N=4 strict grid that truncates under
//! a deliberately small `mem_budget` completes un-truncated with
//! delta+spill armed, with verdict, state set, and traces bit-identical
//! to the unrestricted run; checkpoint→resume works across the reduction
//! matrix with a spill dir active; and a multi-shard delta store merges
//! to the single-shard run's exact arena.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::litmus::replay_trace;
use cxl_repro::mc::{
    CheckOptions, Checkpoint, CheckpointPolicy, Exploration, FlightKind, ModelChecker, Reducer,
    Reduction, ReductionConfig, SwmrProperty,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::all_engine_combos;

/// Fresh per-test scratch dir (no tempfile crate in the tree).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-spill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn explore_with(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    opts: CheckOptions,
) -> Exploration {
    ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts).explore(init, &[&SwmrProperty])
}

/// Delta+spill options: keyframe every 8 ancestors, spill every
/// completed level (watermark 0) into `dir`.
fn compressed_opts(dir: &std::path::Path) -> CheckOptions {
    CheckOptions {
        delta_keyframe: 8,
        spill_dir: Some(dir.to_path_buf()),
        spill_budget: Some(0),
        ..CheckOptions::default()
    }
}

/// The results-facing equality bar: everything a consumer can observe
/// must match, with states compared by *materialized* full encodings
/// (a delta arena is a different container than a plain one, but must
/// hold the identical state sequence).
fn assert_same_results(plain: &Exploration, compressed: &Exploration, ctx: &str) {
    let (p, c) = (&plain.report, &compressed.report);
    assert_eq!(p.states, c.states, "{ctx}: state count");
    assert_eq!(p.transitions, c.transitions, "{ctx}: transition count");
    assert_eq!(p.depth, c.depth, "{ctx}: depth");
    assert_eq!(p.terminal_states, c.terminal_states, "{ctx}: terminals");
    assert_eq!(p.violations.len(), c.violations.len(), "{ctx}: violations");
    assert_eq!(p.deadlocks.len(), c.deadlocks.len(), "{ctx}: deadlocks");
    assert_eq!(p.rule_firings, c.rule_firings, "{ctx}: firing counts");
    assert_eq!(
        plain.successor_counts, compressed.successor_counts,
        "{ctx}: successor counts"
    );
    let (mut pb, mut cb) = (Vec::new(), Vec::new());
    for id in 0..plain.arena.len() {
        pb.clear();
        cb.clear();
        plain.arena.append_full_bytes(id, &mut pb);
        compressed.arena.append_full_bytes(id, &mut cb);
        assert_eq!(pb, cb, "{ctx}: state {id} materializes differently");
    }
    for (pv, cv) in p.violations.iter().zip(&c.violations) {
        assert_eq!(pv.property, cv.property, "{ctx}: violated property");
        assert_eq!(pv.detail, cv.detail, "{ctx}: violation detail");
        assert_eq!(pv.trace.steps.len(), cv.trace.steps.len(), "{ctx}: trace length");
        for (ps, cs) in pv.trace.steps.iter().zip(&cv.trace.steps) {
            assert_eq!(ps.rule, cs.rule, "{ctx}: trace rule");
            assert_eq!(ps.state, cs.state, "{ctx}: trace state");
        }
    }
}

/// The N=4 strict grid of the acceptance criterion: ~67k unreduced
/// states — big enough that a small budget truncates the plain store,
/// small enough for a debug-mode test binary.
fn n4_grid() -> SystemState {
    SystemState::initial_n(
        4,
        vec![
            programs::store(1),
            programs::store(2),
            programs::loads(1),
            programs::loads(1),
        ],
    )
}

/// A mixed N=3 grid (~3.4k states) for the cheaper equivalence suites.
fn n3_grid() -> SystemState {
    SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2)].into(),
            programs::loads(1),
        ],
    )
}

#[test]
fn small_budget_truncates_plain_but_completes_with_delta_spill() {
    let cfg = ProtocolConfig::strict();
    let init = n4_grid();
    let unrestricted = explore_with(cfg, 4, &init, CheckOptions::default());
    assert!(!unrestricted.report.truncated, "baseline must cover the space");
    assert!(unrestricted.report.states > 10_000, "grid big enough to stress the store");

    // A budget at 60% of the real footprint: the plain store must hit
    // the ladder's hard rung (shrinking slack alone cannot save it),
    // while the compressed store's resident set fits with room.
    let budget = unrestricted.report.memory_bytes * 6 / 10;
    let plain = explore_with(
        cfg,
        4,
        &init,
        CheckOptions { mem_budget: Some(budget), ..CheckOptions::default() },
    );
    assert!(plain.report.truncated_by_memory, "small budget must truncate the plain store");
    assert!(plain.report.states < unrestricted.report.states);

    // Same budget, delta+spill armed: the resident footprint stays
    // under it and the exploration completes with identical results.
    let dir = scratch("acceptance");
    let compressed = explore_with(
        cfg,
        4,
        &init,
        CheckOptions { mem_budget: Some(budget), ..compressed_opts(&dir) },
    );
    assert!(
        !compressed.report.truncated,
        "delta+spill must complete under the budget that truncated the plain store \
         (resident {} of budget {budget})",
        compressed.report.memory_bytes
    );
    assert!(compressed.report.delta_entries > 0, "delta encoding engaged");
    assert!(compressed.report.spilled_extents > 0, "spilling engaged");
    assert_same_results(&unrestricted, &compressed, "acceptance");

    // The compressed resident store really is smaller per state — at
    // least 2× under the PR 7 N=4 snapshot's 46.669 B/state (and under
    // half of the plain baseline measured right here).
    assert!(
        compressed.bytes_per_state() < 46.669 / 2.0,
        "resident bytes/state must halve the PR 7 snapshot: {}",
        compressed.bytes_per_state()
    );
    assert!(
        compressed.bytes_per_state() * 2.0 < unrestricted.bytes_per_state(),
        "compressed store must at least halve resident bytes/state: {} vs {}",
        compressed.bytes_per_state(),
        unrestricted.bytes_per_state()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn violation_traces_replay_identically_through_spilled_extents() {
    // Trace rebuilding walks parent links back through sealed extents —
    // the fault-in path must hand back exactly the stored encodings.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial_n(
        3,
        vec![programs::store(42), programs::load(), programs::loads(1)],
    );
    let plain = explore_with(cfg, 3, &init, CheckOptions::default());
    assert!(!plain.report.violations.is_empty(), "SnoopPushesGo grid must violate SWMR");

    let dir = scratch("replay");
    let compressed = explore_with(cfg, 3, &init, compressed_opts(&dir));
    assert!(compressed.report.spilled_extents > 0, "spilling engaged");
    assert_same_results(&plain, &compressed, "replay");
    let rules = Ruleset::with_devices(cfg, 3);
    for v in &compressed.report.violations {
        replay_trace(&rules, &v.trace).expect("trace from a spilled store replays");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_rerun_with_spill_is_bit_identical() {
    // Two delta+spill runs of the same grid must agree with each other
    // byte for byte (fault-in is deterministic), not just with plain.
    let cfg = ProtocolConfig::strict();
    let init = n3_grid();
    let (d1, d2) = (scratch("det-a"), scratch("det-b"));
    let a = explore_with(cfg, 3, &init, compressed_opts(&d1));
    let b = explore_with(cfg, 3, &init, compressed_opts(&d2));
    assert_eq!(a.report.states, b.report.states);
    assert_eq!(a.report.delta_entries, b.report.delta_entries);
    assert_eq!(a.report.spilled_extents, b.report.spilled_extents);
    assert_same_results(&a, &b, "determinism");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn sharded_delta_spill_merges_to_the_sequential_arena() {
    let cfg = ProtocolConfig::strict();
    let init = n3_grid();
    let baseline = explore_with(cfg, 3, &init, CheckOptions::default());
    for shards in [2usize, 4] {
        let dir = scratch(&format!("sharded-{shards}"));
        let sharded = explore_with(
            cfg,
            3,
            &init,
            CheckOptions { shards: Some(shards), ..compressed_opts(&dir) },
        );
        let ctx = format!("shards={shards}");
        assert!(sharded.report.delta_entries > 0, "{ctx}: delta engaged across shards");
        assert!(sharded.report.spilled_extents > 0, "{ctx}: spilling engaged across shards");
        // The merged arena materializes to the single-shard run's
        // exact byte layout, so plain arena equality applies.
        assert_eq!(baseline.arena, sharded.arena, "{ctx}: merged arena");
        assert_same_results(&baseline, &sharded, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_resume_with_spill_matches_across_reduction_matrix() {
    // The resilience contract survives store compression: interrupt a
    // delta+spill run at a level boundary, resume it (delta+spill still
    // armed, fresh checker), and land byte-identical to an
    // uninterrupted *plain* exploration — for every engine combo.
    let cfg = ProtocolConfig::strict();
    let n = 3;
    let init = n3_grid();
    let eager = |dir: &std::path::Path| {
        let mut policy = CheckpointPolicy::new(dir);
        policy.every = Duration::ZERO;
        policy
    };
    let reducer_for = |combo: Option<ReductionConfig>| -> Option<Arc<dyn Reducer>> {
        let combo = combo?;
        let red = Reduction::new(&Ruleset::with_devices(cfg, n), &init, combo);
        red.is_active().then(|| Arc::new(red) as Arc<dyn Reducer>)
    };
    let combos: Vec<Option<ReductionConfig>> =
        std::iter::once(None).chain(all_engine_combos().into_iter().map(Some)).collect();
    for (i, combo) in combos.iter().enumerate() {
        let ctx = format!("combo#{i} {combo:?}");
        let baseline = explore_with(
            cfg,
            n,
            &init,
            CheckOptions { reduction: reducer_for(*combo), ..CheckOptions::default() },
        );
        assert!(!baseline.report.truncated, "{ctx}: baseline must complete");
        let cut = baseline.report.depth / 2;
        assert!(cut >= 1, "{ctx}: grid too shallow to interrupt");

        let ckpt = scratch(&format!("matrix-ckpt-{i}"));
        let spill = scratch(&format!("matrix-spill-{i}"));
        let interrupted = explore_with(
            cfg,
            n,
            &init,
            CheckOptions {
                max_depth: Some(cut),
                checkpoint: Some(eager(&ckpt)),
                reduction: reducer_for(*combo),
                ..compressed_opts(&spill)
            },
        );
        assert!(interrupted.report.truncated, "{ctx}: interruption must truncate");
        drop(interrupted);

        // Resume into a *fresh spill dir*: checkpoints materialize full
        // encodings, so the writer's extent files are never needed.
        let spill2 = scratch(&format!("matrix-spill2-{i}"));
        let _ = std::fs::remove_dir_all(&spill);
        let resumed = ModelChecker::with_options(
            Ruleset::with_devices(cfg, n),
            CheckOptions {
                checkpoint: Some(eager(&ckpt)),
                reduction: reducer_for(*combo),
                ..compressed_opts(&spill2)
            },
        )
        .explore_resumed(&[&SwmrProperty])
        .expect("resume a delta+spill run");
        assert!(resumed.report.resumed_from.is_some(), "{ctx}: must mark resumption");
        assert_same_results(&baseline, &resumed, &ctx);
        let _ = std::fs::remove_dir_all(&ckpt);
        let _ = std::fs::remove_dir_all(&spill2);
    }
}

#[test]
fn per_level_checkpoints_read_each_sealed_extent_once() {
    // Two threads (two shards) on the N=4 grid with keyframe-16 deltas, a zero
    // spill watermark and a checkpoint at every level: delta chains then
    // link one sealed extent per BFS level. Each checkpoint materializes
    // the whole store in one sequential pass, so the run may read at
    // most every sealed extent once per checkpoint — replaying chains
    // through a small random-access cache would fault them tens of
    // times over.
    let cfg = ProtocolConfig::strict();
    let init = n4_grid();
    let plain = explore_with(cfg, 4, &init, CheckOptions::default());
    let (ckpt, spill) = (scratch("per-level-ckpt"), scratch("per-level-spill"));
    let every_level = || {
        let mut policy = CheckpointPolicy::new(&ckpt);
        policy.every = Duration::ZERO;
        Some(policy)
    };
    let cold_opts = |spill: &std::path::Path| CheckOptions {
        threads: 2,
        delta_keyframe: 16,
        spill_dir: Some(spill.to_path_buf()),
        spill_budget: Some(0),
        checkpoint: every_level(),
        flight_events: 4096,
        ..CheckOptions::default()
    };
    let cold = explore_with(cfg, 4, &init, cold_opts(&spill));
    assert!(cold.report.shards > 1, "two threads must run the sharded driver");
    assert_same_results(&plain, &cold, "sharded delta+spill+checkpoints");
    let writes =
        cold.report.flight.iter().filter(|e| e.kind == FlightKind::CheckpointWrite).count() as u64;
    let sealed = cold.report.spilled_extents;
    assert!(writes > 10 && sealed > 10, "{writes} checkpoints, {sealed} extents");
    assert!(
        cold.report.faulted_extents <= writes * sealed,
        "{} extent reads for {writes} checkpoints over {sealed} sealed extents",
        cold.report.faulted_extents
    );

    // The last checkpoint (the final level's boundary) holds every state
    // in the plain store's exact byte layout.
    let rules = Ruleset::with_devices(cfg, 4);
    let last = Checkpoint::read_dir(&ckpt, &rules).expect("last checkpoint reads back");
    assert_eq!(last.arena, plain.arena, "last checkpoint's arena");

    // Resume never needs the dead run's extent files.
    std::fs::remove_dir_all(&spill).expect("delete the spill dir");
    let spill2 = scratch("per-level-spill2");
    let resumed = ModelChecker::with_options(rules, cold_opts(&spill2))
        .explore_resumed(&[&SwmrProperty])
        .expect("resume without the spill dir");
    assert!(resumed.report.resumed_from.is_some(), "must mark resumption");
    assert_same_results(&plain, &resumed, "resumed without spill dir");
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&spill2);
}
