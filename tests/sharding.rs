//! Sharding determinism: the shard-owned, fingerprint-routed
//! exploration must be **bit-identical** whatever the shard and thread
//! counts.
//!
//! The contract under test: for every reduction-engine combination, at
//! N ∈ {2, 3} and shard counts {1, 2, 4}, the search produces the same
//! verdict, state and transition counts, per-rule firing counts,
//! successor counts, packed arena bytes, and counterexample traces as a
//! plain single-threaded, single-shard run — whether the shard jobs run
//! inline (threads = 1) or across the worker pool (threads = 2 or 4),
//! and whether the level merges on the lock-free fast path or the
//! truncation-exact slow path. On top:
//!
//! - a sharded run interrupted at a BFS level boundary and resumed by a
//!   *fresh* checker (under the same or a *different* shard count)
//!   reconstitutes exactly — checkpoints are shard-count-free;
//! - a single shard under the worker pool (the dedup job moves the only
//!   shard out of the store) matches both the single-threaded run and
//!   the naive oracle, with the plain and the delta+spill store.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::mc::{
    CheckOptions, CheckpointPolicy, Exploration, MetricsRecorder, ModelChecker, ProgressMode,
    Reducer, Reduction, ReductionConfig, SwmrProperty, Trace,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::all_engine_combos;

/// A fresh scratch directory under the system temp root, unique per
/// test and per process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-sharding-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Checkpoint at every level boundary — deterministic, never races the
/// wall clock.
fn eager_policy(dir: &std::path::Path) -> CheckpointPolicy {
    let mut policy = CheckpointPolicy::new(dir);
    policy.every = Duration::ZERO;
    policy
}

/// Mixed store/load grids small enough for the full matrix.
fn grid(n: usize) -> SystemState {
    match n {
        2 => SystemState::initial(programs::stores(1, 2), programs::loads(2)),
        3 => SystemState::initial_n(
            3,
            vec![
                vec![Instruction::Store(1), Instruction::Load].into(),
                vec![Instruction::Store(2)].into(),
                programs::loads(1),
            ],
        ),
        _ => unreachable!("matrix covers N in {{2, 3}}"),
    }
}

/// Build the reducer for a combo, mirroring how `explore` wires one up.
fn reducer_for(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    combo: Option<ReductionConfig>,
) -> Option<Arc<dyn Reducer>> {
    let combo = combo?;
    let red = Reduction::new(&Ruleset::with_devices(cfg, n), init, combo);
    red.is_active().then(|| Arc::new(red) as Arc<dyn Reducer>)
}

fn explore_with(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    opts: CheckOptions,
) -> Exploration {
    ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts).explore(init, &[&SwmrProperty])
}

fn assert_traces_eq(a: &Trace, b: &Trace, ctx: &str) {
    assert_eq!(a.initial, b.initial, "{ctx}: trace initial state");
    assert_eq!(a.steps.len(), b.steps.len(), "{ctx}: trace length");
    for (i, (sa, sb)) in a.steps.iter().zip(&b.steps).enumerate() {
        assert_eq!(sa.rule, sb.rule, "{ctx}: trace step {i} rule");
        assert_eq!(sa.state, sb.state, "{ctx}: trace step {i} state");
    }
}

/// Everything the determinism contract covers.
fn assert_identical(seq: &Exploration, sharded: &Exploration, ctx: &str) {
    let (s, h) = (&seq.report, &sharded.report);
    assert_eq!(s.states, h.states, "{ctx}: state count");
    assert_eq!(s.transitions, h.transitions, "{ctx}: transition count");
    assert_eq!(s.depth, h.depth, "{ctx}: depth");
    assert_eq!(s.terminal_states, h.terminal_states, "{ctx}: terminals");
    assert_eq!(s.truncated, h.truncated, "{ctx}: truncated flag");
    assert_eq!(s.rule_firings, h.rule_firings, "{ctx}: firing counts");
    assert_eq!(s.violations.len(), h.violations.len(), "{ctx}: violation count");
    for (i, (vs, vh)) in s.violations.iter().zip(&h.violations).enumerate() {
        assert_eq!(vs.property, vh.property, "{ctx}: violation {i} property");
        assert_eq!(vs.detail, vh.detail, "{ctx}: violation {i} detail");
        assert_traces_eq(&vs.trace, &vh.trace, &format!("{ctx}: violation {i}"));
    }
    assert_eq!(s.deadlocks.len(), h.deadlocks.len(), "{ctx}: deadlock count");
    for (i, (ds, dh)) in s.deadlocks.iter().zip(&h.deadlocks).enumerate() {
        assert_traces_eq(&ds.trace, &dh.trace, &format!("{ctx}: deadlock {i}"));
    }
    assert_eq!(seq.arena, sharded.arena, "{ctx}: packed arena bytes");
    assert_eq!(seq.successor_counts, sharded.successor_counts, "{ctx}: successor counts");
}

#[test]
fn sharded_matches_sequential_across_reduction_matrix() {
    let cfg = ProtocolConfig::strict();
    let combos: Vec<Option<ReductionConfig>> =
        std::iter::once(None).chain(all_engine_combos().into_iter().map(Some)).collect();
    for n in [2usize, 3] {
        let init = grid(n);
        for (i, combo) in combos.iter().enumerate() {
            let seq = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    reduction: reducer_for(cfg, n, &init, *combo),
                    ..CheckOptions::default()
                },
            );
            assert_eq!(seq.report.shards, 1, "sequential driver reports one shard");
            for shards in [1usize, 2, 4] {
                let ctx = format!("N={n} combo#{i} {combo:?} shards={shards}");
                let sharded = explore_with(
                    cfg,
                    n,
                    &init,
                    CheckOptions {
                        shards: Some(shards),
                        reduction: reducer_for(cfg, n, &init, *combo),
                        ..CheckOptions::default()
                    },
                );
                assert_identical(&seq, &sharded, &ctx);
                if shards > 1 {
                    assert_eq!(sharded.report.shards, shards, "{ctx}: shard count reported");
                    assert!(
                        sharded.report.routed_messages > 0,
                        "{ctx}: routing must be exercised"
                    );
                }
            }
        }
    }
}

#[test]
fn pooled_sharded_exploration_matches_sequential() {
    // threads = 2 exercises the real worker-pool path: pool expansion,
    // shard state moving through the job queue, pooled property checks.
    let cfg = ProtocolConfig::strict();
    for n in [2usize, 3] {
        let init = grid(n);
        let seq = explore_with(cfg, n, &init, CheckOptions::default());
        for shards in [2usize, 4] {
            let ctx = format!("N={n} threads=2 shards={shards}");
            let pooled = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    threads: 2,
                    shards: Some(shards),
                    ..CheckOptions::default()
                },
            );
            assert_identical(&seq, &pooled, &ctx);
        }
    }
}

#[test]
fn sharded_violation_traces_match_sequential() {
    // The paper's Table 3 repro: relaxing Snoop-pushes-GO violates SWMR.
    // The sharded driver must find the same counterexample, byte for
    // byte, on both the inline and the pooled path.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial(programs::store(42), programs::load());
    let seq = explore_with(cfg, 2, &init, CheckOptions::default());
    assert!(!seq.report.violations.is_empty(), "Table 3 repro must violate SWMR");
    for (threads, shards) in [(1usize, 2usize), (1, 4), (2, 2)] {
        let ctx = format!("threads={threads} shards={shards}");
        let sharded = explore_with(
            cfg,
            2,
            &init,
            CheckOptions { threads, shards: Some(shards), ..CheckOptions::default() },
        );
        assert_identical(&seq, &sharded, &ctx);
    }
}

#[test]
fn sharded_truncation_is_bit_identical() {
    // A tight max_states forces the truncating serial merge, which must
    // match the single-shard run's truncation semantics exactly —
    // including which states make it into the arena and the transient
    // over-cap property checks.
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial(programs::stores(0, 3), programs::loads(3));
    for cap in [10usize, 50, 200] {
        let seq = explore_with(
            cfg,
            2,
            &init,
            CheckOptions { max_states: cap, ..CheckOptions::default() },
        );
        assert!(seq.report.truncated, "cap={cap}: must truncate");
        for shards in [2usize, 4] {
            let ctx = format!("cap={cap} shards={shards}");
            let sharded = explore_with(
                cfg,
                2,
                &init,
                CheckOptions {
                    max_states: cap,
                    shards: Some(shards),
                    ..CheckOptions::default()
                },
            );
            assert_identical(&seq, &sharded, &ctx);
        }
    }
}

#[test]
fn violation_stop_in_a_truncated_level_matches_across_threads() {
    // A state cap reached mid-level, then an over-cap successor that
    // violates: the level stops there. Parents after the stopping one
    // stay unexpanded on every path — including pooled levels, whose
    // expansion ran ahead of the merge.
    let cfg = ProtocolConfig::strict();
    let n = 3;
    let init = SystemState::initial_n(
        n,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2), Instruction::Load].into(),
            programs::loads(2),
        ],
    );
    let shallow = cxl_repro::mc::boolean_property("shallow", |s: &SystemState| s.counter < 5);
    let run = |threads: usize, shards: usize| {
        let opts =
            CheckOptions { threads, shards: Some(shards), max_states: 3250, ..CheckOptions::default() };
        ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts).explore(&init, &[&shallow])
    };
    let single = run(1, 1);
    assert!(single.report.truncated, "the cap must truncate");
    assert_eq!(single.report.violations.len(), 1, "the over-cap tail must violate");
    assert!(
        single.successor_counts.contains(&cxl_repro::mc::NOT_EXPANDED),
        "the stop must leave frontier states unexpanded"
    );
    for (threads, shards) in [(1usize, 2usize), (2, 1), (2, 2), (4, 4)] {
        let ctx = format!("threads={threads} shards={shards}");
        assert_identical(&single, &run(threads, shards), &ctx);
    }
}

#[test]
fn sharded_interrupt_then_resume_reconstitutes_exactly() {
    // Interrupt a sharded run at a mid-search level boundary, drop every
    // byte of in-memory state, and resume with a fresh checker — under
    // the same shard count, a different one, and a single shard. All
    // must land on the uninterrupted result: the checkpoint
    // wire format is the merged (shard-count-free) layout.
    let cfg = ProtocolConfig::strict();
    let init = grid(3);
    let baseline = explore_with(cfg, 3, &init, CheckOptions::default());
    assert!(!baseline.report.truncated, "baseline must complete");
    let cut = baseline.report.depth / 2;
    assert!(cut >= 1, "grid too shallow to interrupt");

    for (write_shards, resume_shards) in
        [(Some(2usize), Some(2usize)), (Some(2), Some(4)), (Some(4), None), (None, Some(2))]
    {
        let ctx = format!("write_shards={write_shards:?} resume_shards={resume_shards:?}");
        let dir = scratch(&format!(
            "resume-{}-{}",
            write_shards.unwrap_or(0),
            resume_shards.unwrap_or(0)
        ));
        let interrupted = explore_with(
            cfg,
            3,
            &init,
            CheckOptions {
                max_depth: Some(cut),
                shards: write_shards,
                checkpoint: Some(eager_policy(&dir)),
                ..CheckOptions::default()
            },
        );
        assert!(interrupted.report.truncated, "{ctx}: interruption must truncate");
        assert!(interrupted.report.states < baseline.report.states, "{ctx}: partial");
        drop(interrupted);

        let resumed = ModelChecker::with_options(
            Ruleset::with_devices(cfg, 3),
            CheckOptions {
                shards: resume_shards,
                checkpoint: Some(eager_policy(&dir)),
                ..CheckOptions::default()
            },
        )
        .explore_resumed(&[&SwmrProperty])
        .expect("resume from sharded checkpoint");
        assert!(resumed.report.resumed_from.is_some(), "{ctx}: must mark resumption");
        assert_identical(&baseline, &resumed, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Materialized full encodings of every stored state, in discovery
/// order — the store-independent view of an arena (a delta+spill
/// segment and a plain arena hold the same sequence in different
/// containers).
fn full_states(exp: &Exploration) -> Vec<Vec<u8>> {
    (0..exp.arena.len())
        .map(|id| {
            let mut bytes = Vec::new();
            exp.arena.append_full_bytes(id, &mut bytes);
            bytes
        })
        .collect()
}

#[test]
fn one_shard_under_the_pool_matches_one_thread_and_naive() {
    // [S1,L] x [S2,L] x [L,L]: ~12k states, with levels wide enough
    // (>= 2048 successors) that dedup runs as a pool job, which moves
    // the only shard out of the store while the level commits.
    let cfg = ProtocolConfig::strict();
    let n = 3;
    let init = SystemState::initial_n(
        n,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2), Instruction::Load].into(),
            programs::loads(2),
        ],
    );
    let rules = || Ruleset::with_devices(cfg, n);
    let naive = ModelChecker::new(rules()).explore_naive(&init, &[&SwmrProperty]);
    let single = explore_with(cfg, n, &init, CheckOptions::default());
    assert_identical(&naive, &single, "threads=1 vs naive");

    // The same widths at two shards route real inboxes — proof that
    // this grid reaches the pooled dedup path.
    let dir = scratch("one-shard-pool");
    let metrics = dir.join("routed.jsonl");
    let rec = MetricsRecorder::new(ProgressMode::Off, Some(&metrics)).expect("metrics file");
    let routed = explore_with(
        cfg,
        n,
        &init,
        CheckOptions {
            threads: 2,
            shards: Some(2),
            telemetry: Some(Arc::new(rec)),
            ..CheckOptions::default()
        },
    );
    assert_identical(&single, &routed, "threads=2 shards=2");
    let jsonl = std::fs::read_to_string(&metrics).expect("read metrics");
    let routed_level =
        |l: &str| l.contains("\"queue_depths\":[") && !l.contains("\"queue_depths\":[]");
    assert!(jsonl.lines().any(routed_level), "no level of this grid ran the pooled dedup path");

    for threads in [2usize, 4] {
        let ctx = format!("threads={threads} shards=1");
        let pooled = explore_with(
            cfg,
            n,
            &init,
            CheckOptions { threads, shards: Some(1), ..CheckOptions::default() },
        );
        assert_eq!(pooled.report.shards, 1, "{ctx}: shard count reported");
        assert_eq!(pooled.report.routed_messages, 0, "{ctx}: one shard routes nothing");
        assert_identical(&single, &pooled, &ctx);
        assert_identical(&naive, &pooled, &format!("{ctx} vs naive"));

        let spill = scratch(&format!("one-shard-spill-{threads}"));
        let ctx = format!("{ctx} delta+spill");
        let compressed = explore_with(
            cfg,
            n,
            &init,
            CheckOptions {
                threads,
                shards: Some(1),
                delta_keyframe: 8,
                spill_dir: Some(spill.clone()),
                spill_budget: Some(0),
                ..CheckOptions::default()
            },
        );
        assert!(compressed.report.delta_entries > 0, "{ctx}: delta engaged");
        assert!(compressed.report.spilled_extents > 0, "{ctx}: spilling engaged");
        let (s, c) = (&single.report, &compressed.report);
        assert_eq!(s.states, c.states, "{ctx}: state count");
        assert_eq!(s.transitions, c.transitions, "{ctx}: transition count");
        assert_eq!(s.depth, c.depth, "{ctx}: depth");
        assert_eq!(s.terminal_states, c.terminal_states, "{ctx}: terminals");
        assert_eq!(s.rule_firings, c.rule_firings, "{ctx}: firing counts");
        assert_eq!(single.successor_counts, compressed.successor_counts, "{ctx}: succ counts");
        assert!(full_states(&naive) == full_states(&compressed), "{ctx}: states vs naive");
        let _ = std::fs::remove_dir_all(&spill);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_imbalance_is_reported_and_bounded() {
    // Fingerprint routing approximates a uniform split; on a real grid
    // the most loaded shard must sit within a sane factor of the mean,
    // and the report must surface the number.
    let cfg = ProtocolConfig::strict();
    let init = grid(2);
    let sharded = explore_with(
        cfg,
        2,
        &init,
        CheckOptions { shards: Some(4), ..CheckOptions::default() },
    );
    assert_eq!(sharded.report.shards, 4);
    assert!(sharded.report.routed_messages >= sharded.report.transitions as u64);
    assert!(
        sharded.report.shard_imbalance_pct >= 0.0
            && sharded.report.shard_imbalance_pct < 100.0,
        "imbalance {:.1}% out of range",
        sharded.report.shard_imbalance_pct
    );
}
