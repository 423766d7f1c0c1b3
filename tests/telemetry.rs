//! Telemetry-subsystem guarantees: the metrics stream is an exact
//! decomposition of the final report, attaching a recorder never changes
//! a single bit of the exploration result, and the flight recorder's
//! event history survives a checkpoint/resume crash boundary.
//!
//! The headline contract (ISSUE acceptance bar): for every reduction
//! combo at N ∈ {2, 3}, the per-level JSONL records written by
//! `MetricsRecorder` must *sum* to the final report's totals — states,
//! transitions, depth — and a spill-enabled run killed mid-search and
//! resumed must have its two sessions' level records sum to the
//! uninterrupted run's totals, with the resumed flight ring still
//! holding the pre-kill checkpoint event.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Ruleset, SystemState};
use cxl_repro::mc::{
    CheckOptions, CheckpointPolicy, Exploration, FlightEvent, FlightKind, LevelRecord,
    MetricsRecorder, ModelChecker, ProgressMode, Recorder, Reducer, Reduction, ReductionConfig,
    RunSummary, SwmrProperty,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::all_engine_combos;

/// A fresh scratch directory under the system temp root, unique per
/// test (and per process, so parallel `cargo test` invocations never
/// collide).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-telemetry-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A checkpoint policy that snapshots at *every* level boundary.
fn eager_policy(dir: &std::path::Path) -> CheckpointPolicy {
    let mut policy = CheckpointPolicy::new(dir);
    policy.every = Duration::ZERO;
    policy
}

/// Mixed store/load grids small enough for the full reduction matrix.
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

/// An in-memory recorder: the raw structs, before any serialization.
#[derive(Default)]
struct Collecting {
    levels: Mutex<Vec<LevelRecord>>,
    events: Mutex<Vec<FlightEvent>>,
    summary: Mutex<Option<RunSummary>>,
}

impl Recorder for Collecting {
    fn record_level(&self, record: &LevelRecord) {
        self.levels.lock().unwrap().push(record.clone());
    }
    fn record_event(&self, event: &FlightEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
    fn finish(&self, summary: &RunSummary) {
        *self.summary.lock().unwrap() = Some(summary.clone());
    }
}

/// Extract `"key":<integer>` from a JSONL line this suite's own sinks
/// wrote — the format is under our control, so a string scan suffices
/// (no JSON parser in the dependency-free tree).
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} missing from {line}")) + pat.len();
    let digits: String =
        line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

fn is_kind(line: &str, kind: &str) -> bool {
    line.contains(&format!("\"kind\":\"{kind}\""))
}

/// Sum the `level` records of a metrics file: (stored, transitions,
/// max depth).
fn level_sums(path: &std::path::Path) -> (u64, u64, u64) {
    let text = std::fs::read_to_string(path).expect("read metrics file");
    let mut stored = 0;
    let mut transitions = 0;
    let mut depth = 0;
    for line in text.lines().filter(|l| is_kind(l, "level")) {
        stored += field_u64(line, "stored");
        transitions += field_u64(line, "transitions");
        depth = depth.max(field_u64(line, "depth"));
    }
    (stored, transitions, depth)
}

/// The metrics stream must be an exact decomposition of the report:
/// level `stored` counts sum to the state count (minus the initial
/// state, which no level commits), `transitions` sum exactly, the
/// deepest record matches the report depth, and the trailing summary
/// record repeats the headline totals — across the whole reduction
/// matrix, sequential and sharded.
#[test]
fn jsonl_level_records_sum_to_final_report_across_reduction_matrix() {
    let cfg = ProtocolConfig::strict();
    let combos: Vec<Option<ReductionConfig>> =
        std::iter::once(None).chain(all_engine_combos().into_iter().map(Some)).collect();
    let dir = scratch("jsonl-sums");
    for n in [2usize, 3] {
        let init = grid(n);
        for (i, combo) in combos.iter().enumerate() {
            for shards in [None, Some(3)] {
                let ctx = format!("N={n} combo#{i} shards={shards:?}");
                let path = dir.join(format!("m-{n}-{i}-{}.jsonl", shards.unwrap_or(1)));
                let rec = MetricsRecorder::new(ProgressMode::Off, Some(&path)).unwrap();
                let exploration = explore_with(
                    cfg,
                    n,
                    &init,
                    CheckOptions {
                        shards,
                        reduction: reducer_for(cfg, n, &init, *combo),
                        telemetry: Some(Arc::new(rec)),
                        ..CheckOptions::default()
                    },
                );
                let report = &exploration.report;
                let (stored, transitions, depth) = level_sums(&path);
                assert_eq!(stored + 1, report.states as u64, "{ctx}: states");
                assert_eq!(transitions, report.transitions as u64, "{ctx}: transitions");
                assert_eq!(depth, report.depth as u64, "{ctx}: depth");

                let text = std::fs::read_to_string(&path).unwrap();
                let summary = text
                    .lines()
                    .rfind(|l| is_kind(l, "summary"))
                    .expect("summary record");
                assert_eq!(field_u64(summary, "states"), report.states as u64, "{ctx}");
                assert_eq!(field_u64(summary, "transitions"), report.transitions as u64, "{ctx}");
                assert_eq!(field_u64(summary, "schema_version"), 1, "{ctx}");
            }
        }
    }
}

/// Attaching a recorder must not perturb the exploration: the packed
/// arena, successor counts, and every report statistic come out
/// bit-identical, sequential and sharded. (The recorder-off run is the
/// zero-cost path; this pins that the instrumented path takes all the
/// same decisions.)
#[test]
fn recorder_attached_results_are_bit_identical() {
    let cfg = ProtocolConfig::strict();
    for n in [2usize, 3] {
        let init = grid(n);
        for shards in [None, Some(3)] {
            let ctx = format!("N={n} shards={shards:?}");
            let plain = explore_with(
                cfg,
                n,
                &init,
                CheckOptions { shards, ..CheckOptions::default() },
            );
            let collector = Arc::new(Collecting::default());
            let recorded = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    shards,
                    telemetry: Some(Arc::clone(&collector) as Arc<dyn Recorder>),
                    ..CheckOptions::default()
                },
            );
            assert_eq!(plain.arena, recorded.arena, "{ctx}: packed arena");
            assert_eq!(
                plain.successor_counts, recorded.successor_counts,
                "{ctx}: successor counts"
            );
            let (p, r) = (&plain.report, &recorded.report);
            assert_eq!(p.states, r.states, "{ctx}: states");
            assert_eq!(p.transitions, r.transitions, "{ctx}: transitions");
            assert_eq!(p.depth, r.depth, "{ctx}: depth");
            assert_eq!(p.terminal_states, r.terminal_states, "{ctx}: terminals");
            assert_eq!(p.rule_firings, r.rule_firings, "{ctx}: firings");

            // And the recorder actually saw the run: levels sum to the
            // report, the summary mirrors it, phase profile present.
            let levels = collector.levels.lock().unwrap();
            let stored: usize = levels.iter().map(|l| l.stored).sum();
            assert_eq!(stored + 1, r.states, "{ctx}: collected levels");
            let summary = collector.summary.lock().unwrap();
            let summary = summary.as_ref().expect("finish() called");
            assert_eq!(summary.states, r.states, "{ctx}: summary");
            assert!(summary.clean, "{ctx}: clean grid");
            assert!(r.profile.is_some(), "{ctx}: profile recorded");
        }
    }
}

/// The flight ring must ride inside checkpoints: a run killed right
/// after a checkpoint write and resumed by a fresh checker still sees
/// the pre-kill events — including the `checkpoint_write` marker laid
/// down before the file was encoded — followed by a `resume` marker and
/// the post-resume history, with strictly increasing sequence numbers.
#[test]
fn flight_ring_survives_checkpoint_resume() {
    let cfg = ProtocolConfig::strict();
    let init = grid(2);
    let dir = scratch("flight-resume");
    let cut = 3usize;

    let interrupted = explore_with(
        cfg,
        2,
        &init,
        CheckOptions {
            max_depth: Some(cut),
            checkpoint: Some(eager_policy(&dir)),
            telemetry: Some(Arc::new(Collecting::default())),
            ..CheckOptions::default()
        },
    );
    assert!(interrupted.report.truncated, "interruption must truncate");
    let pre_kill: Vec<FlightEvent> = interrupted.report.flight.clone();
    assert!(
        pre_kill.iter().any(|e| e.kind == FlightKind::CheckpointWrite),
        "pre-kill run must have recorded its checkpoint writes: {pre_kill:?}"
    );
    drop(interrupted);

    let resumed = ModelChecker::with_options(
        Ruleset::with_devices(cfg, 2),
        CheckOptions {
            checkpoint: Some(eager_policy(&dir)),
            telemetry: Some(Arc::new(Collecting::default())),
            ..CheckOptions::default()
        },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect("resume from checkpoint");
    let flight = &resumed.report.flight;

    // Pre-kill history is still there…
    assert!(
        flight.iter().any(|e| e.kind == FlightKind::CheckpointWrite
            && e.a < cut as u64
            && pre_kill.iter().any(|p| p.seq == e.seq)),
        "resumed flight ring lost the pre-kill checkpoint event: {flight:?}"
    );
    // …the crash boundary itself is marked…
    assert!(
        flight.iter().any(|e| e.kind == FlightKind::Resume),
        "no resume marker: {flight:?}"
    );
    // …new history continued after it, and seq never reset.
    assert!(
        flight.iter().any(|e| e.kind == FlightKind::LevelCommit && e.a > cut as u64),
        "no post-resume level commits: {flight:?}"
    );
    for pair in flight.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq must be strictly increasing: {flight:?}");
    }
}

/// Metrics across a crash boundary, with the spill layer on: the level
/// records of the interrupted session plus those of the resumed session
/// must sum to exactly the uninterrupted run's totals — no level lost,
/// none double-counted.
#[test]
fn interrupted_plus_resumed_metrics_sum_to_uninterrupted_totals() {
    let cfg = ProtocolConfig::strict();
    let init = grid(3);
    let dir = scratch("resume-sums");
    let spill_opts = |dir: &std::path::Path, tag: &str| CheckOptions {
        delta_keyframe: 8,
        spill_dir: Some(dir.join(format!("spill-{tag}"))),
        spill_budget: Some(0),
        ..CheckOptions::default()
    };

    let full_metrics = dir.join("full.jsonl");
    let rec = MetricsRecorder::new(ProgressMode::Off, Some(&full_metrics)).unwrap();
    let baseline = explore_with(
        cfg,
        3,
        &init,
        CheckOptions { telemetry: Some(Arc::new(rec)), ..spill_opts(&dir, "full") },
    );
    assert!(!baseline.report.truncated, "baseline must complete");
    assert!(baseline.report.spilled_extents > 0, "spill layer must engage");
    let cut = baseline.report.depth / 2;
    assert!(cut >= 1, "grid too shallow to interrupt");

    let first_metrics = dir.join("first.jsonl");
    let rec = MetricsRecorder::new(ProgressMode::Off, Some(&first_metrics)).unwrap();
    let interrupted = explore_with(
        cfg,
        3,
        &init,
        CheckOptions {
            max_depth: Some(cut),
            checkpoint: Some(eager_policy(&dir)),
            telemetry: Some(Arc::new(rec)),
            ..spill_opts(&dir, "cut")
        },
    );
    assert!(interrupted.report.truncated, "interruption must truncate");
    drop(interrupted);

    let second_metrics = dir.join("second.jsonl");
    let rec = MetricsRecorder::new(ProgressMode::Off, Some(&second_metrics)).unwrap();
    let resumed = ModelChecker::with_options(
        Ruleset::with_devices(cfg, 3),
        CheckOptions {
            checkpoint: Some(eager_policy(&dir)),
            telemetry: Some(Arc::new(rec)),
            ..spill_opts(&dir, "cut")
        },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect("resume from checkpoint");
    assert_eq!(resumed.report.states, baseline.report.states, "resume must converge");

    let (s1, t1, d1) = level_sums(&first_metrics);
    let (s2, t2, d2) = level_sums(&second_metrics);
    let (sf, tf, df) = level_sums(&full_metrics);
    assert_eq!(s1 + s2, sf, "stored: sessions must partition the run");
    assert_eq!(t1 + t2, tf, "transitions: sessions must partition the run");
    assert_eq!(d1, cut as u64, "first session stops at the cut");
    assert_eq!(d2, df, "second session reaches the full depth");
    assert_eq!(sf + 1, baseline.report.states as u64, "full-run sanity");
}

/// One shard routes nothing: a single-threaded run reports zero routed
/// messages and its JSONL level records carry no `shards` block, while
/// a three-shard run on the same grid routes every transition and
/// reports per-shard stats on every level.
#[test]
fn one_shard_reports_no_routing_and_no_shard_block() {
    let cfg = ProtocolConfig::strict();
    let init = grid(3);
    let dir = scratch("one-shard");
    for (shards, routed) in [(None, false), (Some(3), true)] {
        let ctx = format!("threads=1 shards={shards:?}");
        let path = dir.join(format!("m-{}.jsonl", shards.unwrap_or(1)));
        let rec = MetricsRecorder::new(ProgressMode::Off, Some(&path)).unwrap();
        let report = explore_with(
            cfg,
            3,
            &init,
            CheckOptions { shards, telemetry: Some(Arc::new(rec)), ..CheckOptions::default() },
        )
        .report;
        let text = std::fs::read_to_string(&path).unwrap();
        let levels: Vec<&str> = text.lines().filter(|l| is_kind(l, "level")).collect();
        assert!(!levels.is_empty(), "{ctx}: level records");
        if routed {
            assert_eq!(report.shards, 3, "{ctx}");
            assert_eq!(report.routed_messages, report.transitions as u64, "{ctx}");
            assert!(levels.iter().all(|l| l.contains("\"shards\":{")), "{ctx}: {text}");
        } else {
            assert_eq!(report.shards, 1, "{ctx}");
            assert_eq!(report.routed_messages, 0, "{ctx}");
            assert_eq!(report.shard_imbalance_pct, 0.0, "{ctx}");
            assert!(levels.iter().all(|l| !l.contains("\"shards\"")), "{ctx}: {text}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
