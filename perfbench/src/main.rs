//! `perfbench` — one exploration of one generated N = 4 program set,
//! measured end to end, printed as one JSON line on stdout.
//!
//! ```text
//! perfbench --p1 S1,L --p2 S2,L --p3 L,L --p4 L [--threads N] [--reduce]
//!     [--cold-store --work-dir DIR] [--trace]
//! ```
//!
//! The harness sets the checker up [`SETUP_REPEATS`] times and reports
//! the median set-up time, then times `ModelChecker::explore` once, from
//! the call to the returned `Exploration`. `--reduce` arms device
//! symmetry, data symmetry and wide POR. `--cold-store` arms parent-delta
//! encoding (keyframe [`DELTA_KEYFRAME`]), cold-extent spill at a zero
//! watermark and a checkpoint at every BFS level, under `--work-dir`,
//! which must be fresh; the caller removes it afterwards.
//!
//! `--trace` installs the timing wrappers of `trace.rs` (reducer,
//! properties, telemetry recorder) and, after the exploration, replays
//! the stored states through the rules, codec and fasthash layers
//! (`replay.rs`) and reads the last checkpoint back. Without `--trace`
//! nothing is wrapped and the checker runs its zero-cost path.
//!
//! `perfbench/run.py` drives this binary: it generates the programs from
//! a seed, runs each exploration in a fresh process, and checks every
//! verdict against the workload's recorded expectations.

mod replay;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cxl_core::instr::Instruction;
use cxl_core::{Invariant, ProtocolConfig, Ruleset, SystemState};
use cxl_mc::{
    CanonMode, CheckOptions, CheckpointPolicy, Exploration, InvariantProperty, ModelChecker,
    PorMode, Property, Recorder, Reducer, Reduction, ReductionConfig, SwmrProperty,
};

use trace::{ratio, secs, PhaseRecorder, TimedProperty, TimedReducer};

const DEVICES: usize = 4;
/// Set-ups per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Keyframe interval of the `--cold-store` delta encoding.
const DELTA_KEYFRAME: u32 = 16;

/// One workload instance, as parsed from the command line.
struct Spec {
    programs: Vec<Vec<Instruction>>,
    threads: usize,
    reduce: bool,
    cold_store: bool,
    work_dir: PathBuf,
    trace: bool,
}

fn parse_program(spec: &str) -> Result<Vec<Instruction>, String> {
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|tok| match tok.as_bytes().first() {
            Some(b'L') if tok.len() == 1 => Ok(Instruction::Load),
            Some(b'E') if tok.len() == 1 => Ok(Instruction::Evict),
            Some(b'S') => tok[1..]
                .parse::<i64>()
                .map(Instruction::Store)
                .map_err(|e| format!("bad store value in {tok:?}: {e}")),
            _ => Err(format!(
                "unrecognised instruction {tok:?} (use L, S<val>, E)"
            )),
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Spec, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let programs = (1..=DEVICES)
        .map(|i| parse_program(value(&format!("--p{i}")).unwrap_or("")))
        .collect::<Result<Vec<_>, _>>()?;
    let threads = value("--threads")
        .map_or(Ok(1), str::parse)
        .map_err(|e| format!("bad --threads: {e}"))?;
    let cold_store = has("--cold-store");
    let work_dir = value("--work-dir").map(PathBuf::from);
    if cold_store && work_dir.is_none() {
        return Err("--cold-store needs --work-dir".into());
    }
    Ok(Spec {
        programs,
        threads,
        reduce: has("--reduce"),
        cold_store,
        work_dir: work_dir.unwrap_or_default(),
        trace: has("--trace"),
    })
}

/// The traced run's wrappers; the untraced run has none.
struct Wrappers {
    recorder: Arc<PhaseRecorder>,
    reducer: Option<Arc<TimedReducer>>,
    swmr: TimedProperty<SwmrProperty>,
    invariant: TimedProperty<InvariantProperty>,
}

/// Everything between the generated programs and the `explore` call.
struct Setup {
    init: SystemState,
    reduction: Option<Arc<Reduction>>,
    invariant: InvariantProperty,
    mc: ModelChecker,
    spill_dir: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    traced: Option<Wrappers>,
}

fn set_up(spec: &Spec, dir: &Path) -> std::io::Result<Setup> {
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial_n(
        DEVICES,
        spec.programs.iter().cloned().map(Into::into).collect(),
    );
    let reduction = Arc::new(Reduction::new(
        &Ruleset::with_devices(cfg, DEVICES),
        &init,
        ReductionConfig {
            symmetry: spec.reduce,
            data_symmetry: spec.reduce,
            por: if spec.reduce {
                PorMode::Wide
            } else {
                PorMode::Off
            },
            canon: CanonMode::Auto,
        },
    ));
    let reduction = reduction.is_active().then_some(reduction);
    let invariant = InvariantProperty::new(Invariant::for_devices(&cfg, DEVICES));
    let spill_dir = spec.cold_store.then(|| dir.join("spill"));
    let checkpoint_dir = spec.cold_store.then(|| dir.join("checkpoint"));
    for d in spill_dir.iter().chain(&checkpoint_dir) {
        std::fs::create_dir(d)?;
    }
    let traced = spec.trace.then(|| Wrappers {
        recorder: Arc::new(PhaseRecorder::default()),
        reducer: reduction
            .as_ref()
            .map(|r| Arc::new(TimedReducer::new(Arc::clone(r)))),
        swmr: TimedProperty::new(SwmrProperty),
        invariant: TimedProperty::new(invariant.clone()),
    });
    let mut opts = CheckOptions {
        threads: spec.threads,
        delta_keyframe: if spec.cold_store { DELTA_KEYFRAME } else { 0 },
        spill_dir: spill_dir.clone(),
        spill_budget: spec.cold_store.then_some(0),
        checkpoint: checkpoint_dir.as_ref().map(|d| CheckpointPolicy {
            dir: d.clone(),
            every: Duration::ZERO,
        }),
        reduction: reduction
            .as_ref()
            .map(|r| Arc::clone(r) as Arc<dyn Reducer>),
        ..CheckOptions::default()
    };
    if let Some(w) = &traced {
        opts.reduction = w
            .reducer
            .as_ref()
            .map(|r| Arc::clone(r) as Arc<dyn Reducer>);
        opts.telemetry = Some(Arc::clone(&w.recorder) as Arc<dyn Recorder>);
    }
    let mc = ModelChecker::with_options(Ruleset::with_devices(cfg, DEVICES), opts);
    Ok(Setup {
        init,
        reduction,
        invariant,
        mc,
        spill_dir,
        checkpoint_dir,
        traced,
    })
}

/// High-water resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A flat JSON object of numbers and strings, in insertion order.
#[derive(Default)]
struct JsonLine(Vec<(String, String)>);

impl JsonLine {
    fn num(&mut self, key: &str, v: impl Into<f64>) {
        let v: f64 = v.into();
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), text));
    }

    fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), v.to_string()));
    }

    fn flag(&mut self, key: &str, v: bool) {
        self.0.push((key.into(), v.to_string()));
    }

    /// A plain identifier such as a canonicalizer name (no escapes).
    fn name(&mut self, key: &str, v: &str) {
        self.0.push((key.into(), format!("\"{v}\"")));
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn verdict_fields(out: &mut JsonLine, ex: &Exploration, verdict: Duration) {
    let r = &ex.report;
    out.num("verdict_s", verdict.as_secs_f64());
    out.int("states", r.states as u64);
    out.int("transitions", r.transitions as u64);
    out.int("depth", r.depth as u64);
    out.int("terminals", r.terminal_states as u64);
    out.int("violations", r.violations.len() as u64);
    out.int("deadlocks", r.deadlocks.len() as u64);
    out.flag("truncated", r.truncated);
    out.int("quarantined", r.quarantined.len() as u64);
    out.int("memory_bytes", r.memory_bytes as u64);
    if let Some(red) = &r.reduction {
        out.name("canon", red.canon);
        out.int("ample_local", red.ample_local);
        out.int("ample_diamond", red.ample_diamond);
        out.int("ample_host_drain", red.ample_host_drain);
    }
}

/// Per-layer figures of a traced exploration, keyed by the metric names
/// `run.py` reports.
fn layer_fields(
    out: &mut JsonLine,
    spec: &Spec,
    setup: &Setup,
    wrappers: &Wrappers,
    ex: &Exploration,
    verdict: Duration,
) -> Result<(), String> {
    let r = &ex.report;
    let states = r.states.max(1) as f64;

    // reduce — in place, through the timing reducer.
    let (canon, ample) = wrappers
        .reducer
        .as_ref()
        .map(|t| (t.canon.totals(), t.ample.totals()))
        .unwrap_or_default();
    out.num("reduce.canon_ns", canon.ns_per_call());
    out.int("reduce.canon_calls", canon.calls);
    out.num("reduce.canon_changed_ratio", canon.hit_ratio());
    out.num("reduce.ample_ns", ample.ns_per_call());
    out.num("reduce.ample_hit_ratio", ample.hit_ratio());

    // property — in place, through the timing properties.
    let swmr = wrappers.swmr.tally.totals();
    let inv = wrappers.invariant.tally.totals();
    out.num("property.swmr_ns", swmr.ns_per_call());
    out.num("property.invariant_ns", inv.ns_per_call());
    out.int("property.calls", swmr.calls + inv.calls);

    // checker — phase spans from the recorder, routing from the report.
    let phases = wrappers.recorder.phases();
    out.num("checker.expand_s", secs(phases.expand));
    out.num("checker.merge_s", secs(phases.merge));
    out.num("checker.check_s", secs(phases.check));
    out.num("checker.spill_s", secs(phases.spill));
    out.num("checker.checkpoint_s", secs(phases.checkpoint));
    out.int("checker.levels", wrappers.recorder.levels());
    out.int("checker.routed_messages", r.routed_messages);
    out.num("checker.shard_imbalance_pct", r.shard_imbalance_pct);
    out.num(
        "checker.outside_elapsed_s",
        verdict.as_secs_f64() - r.elapsed.as_secs_f64(),
    );
    out.num("checker.phases_s", secs(phases.total()));

    // spill and checkpoint — report counters and the files on disk.
    out.int("spill.extents_sealed", r.spilled_extents);
    out.int("spill.extents_faulted", r.faulted_extents);
    out.int(
        "spill.bytes_on_disk",
        setup.spill_dir.as_deref().map_or(0, dir_bytes),
    );
    out.int("checkpoint.writes", wrappers.recorder.checkpoint_writes());
    let (checkpoint_bytes, checkpoint_read) = match &setup.checkpoint_dir {
        Some(dir) => {
            let path = cxl_mc::checkpoint_path(dir);
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            let t = Instant::now();
            let cp = cxl_mc::Checkpoint::from_path(&path, setup.mc.rules())
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let read = t.elapsed().as_secs_f64();
            std::hint::black_box(cp);
            (bytes, read)
        }
        None => (0, 0.0),
    };
    out.int("checkpoint.bytes", checkpoint_bytes);
    out.num("checkpoint.read_s", checkpoint_read);

    // rules, codec, fasthash — replayed over the stored states.
    let reducer = setup.reduction.as_deref().map(|r| r as &dyn Reducer);
    let keyframe = if spec.cold_store { DELTA_KEYFRAME } else { 0 };
    let rp = replay::replay(setup.mc.rules(), &ex.arena, reducer, keyframe);
    out.num("rules.expand_ns_per_state", ratio(rp.expand_ns, rp.states));
    out.num(
        "rules.successors_per_state",
        ratio(rp.successors, rp.states),
    );
    out.num("codec.encode_ns", ratio(rp.encode_ns, rp.successors));
    out.num(
        "codec.fingerprint_ns",
        ratio(rp.fingerprint_ns, rp.successors),
    );
    out.num("codec.decode_ns", ratio(rp.decode_ns, rp.states));
    let (delta_decode_ns, delta_ratio) = rp.delta.as_ref().map_or((0.0, 1.0), |d| {
        (
            ratio(d.decode_ns, d.entries),
            ratio(d.stored_bytes, d.full_bytes),
        )
    });
    out.num("codec.delta_decode_ns", delta_decode_ns);
    out.num("codec.delta_ratio", delta_ratio);
    out.num(
        "codec.payload_bytes_per_state",
        ex.arena.resident_payload_bytes() as f64 / states,
    );
    out.num(
        "codec.table_bytes_per_state",
        ex.arena.table_bytes() as f64 / states,
    );
    out.num("fasthash.insert_ns", ratio(rp.insert_ns, rp.inserts));
    out.num("fasthash.dedup_hit_rate", ratio(rp.hits, rp.inserts));
    out.num(
        "fasthash.index_bytes_per_state",
        ratio(rp.index_bytes, rp.indexed),
    );
    Ok(())
}

fn run(spec: &Spec) -> Result<String, String> {
    let io = |e: std::io::Error| format!("work directory: {e}");
    let mut out = JsonLine::default();

    // Set up in a fresh parent directory each time (made untimed: a user
    // creates only the spill and checkpoint directories); the last set-up
    // is the one explored.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for k in 0..SETUP_REPEATS {
        let dir = spec.work_dir.join(format!("setup-{k}"));
        if spec.cold_store {
            std::fs::create_dir_all(&dir).map_err(io)?;
        }
        let t = Instant::now();
        let s = set_up(spec, &dir).map_err(io)?;
        setup_times.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    out.num("setup_s", median(setup_times));

    let props: [&dyn Property; 2] = match &setup.traced {
        Some(w) => [&w.swmr, &w.invariant],
        None => [&SwmrProperty, &setup.invariant],
    };
    let t = Instant::now();
    let ex = setup.mc.explore(&setup.init, &props);
    let verdict = t.elapsed();
    out.num("peak_rss_mb", peak_rss_mib());
    verdict_fields(&mut out, &ex, verdict);
    if let Some(w) = &setup.traced {
        layer_fields(&mut out, spec, &setup, w, &ex, verdict)?;
    }
    Ok(out.render())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|spec| run(&spec));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
