//! Machine-readable benchmark snapshots.
//!
//! Criterion's own JSON output lives under `target/` and disappears with
//! it; the throughput numbers the ROADMAP tracks across PRs need a
//! durable, diffable home. This module renders benchmark measurements
//! into `bench_results/<name>.json` at the workspace root — the
//! `mc_throughput` bench emits one on every run, and the committed
//! snapshot records the measured before/after of the exploration-pipeline
//! rewrite.

use serde::Serialize;
use std::io;
use std::path::PathBuf;

/// One measured exploration workload.
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputRow {
    /// Which pipeline ran (e.g. `naive`, `optimized`, `optimized_4threads`).
    pub pipeline: String,
    /// Workload label (e.g. `stores(0,3) x loads(3)`).
    pub workload: String,
    /// Devices in the explored topology.
    pub devices: usize,
    /// Worker threads the pipeline ran with (1 = sequential).
    pub threads: usize,
    /// Distinct states explored.
    pub states: usize,
    /// Transitions examined.
    pub transitions: usize,
    /// Best-of-N wall time in seconds.
    pub elapsed_secs: f64,
    /// States discovered per second (states / elapsed).
    pub states_per_sec: f64,
    /// States per second divided by the thread count — the parallel
    /// efficiency figure the ROADMAP tracks.
    pub states_per_sec_per_thread: f64,
    /// Mean packed bytes per stored state in the exploration's
    /// [`cxl_core::StateArena`] — the canonical-store footprint.
    pub bytes_per_state: f64,
    /// Mean bytes per state of the pre-arena representation the packed
    /// store replaced: `size_of::<SystemState>()` plus heap blocks plus
    /// `Arc`/arena-slot overhead (see [`crate::baseline_state_bytes`]).
    /// `bytes_per_state / baseline_bytes_per_state` is the compression
    /// ratio the ROADMAP tracks.
    pub baseline_bytes_per_state: f64,
    /// Process peak RSS (VmHWM) in MiB when this row was recorded, 0.0
    /// where the platform does not expose it. Monotone across rows of
    /// one run — read it on the *last* row for the run's true peak.
    pub peak_rss_mb: f64,
    /// Current-RSS growth (Linux `VmRSS` delta, MiB) across this row's
    /// timed iterations — the per-row memory figure `peak_rss_mb` is
    /// not: each row samples RSS before and after its own measurement,
    /// so rows are comparable instead of all echoing the whole-process
    /// high-water mark. Near zero for rows whose working set fits in
    /// memory already touched by earlier rows; 0.0 where `/proc` is
    /// unavailable.
    pub rss_delta_mb: f64,
    /// Dedup/store shards the row ran with (1 = a single visited set).
    pub shards: usize,
    /// Successor messages routed through `shard_of(fingerprint, shards)` (0 for
    /// unsharded rows).
    pub routed_messages: u64,
    /// How far the most loaded shard sat above a perfect split,
    /// `(max − mean) / mean` in percent (0.0 for unsharded rows).
    pub shard_imbalance_pct: f64,
    /// Which state-space reduction the row ran with: `none`, `symmetry`,
    /// `por`, or `symmetry+por`.
    pub reduction: String,
    /// Which orbit canonicalizer backed the symmetry engines: `off`
    /// (none armed, or pure byte-symmetry sort), `refine`
    /// (partition-refinement labeller), `brute` (admissible-arrangement
    /// enumeration), or `capped` (refine over group byte-classes after
    /// the brute cap tripped).
    pub canon: String,
    /// States the same workload explores **without** reduction (equal to
    /// `states` on unreduced rows) — `states / states_explored_unreduced`
    /// is the measured reduction ratio the ROADMAP tracks.
    pub states_explored_unreduced: usize,
    /// Stored payload bytes (resident plus sealed extents) divided by
    /// the full-encoding payload a plain arena would hold for the same
    /// states — the parent-delta store's compression ratio. 1.0 on rows
    /// that ran without delta encoding.
    pub delta_ratio: f64,
    /// Cold extents sealed to the spill directory during the measured
    /// exploration (0 on rows that ran without `--spill-dir`).
    pub spilled_extents: u64,
    /// Extent fault-ins served while decoding spilled states — cache
    /// misses, not total cold accesses (0 on rows without spill; 0 on
    /// spill rows too when the decode floor kept every fault away).
    pub faulted_extents: u64,
    /// Fraction of examined transitions that hit an already-stored state,
    /// `1 − states/transitions` (0.0 when no transitions fired) — the
    /// dedup pressure this row's workload puts on the visited set.
    pub dedup_hit_rate: f64,
    /// Wall-time cost of running with the telemetry recorder attached,
    /// `(elapsed_with − elapsed_without) / elapsed_without × 100`,
    /// measured interleaved on the same workload. 0.0 on rows that made
    /// no such measurement; the ISSUE bar is ≤ 2% on the rows that do.
    pub telemetry_overhead_pct: f64,
}

/// A named collection of measurements plus derived ratios.
#[derive(Clone, Debug, Serialize)]
pub struct BenchSnapshot {
    /// Snapshot name (the bench that produced it).
    pub name: String,
    /// Free-form provenance note (host threads, iteration policy).
    pub note: String,
    /// The measurements.
    pub rows: Vec<ThroughputRow>,
    /// `states_per_sec` ratios relative to the first (baseline) row,
    /// keyed by pipeline name. Only rows measuring the **same workload
    /// and topology** as the baseline appear — a ratio across different
    /// state spaces would be meaningless.
    pub speedup_vs_baseline: Vec<(String, f64)>,
}

impl BenchSnapshot {
    /// Assemble a snapshot, deriving speedups against `rows[0]` for the
    /// rows that share its workload and device count.
    #[must_use]
    pub fn new(name: impl Into<String>, note: impl Into<String>, rows: Vec<ThroughputRow>) -> Self {
        let speedup_vs_baseline = match rows.first() {
            Some(base) if base.states_per_sec > 0.0 => rows
                .iter()
                .filter(|r| r.workload == base.workload && r.devices == base.devices)
                .map(|r| (r.pipeline.clone(), r.states_per_sec / base.states_per_sec))
                .collect(),
            _ => Vec::new(),
        };
        BenchSnapshot { name: name.into(), note: note.into(), rows, speedup_vs_baseline }
    }

    /// Write the snapshot as pretty-printed JSON to
    /// `<workspace>/bench_results/<name>.json`, returning the path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = workspace_root().join("bench_results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::other(e.to_string()))?;
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }
}

/// The process's peak resident set size (Linux `VmHWM`) in MiB, or 0.0
/// where `/proc` is unavailable. Recorded into
/// [`ThroughputRow::peak_rss_mb`] so memory claims in `PERFORMANCE.md`
/// are backed by a measured number, not just the arena's own accounting.
/// Whole-process and monotone — for a per-row figure use the
/// [`current_rss_mb`] delta around the row's measurement
/// ([`ThroughputRow::rss_delta_mb`]).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// The process's *current* resident set size (Linux `VmRSS`) in MiB, or
/// 0.0 where `/proc` is unavailable. Sampled before and after a bench
/// row's timed iterations, the difference is that row's own resident
/// growth — the big arena allocations are mmap-backed and return to the
/// OS when freed, so the delta tracks what the row actually held.
#[must_use]
pub fn current_rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The workspace root, resolved from this crate's manifest directory.
#[must_use]
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_speedups() {
        let snap = BenchSnapshot::new(
            "t",
            "",
            vec![
                ThroughputRow {
                    pipeline: "naive".into(),
                    workload: "w".into(),
                    devices: 2,
                    threads: 1,
                    states: 10,
                    transitions: 20,
                    elapsed_secs: 2.0,
                    states_per_sec: 5.0,
                    states_per_sec_per_thread: 5.0,
                    bytes_per_state: 30.0,
                    baseline_bytes_per_state: 600.0,
                    peak_rss_mb: 1.0,
                    rss_delta_mb: 0.5,
                    shards: 1,
                    routed_messages: 0,
                    shard_imbalance_pct: 0.0,
                    reduction: "none".into(),
                    canon: "off".into(),
                    states_explored_unreduced: 10,
                    delta_ratio: 1.0,
                    spilled_extents: 0,
                    faulted_extents: 0,
                    dedup_hit_rate: 0.5,
                    telemetry_overhead_pct: 0.0,
                },
                ThroughputRow {
                    pipeline: "optimized".into(),
                    workload: "w".into(),
                    devices: 2,
                    threads: 4,
                    states: 10,
                    transitions: 20,
                    elapsed_secs: 0.5,
                    states_per_sec: 20.0,
                    states_per_sec_per_thread: 5.0,
                    bytes_per_state: 30.0,
                    baseline_bytes_per_state: 600.0,
                    peak_rss_mb: 1.0,
                    rss_delta_mb: 0.5,
                    shards: 1,
                    routed_messages: 0,
                    shard_imbalance_pct: 0.0,
                    reduction: "none".into(),
                    canon: "off".into(),
                    states_explored_unreduced: 10,
                    delta_ratio: 1.0,
                    spilled_extents: 0,
                    faulted_extents: 0,
                    dedup_hit_rate: 0.5,
                    telemetry_overhead_pct: 0.0,
                },
            ],
        );
        assert_eq!(snap.speedup_vs_baseline[0], ("naive".to_string(), 1.0));
        assert_eq!(snap.speedup_vs_baseline[1], ("optimized".to_string(), 4.0));
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"states_per_sec\""));
    }

    #[test]
    fn workspace_root_contains_cargo_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }
}
