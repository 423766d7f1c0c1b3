//! Replays of the explored state space through the rules, codec and
//! fasthash layers, timed from outside through their public functions.
//!
//! The replay walks the stored arena in discovery (BFS) order, chunk by
//! chunk, and runs each layer over the whole chunk inside one timed
//! span, so the clock is read a few times per chunk rather than per
//! call:
//!
//! 1. `StateCodec::decode_into` on every stored state (`decode`);
//! 2. `Ruleset::for_each_enabled` (or `_variants` when the reducer asks
//!    for peer variants) with an empty callback (`expand`);
//! 3. `StateCodec::encode_into` on every successor (`encode`);
//! 4. `StateCodec::fingerprint` on every successor, after the workload's
//!    reducer canonicalized it outside the timed span (`fingerprint`);
//! 5. `FpIndex::insert` of every successor into a fresh index, in the
//!    checker's merge order (`insert`). A miss appends the successor's
//!    bytes to the replay's own byte store, which the equality callback
//!    compares against — the arena push the checker does on a miss.
//!
//! Every stored state is expanded fully: under POR the checker expands
//! some states through a single ample step instead, so the reduced
//! workload's replay does more work per state than its exploration did.
//!
//! With a keyframe interval, the fresh states of step 5 are also pushed
//! into a delta arena (`StateArena::push_encoded_delta` against their
//! discovering parent), whose `StateArena::decode_into` is then timed
//! over every entry.

use std::hint::black_box;
use std::time::Instant;

use cxl_core::{FpIndex, Ruleset, StateArena, StateCodec, SystemState};
use cxl_mc::Reducer;

/// Parents per timed chunk.
const CHUNK: usize = 1024;

#[derive(Debug, Default)]
pub struct Replay {
    pub states: u64,
    pub successors: u64,
    pub decode_ns: u64,
    pub expand_ns: u64,
    pub encode_ns: u64,
    pub fingerprint_ns: u64,
    pub insert_ns: u64,
    pub inserts: u64,
    pub hits: u64,
    pub index_bytes: u64,
    pub indexed: u64,
    pub delta: Option<DeltaReplay>,
}

#[derive(Debug, Default)]
pub struct DeltaReplay {
    pub entries: u64,
    pub decode_ns: u64,
    pub stored_bytes: u64,
    pub full_bytes: u64,
}

/// Concatenated encodings addressed by slot — the byte store behind the
/// replayed index.
#[derive(Default)]
struct ByteStore {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl ByteStore {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, slot: usize) -> &[u8] {
        let start = if slot == 0 { 0 } else { self.ends[slot - 1] };
        &self.bytes[start..self.ends[slot]]
    }

    fn push(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.ends.push(self.bytes.len());
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn expand(
    rules: &Ruleset,
    variants: bool,
    state: &SystemState,
    scratch: &mut SystemState,
    f: impl FnMut(cxl_core::RuleId, &SystemState),
) {
    if variants {
        rules.for_each_enabled_variants(state, scratch, f);
    } else {
        rules.for_each_enabled(state, scratch, f);
    }
}

/// Replay `arena` (the exploration's stored states) through the layers.
/// `reducer` canonicalizes successors before fingerprinting, as in the
/// checker; `delta_keyframe > 0` also builds and times a delta arena.
pub fn replay(
    rules: &Ruleset,
    arena: &StateArena,
    reducer: Option<&dyn Reducer>,
    delta_keyframe: u32,
) -> Replay {
    let codec: StateCodec = *arena.codec();
    let variants = reducer.is_some_and(Reducer::wants_peer_variants);
    let mut out = Replay {
        states: arena.len() as u64,
        ..Replay::default()
    };

    let mut index = FpIndex::new();
    let mut store = ByteStore::default();
    let mut full = Vec::new();
    arena.append_full_bytes(0, &mut full);
    index.insert(StateCodec::fingerprint(&full), 0, |_| {
        unreachable!("empty index")
    });
    store.push(&full);
    let mut delta = (delta_keyframe > 0).then(|| {
        let mut a = StateArena::new(codec);
        a.enable_delta(delta_keyframe);
        a.push_encoded(&full);
        a
    });

    let mut parents: Vec<SystemState> = Vec::new();
    let mut parent_bytes = ByteStore::default();
    let mut parent_slots: Vec<Option<u32>> = Vec::new();
    let mut succs: Vec<SystemState> = Vec::new();
    let mut succ_parent: Vec<usize> = Vec::new();
    let mut enc = ByteStore::default();
    let mut canon = ByteStore::default();
    let mut canon_buf = Vec::new();
    let mut canon_scratch = Vec::new();
    let mut fps: Vec<u64> = Vec::new();
    let mut fresh: Vec<(usize, usize)> = Vec::new();
    let mut scratch = codec.blank();

    for start in (0..arena.len()).step_by(CHUNK) {
        let ids = start..arena.len().min(start + CHUNK);
        let n = ids.len();

        // Untimed: the chunk's full encodings and each parent's slot in
        // the replayed index (its delta base).
        parent_bytes.clear();
        parent_slots.clear();
        for id in ids {
            full.clear();
            arena.append_full_bytes(id, &mut full);
            let fp = StateCodec::fingerprint(&full);
            parent_slots.push(index.probe(fp, |slot| store.get(slot as usize) == full.as_slice()));
            parent_bytes.push(&full);
        }
        while parents.len() < n {
            parents.push(codec.blank());
        }

        let t = Instant::now();
        for (k, parent) in parents.iter_mut().enumerate().take(n) {
            codec
                .decode_into(parent_bytes.get(k), parent)
                .expect("arena holds codec output");
        }
        out.decode_ns += nanos_since(t);

        let mut fired = 0u64;
        let t = Instant::now();
        for parent in &parents[..n] {
            expand(rules, variants, parent, &mut scratch, |_, s| {
                black_box(s);
                fired += 1;
            });
        }
        out.expand_ns += nanos_since(t);
        out.successors += fired;

        // Untimed: keep the successors for the encode pass.
        let mut m = 0usize;
        succ_parent.clear();
        for (k, parent) in parents[..n].iter().enumerate() {
            expand(rules, variants, parent, &mut scratch, |_, s| {
                if m < succs.len() {
                    succs[m].clone_from(s);
                } else {
                    succs.push(s.clone());
                }
                succ_parent.push(k);
                m += 1;
            });
        }

        enc.clear();
        let t = Instant::now();
        for s in &succs[..m] {
            codec.encode_into(s, &mut enc.bytes);
            enc.ends.push(enc.bytes.len());
        }
        out.encode_ns += nanos_since(t);

        // Untimed: canonical representatives, as the checker dedups them.
        let keys = match reducer {
            Some(r) => {
                canon.clear();
                for i in 0..m {
                    canon_buf.clear();
                    canon_buf.extend_from_slice(enc.get(i));
                    r.canonicalize(&mut canon_buf, &mut canon_scratch);
                    canon.push(&canon_buf);
                }
                &canon
            }
            None => &enc,
        };

        fps.clear();
        let t = Instant::now();
        for i in 0..m {
            fps.push(StateCodec::fingerprint(keys.get(i)));
        }
        out.fingerprint_ns += nanos_since(t);

        fresh.clear();
        let mut hits = 0u64;
        let t = Instant::now();
        for (i, &fp) in fps.iter().enumerate() {
            let bytes = keys.get(i);
            let slot = u32::try_from(store.len()).expect("replay index fits u32 slots");
            match index.insert(fp, slot, |s| store.get(s as usize) == bytes) {
                Some(_) => hits += 1,
                None => {
                    store.push(bytes);
                    fresh.push((i, succ_parent[i]));
                }
            }
        }
        out.insert_ns += nanos_since(t);
        out.inserts += m as u64;
        out.hits += hits;

        if let Some(d) = delta.as_mut() {
            for &(i, k) in &fresh {
                d.push_encoded_delta(keys.get(i), parent_slots[k]);
            }
        }
    }
    out.index_bytes = index.approx_heap_bytes() as u64;
    out.indexed = store.len() as u64;

    out.delta = delta.map(|d| {
        let t = Instant::now();
        for id in 0..d.len() {
            d.decode_into(id, &mut scratch);
        }
        DeltaReplay {
            decode_ns: nanos_since(t),
            entries: d.len() as u64,
            stored_bytes: d.byte_len() as u64,
            full_bytes: d.full_payload_bytes() as u64,
        }
    });
    out
}
