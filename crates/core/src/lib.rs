//! # cxl-core — a formal model of CXL.cache in Rust
//!
//! This crate is a reproduction of the formal model at the heart of
//! *Formalising CXL Cache Coherence* (Tan, Donaldson, Wickerson,
//! ASPLOS 2025): the **CXL.cache** inter-device cache-coherence protocol of
//! the Compute Express Link standard, modelled as a guarded-command
//! state-transition system over an **N-device**, single-location system.
//! The paper fixes N = 2 "to keep the proof tractable"; this reproduction
//! generalises the model to a runtime-sized device set while keeping the
//! two-device instance bit-identical to the paper's.
//!
//! ## State layout
//!
//! A [`SystemState`] is a [`state::DeviceVec`] of per-device components
//! (program, cache line, six channels, buffer slot), the host cache line,
//! and the transaction-identifier counter — for N = 2 exactly the twenty
//! components of paper Figure 3. The device vector keeps its first two
//! slots inline and spills devices 3..N to the heap; each [`Channel`] is
//! backed by a capacity-1 inline buffer (reachable states keep channels
//! singleton, a §6 invariant conjunct), so cloning a two-device state —
//! the dominant cost of exploration — does not allocate for channels.
//!
//! ## Fingerprinting
//!
//! [`SystemState::fingerprint`] hashes the full record once with
//! [`FxHasher`], device slots in index order, so the 64-bit fingerprints
//! the model checker dedups on are well-defined for variable-length device
//! vectors: states of different device counts hash their device counts via
//! the vector length, and a state's fingerprint is independent of whether
//! a device lives in the inline pair or the spill.
//!
//! ## Rules and topologies
//!
//! The transition rules (paper §3.3) live in a [`Ruleset`]: 69 rule
//! *shapes* instantiated once per device of a [`Topology`] (the paper's 68
//! rules are its 34 shapes × 2 devices). Host-side guards that the paper
//! phrases against "the other device" quantify over the acting device's
//! *peers*:
//!
//! - "no other sharer" ⇒ no peer is a tracked sharer;
//! - "snoop the owner" ⇒ find the unique tracked owner among the peers;
//! - "snoop the other sharer" ⇒ snoop **every** tracked sharer peer, and
//!   grant only after the last snoop response is collected;
//! - Snoop-pushes-GO, GO-cannot-tailgate-snoop and one-snoop-per-line
//!   remain per-device channel guards and apply unchanged to any N.
//!
//! The CXL ordering restrictions are explicit, relaxable guards — see
//! [`ProtocolConfig`] and [`Relaxation`].
//!
//! The **SWMR** property (paper Definition 6.1) and the conjunct-based
//! inductive invariant (paper §6) — see [`swmr`] and [`Invariant`] —
//! quantify over every device and every ordered device pair of the
//! topology ([`Invariant::for_devices`]).
//!
//! Where the paper uses the Isabelle proof assistant, the companion crates
//! substitute exhaustive explicit-state model checking (`cxl-mc`),
//! scenario verification (`cxl-litmus`), and an obligation-matrix engine
//! reproducing the structure of the mechanised proof (`cxl-sketch`).
//!
//! ## Quickstart
//!
//! ```
//! use cxl_core::{ProtocolConfig, Ruleset, SystemState, swmr};
//! use cxl_core::instr::programs;
//!
//! // Paper Table 3's initial state: device 1 stores, device 2 loads.
//! let state = SystemState::initial(programs::store(42), programs::load());
//! let rules = Ruleset::new(ProtocolConfig::strict());
//!
//! // Walk one nondeterministic path to quiescence, checking SWMR.
//! let mut s = state;
//! while let Some((_rule, next)) = rules.successors(&s).into_iter().next() {
//!     assert!(swmr(&next));
//!     s = next;
//! }
//! assert!(s.is_quiescent());
//! ```
//!
//! ## A three-device system
//!
//! ```
//! use cxl_core::{ProtocolConfig, Ruleset, SystemState, swmr};
//! use cxl_core::instr::programs;
//!
//! let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
//! let state = SystemState::initial_n(
//!     3,
//!     vec![programs::store(42), programs::load(), programs::load()],
//! );
//! let mut s = state;
//! while let Some((_rule, next)) = rules.successors(&s).into_iter().next() {
//!     assert!(swmr(&next));
//!     s = next;
//! }
//! assert!(s.is_quiescent());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod cacheline;
pub mod channel;
pub mod codec;
pub mod config;
pub mod fasthash;
pub mod ids;
pub mod instr;
pub mod invariant;
pub mod msg;
pub mod rules;
pub mod state;

pub use builder::StateBuilder;
pub use cacheline::{DCache, DState, HCache, HState};
pub use channel::Channel;
pub use codec::{heap_state_bytes, CodecError, EntryCursor, StateArena, StateCodec};
pub use config::{ProtocolConfig, Relaxation};
pub use fasthash::{shard_of, FpIndex, FxBuildHasher, FxHasher};
pub use ids::{DeviceId, Tid, Topology, Val};
pub use instr::{Instruction, Program};
pub use invariant::{swmr, Conjunct, Family, Granularity, Invariant};
pub use msg::{
    D2HReq, D2HReqType, D2HRsp, D2HRspType, DBufferSlot, DataMsg, H2DReq, H2DReqType, H2DRsp,
    H2DRspType,
};
pub use rules::{H2DChannel, RuleCategory, RuleId, Ruleset, Shape};
pub use state::{DeviceState, SystemState};
