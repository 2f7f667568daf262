#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # tcf-net — the distance-aware interconnection network
//!
//! Both the PRAM-NUMA model and its TCF extension place the processor
//! groups and memory modules on a **distance-aware interconnection
//! network**: routing latency is proportional to the distance between the
//! source processor group and the destination memory module, and the
//! network's bandwidth bounds how many references can be in flight per
//! cycle (Forsell & Leppänen, §2.1/§3.1).
//!
//! This crate provides:
//!
//! * [`Topology`] — ring, 2-D mesh and ideal crossbar layouts with their
//!   natural distance metrics and deterministic shortest-path routes,
//! * [`Network`] — a cycle-based router using link reservation: each hop
//!   costs `hop_latency` cycles and each link carries one message per
//!   cycle, so both *distance* (latency ∝ hops) and *congestion*
//!   (serialization on shared links) emerge from the same mechanism.
//!   The topology is consulted once, in [`Network::new`], to fill a
//!   first-hop table; every message afterwards — a single
//!   [`send`](Network::send), a [`send_on`](Network::send_on) along a
//!   [`Route`] handle, or the fused request–service–reply
//!   [`roundtrip`](Network::roundtrip) of one shared-memory reference —
//!   follows that table through one walk (see [`router`]),
//! * [`NetStats`] — delivered messages, hop counts and observed queueing,
//!   used by the benches that reproduce the paper's bandwidth discussion;
//!   [`NetRun`] carries one loop's share of them until
//!   [`Network::absorb`].

pub mod router;
pub mod stats;
pub mod topology;

pub use router::{NetRun, Network, Route};
pub use stats::NetStats;
pub use topology::Topology;
