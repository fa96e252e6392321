//! # japrove
//!
//! A multi-property hardware model checker reproducing
//! *"Efficient Verification of Multi-Property Designs (The Benefit of
//! Wrong Assumptions)"* (Goldberg, Güdemann, Kroening, Mukherjee —
//! DATE 2018).
//!
//! This facade re-exports the whole stack:
//!
//! * [`logic`] — literals, clauses, cubes, CNF, DIMACS,
//! * [`sat`] — incremental SAT solving: the CDCL solver, the
//!   chronological-backtracking variant, and the [`sat::SatBackend`]
//!   abstraction the engines select per property,
//! * [`aig`] — And-Inverter Graphs, AIGER 1.9 I/O, simulation,
//! * [`tsys`] — transition systems, properties, traces, replay,
//! * [`ic3`] — IC3/PDR, BMC and joint k-induction engines with
//!   certificates,
//! * [`mine`] — property mining: guess candidate invariants from
//!   simulation, filter them by deeper simulation, promote survivors
//!   by k-induction,
//! * [`core`] — JA-verification, joint verification, clause re-use,
//!   debugging sets, parallel drivers, mining composition,
//! * [`genbench`] — synthetic multi-property benchmark designs,
//! * [`obs`] — the run journal: structured tracing, per-phase
//!   metrics, fault injection and crash-safe store writes.
//!
//! # Quickstart
//!
//! ```
//! use japrove::core::{ja_verify, SeparateOptions};
//! use japrove::genbench::buggy_counter;
//!
//! // The paper's Example 1: an 8-bit counter with a buggy reset.
//! let (sys, props) = buggy_counter(8);
//! let report = ja_verify(&sys, &SeparateOptions::local());
//!
//! // P0 (req == 1) is the debugging set; P1 holds locally.
//! assert_eq!(report.debugging_set(), vec![props.p0]);
//! assert!(report.result(props.p1).unwrap().holds());
//! ```

pub use japrove_aig as aig;
pub use japrove_core as core;
pub use japrove_genbench as genbench;
pub use japrove_ic3 as ic3;
pub use japrove_logic as logic;
pub use japrove_mine as mine;
pub use japrove_obs as obs;
pub use japrove_sat as sat;
pub use japrove_tsys as tsys;
