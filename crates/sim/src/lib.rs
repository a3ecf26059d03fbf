//! # dd-sim — deterministic discrete-event simulation kernel
//!
//! Substrate for reproducing the protocol-level evaluation of
//! *"An epidemic approach to dependable key-value substrates"* (DSN 2011).
//! The paper's claims are all protocol-level quantities — coverage
//! probabilities, message counts, replica counts, convergence rounds — so a
//! seeded discrete-event simulator measures exactly what a physical testbed
//! would, while adding reproducibility and controllable churn.
//!
//! The kernel is intentionally small and fully deterministic:
//!
//! * [`Sim`] owns a priority queue of timestamped events and a set of nodes.
//! * Protocol logic implements [`Process`]; side effects go through [`Ctx`].
//! * The network model ([`NetConfig`]) adds per-message latency, loss and
//!   partitions.
//! * [`churn::ChurnSchedule`] pre-computes node down/up events from session
//!   length distributions so experiments can replay identical churn.
//!
//! Protocol crates in this workspace are written *sans-IO*: pure state
//! machines that return actions. The [`Process`] trait is the thin adapter
//! binding them to the kernel, which keeps them unit-testable without a
//! simulator and composable into multi-protocol nodes.
//!
//! ```
//! use dd_sim::{Sim, SimConfig, Process, Ctx, NodeId};
//!
//! struct Ping { got: u32 }
//! impl Process for Ping {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         // node 0 pings everyone
//!         if ctx.id() == NodeId(0) {
//!             for n in 1..4 { ctx.send(NodeId(n), 7); }
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
//!         self.got += msg;
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default().seed(42));
//! for i in 0..4 { sim.add_node(NodeId(i), Ping { got: 0 }); }
//! sim.run();
//! assert_eq!(sim.node(NodeId(3)).unwrap().got, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod runtime;
pub mod time;
pub mod trace;
pub mod types;

pub use engine::{Ctx, NetChange, Observer, Process, Sim, SimConfig};
pub use json::json_escape;
pub use metrics::Metrics;
pub use net::{LatencyModel, NetConfig};
pub use time::{Duration, Time};
pub use trace::{TraceCtx, Tracer};
pub use types::{NodeId, TimerTag};
