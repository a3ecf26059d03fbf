//! Tracing hooks for the simulation kernel: causal context and the span
//! sink.
//!
//! The kernel itself records nothing — it only hands the installed
//! observer's [`Tracer`] ([`crate::Observer::tracer`], installed with
//! [`crate::Sim::set_observer`]) to every [`crate::Process`] callback.
//! Protocol code opens and closes spans against whatever sink is
//! installed ([`crate::Ctx::trace_open`], [`crate::Ctx::trace_close`]);
//! when none is, they record nothing and the traced code paths cost one
//! branch. Timestamps are virtual time, so a traced
//! run replays byte-identically from its seed.
//!
//! Causality travels *inside* message payloads: a process that wants its
//! work attributed embeds a [`TraceCtx`] (the operation's trace id plus
//! the parent span) in the messages it sends, and the receiver opens its
//! spans under that parent. The kernel's network model never looks at
//! payloads, so carrying a `TraceCtx` cannot perturb routing, latency,
//! loss or RNG draws — the zero-cost-when-off guarantee the dd-trace
//! benches assert bit-for-bit.

use crate::time::Time;
use crate::types::NodeId;

/// Causal context a message envelope carries: which traced operation the
/// message belongs to and which span its consequences nest under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The traced operation's id (one trace per client op; in DataDroplets
    /// this is the request id).
    pub op: u64,
    /// Span within the operation's trace that caused this message; spans
    /// the receiver opens become its children.
    pub span: u32,
}

/// A span sink. Implemented by `dd_trace::Recorder`; the kernel only ever
/// talks to the trait so the dependency points from the tracing crate to
/// the kernel, not the other way around.
pub trait Tracer {
    /// Opens a span named `label` on `node` at virtual time `at`, nested
    /// under `parent` (`None` for an operation's root span). Returns the
    /// new span's id, unique within the operation's trace.
    fn open(
        &mut self,
        at: Time,
        node: NodeId,
        op: u64,
        parent: Option<u32>,
        label: &'static str,
    ) -> u32;

    /// Closes a span at virtual time `at`. `answered` distinguishes a
    /// span that completed its work from one that was abandoned — struck
    /// by a failure detector, expired by a deadline sweep, or still open
    /// when the operation resolved.
    fn close(&mut self, at: Time, op: u64, span: u32, answered: bool);
}
