//! The operation history: invocation/completion pairs, append-only.
//!
//! A [`Recorder`] is installed behind an `Option` in the client plane, so
//! capture is zero-cost when disabled: the hooks test the option and build
//! nothing otherwise. Every recorded value is owned data (key strings,
//! version numbers) — the history stays valid after the cluster is gone.

use dd_dht::Version;
use std::collections::HashMap;

/// What an operation *was*, as submitted (the invocation half of the
/// pair). Keys and tags are recorded as owned strings so a [`History`]
/// outlives the run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpDesc {
    /// A single write.
    Put {
        /// Key written.
        key: String,
        /// Correlation tag, if any.
        tag: Option<String>,
    },
    /// A single read.
    Get {
        /// Key read.
        key: String,
    },
    /// A versioned delete.
    Delete {
        /// Key deleted.
        key: String,
    },
    /// An attribute range scan.
    Scan,
    /// A cluster-wide aggregate.
    Aggregate,
    /// A batched write.
    MultiPut {
        /// Keys of the batch, in submission order.
        keys: Vec<String>,
        /// The batch's shared tag when every item carries the same one.
        tag: Option<String>,
    },
    /// A tag-scoped read.
    MultiGet {
        /// Tag read.
        tag: String,
    },
}

/// Why a recorded operation failed (mirrors the client plane's error
/// taxonomy; batch partiality is carried on the outcome itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFailure {
    /// No completion within the client timeout window.
    Timeout,
    /// No live soft node existed at submission.
    NoLiveEntry,
    /// A scan or aggregate completed, but the replicas that answered left
    /// some tuple without an answering owner.
    Partial,
}

/// What an operation *returned* (the completion half of the pair).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A put or delete was ordered at this version.
    Write {
        /// Version assigned by the key's coordinator.
        version: Version,
    },
    /// A read completed; `None` means the key read as absent.
    Read {
        /// Version of the returned tuple, if one was found.
        version: Option<Version>,
    },
    /// A scan completed.
    Scan {
        /// Tuples returned.
        tuples: u64,
    },
    /// An aggregate completed.
    Aggregate,
    /// A batched write completed (possibly partially: `versions` shorter
    /// than `want` means dead key coordinators were given up on).
    MultiPut {
        /// `(key_hash, version)` per ordered item.
        versions: Vec<(u64, Version)>,
        /// Items submitted.
        want: u32,
    },
    /// A tag-scoped read completed.
    MultiGet {
        /// `(key, version)` per returned live tuple.
        items: Vec<(String, Version)>,
        /// Whether every contacted replica answered (a *complete* union);
        /// `false` means the deadline sweep cut the gather short.
        complete: bool,
    },
    /// The operation failed outright.
    Failed(OpFailure),
}

/// Resolves a batched write's acknowledged `(key_hash, version)` pairs
/// ([`Outcome::MultiPut`]) against its invocation's key list
/// ([`OpDesc::MultiPut`]), yielding `(key, version)` per ordered item —
/// the one place the hash-matching rule lives, shared by the checkers'
/// history index and [`History::acked_write`].
pub(crate) fn resolve_batch_acks<'a>(
    keys: &'a [String],
    versions: &'a [(u64, Version)],
) -> impl Iterator<Item = (&'a str, Version)> {
    keys.iter().flat_map(move |key| {
        let kh = dd_sim::rng::stable_hash(key.as_bytes());
        versions
            .iter()
            .filter(move |&&(vkh, _)| vkh == kh)
            .map(move |&(_, version)| (key.as_str(), version))
    })
}

/// One recorded operation: an invocation, and (once resolved) its
/// completion. The unit of every checker's witnessing sub-history.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Cluster-unique request id.
    pub req: u64,
    /// Issuing client session.
    pub session: u64,
    /// Workload phase active at submission (scenario runs), if any.
    pub phase: Option<u32>,
    /// Virtual time of submission.
    pub invoked: u64,
    /// What was submitted.
    pub desc: OpDesc,
    /// Virtual time of resolution; `None` while still in flight (an op
    /// never resolved by the end of the run stays open in the history).
    pub completed: Option<u64>,
    /// What came back; `None` while still in flight.
    pub outcome: Option<Outcome>,
}

impl Op {
    /// Whether this op resolved (successfully or not).
    #[must_use]
    pub fn is_resolved(&self) -> bool {
        self.outcome.is_some()
    }
}

/// An append-only operation history. Ops are stored in invocation order;
/// completions fill in the matching op in place, so iteration order is
/// deterministic for a deterministic run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    ops: Vec<Op>,
    by_req: HashMap<u64, usize>,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a history from raw ops (the mutation-testing entry point:
    /// corrupt a recorded history's ops, reassemble, re-check).
    #[must_use]
    pub fn from_ops(ops: Vec<Op>) -> Self {
        let by_req = ops.iter().enumerate().map(|(i, o)| (o.req, i)).collect();
        History { ops, by_req }
    }

    /// The recorded ops, in invocation order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The op recorded for a request id.
    #[must_use]
    pub fn op(&self, req: u64) -> Option<&Op> {
        self.by_req.get(&req).map(|&i| &self.ops[i])
    }

    /// The write whose acknowledgement gave `key` the version `version` —
    /// a put, a delete or a batch holding the key — first in invocation
    /// order.
    #[must_use]
    pub fn acked_write(&self, key: &str, version: Version) -> Option<&OpDesc> {
        self.ops.iter().find_map(|op| {
            let acked = match (&op.desc, op.outcome.as_ref()?) {
                (
                    OpDesc::Put { key: k, .. } | OpDesc::Delete { key: k },
                    Outcome::Write { version: v },
                ) => k == key && *v == version,
                (OpDesc::MultiPut { keys, .. }, Outcome::MultiPut { versions, .. }) => {
                    resolve_batch_acks(keys, versions).any(|kv| kv == (key, version))
                }
                _ => false,
            };
            acked.then_some(&op.desc)
        })
    }

    /// Records an invocation. Later invocations must carry later-or-equal
    /// times (the recorder is fed from one virtual clock).
    pub fn record_invoke(
        &mut self,
        req: u64,
        session: u64,
        phase: Option<u32>,
        at: u64,
        desc: OpDesc,
    ) {
        self.by_req.insert(req, self.ops.len());
        self.ops.push(Op {
            req,
            session,
            phase,
            invoked: at,
            desc,
            completed: None,
            outcome: None,
        });
    }

    /// Records the completion of a previously invoked op. Unknown request
    /// ids are ignored (e.g. ops submitted before recording started).
    pub fn record_complete(&mut self, req: u64, at: u64, outcome: Outcome) {
        if let Some(&i) = self.by_req.get(&req) {
            let op = &mut self.ops[i];
            if op.outcome.is_none() {
                op.completed = Some(at);
                op.outcome = Some(outcome);
            }
        }
    }

    /// Number of recorded ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The capture front-end the client plane drives: a [`History`] plus the
/// mutable phase context (scenario runs stamp ops with the workload phase
/// that issued them).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    history: History,
    phase: Option<u32>,
}

impl Recorder {
    /// A recorder with an empty history and no phase context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the workload phase stamped on subsequent invocations.
    pub fn set_phase(&mut self, phase: Option<u32>) {
        self.phase = phase;
    }

    /// Records an invocation at virtual time `at`.
    pub fn invoke(&mut self, req: u64, session: u64, at: u64, desc: OpDesc) {
        self.history.record_invoke(req, session, self.phase, at, desc);
    }

    /// Records a completion at virtual time `at`.
    pub fn complete(&mut self, req: u64, at: u64, outcome: Outcome) {
        self.history.record_complete(req, at, outcome);
    }

    /// The history captured so far.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Consumes the recorder, yielding the captured history.
    #[must_use]
    pub fn finish(self) -> History {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_then_complete_pairs_up() {
        let mut h = History::new();
        h.record_invoke(5, 1, Some(2), 100, OpDesc::Get { key: "k".into() });
        assert!(!h.op(5).unwrap().is_resolved());
        h.record_complete(5, 130, Outcome::Read { version: Some(Version(3)) });
        let op = h.op(5).unwrap();
        assert_eq!(op.completed, Some(130));
        assert_eq!(op.phase, Some(2));
        assert!(op.is_resolved());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn unknown_or_duplicate_completions_are_ignored() {
        let mut h = History::new();
        h.record_complete(9, 10, Outcome::Aggregate);
        assert!(h.is_empty());
        h.record_invoke(1, 1, None, 0, OpDesc::Scan);
        h.record_complete(1, 5, Outcome::Scan { tuples: 2 });
        h.record_complete(1, 9, Outcome::Scan { tuples: 99 });
        assert_eq!(h.op(1).unwrap().outcome, Some(Outcome::Scan { tuples: 2 }));
    }

    #[test]
    fn from_ops_round_trips() {
        let mut rec = Recorder::new();
        rec.invoke(1, 1, 0, OpDesc::Put { key: "a".into(), tag: None });
        rec.complete(1, 4, Outcome::Write { version: Version(1) });
        let h = rec.finish();
        let rebuilt = History::from_ops(h.ops().to_vec());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.op(1).unwrap().invoked, 0);
    }

    #[test]
    fn acked_write_finds_the_op_behind_a_version() {
        let mut rec = Recorder::new();
        let put = OpDesc::Put { key: "a".into(), tag: Some("t".into()) };
        rec.invoke(1, 1, 0, put.clone());
        rec.complete(1, 4, Outcome::Write { version: Version(1) });
        rec.invoke(2, 1, 5, OpDesc::Delete { key: "a".into() });
        rec.complete(2, 9, Outcome::Write { version: Version(2) });
        let batch = OpDesc::MultiPut { keys: vec!["b".into(), "a".into()], tag: None };
        rec.invoke(3, 1, 10, batch.clone());
        let ah = dd_sim::rng::stable_hash(b"a");
        rec.complete(3, 15, Outcome::MultiPut { versions: vec![(ah, Version(3))], want: 2 });
        rec.invoke(4, 1, 16, OpDesc::Put { key: "a".into(), tag: None });
        let h = rec.finish();
        assert_eq!(h.acked_write("a", Version(1)), Some(&put));
        assert_eq!(h.acked_write("a", Version(2)), Some(&OpDesc::Delete { key: "a".into() }));
        assert_eq!(h.acked_write("a", Version(3)), Some(&batch));
        assert_eq!(h.acked_write("b", Version(3)), None, "b was never ordered");
        assert_eq!(h.acked_write("a", Version(4)), None, "an un-acked put acked nothing");
    }
}
