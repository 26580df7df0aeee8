//! The user's view: complete runs `(H, ▷)` (§3.3).

use crate::chain_clock::{topological_order, Adjacency, ChainClock};
use crate::error::RunError;
use crate::ids::{EventKind, MessageId, SystemEvent, UserEvent, UserEventKind};
use crate::message::MessageMeta;
use msgorder_poset::TransitiveClosure;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A complete run in the user's view: a set of messages, each with a send
/// and a delivery event, under a strict partial order `▷`.
///
/// This is an element of the paper's specification universe
/// `X = { (H, ▷) : x.s ∈ H ⇔ x.r ∈ H, ▷ a partial order }`. Note `X`
/// admits *any* partial order — elements need not be realizable by an
/// actual execution; the limit sets and forbidden-predicate semantics are
/// defined over this broader universe, and the witness constructions of
/// Theorems 2 and 4 exploit that.
///
/// Beyond the paper's two written conditions we require `x.s ▷ x.r` for
/// every message ([`UserRun::new`] adds those edges itself), which every
/// construction in the paper also assumes.
///
/// `▷` is indexed by a *chain clock*: the events are covered by `w`
/// chains (totally ordered subsets) and every event stores, per chain,
/// how many of that chain's events lie at or below it. `a ▷ b` is then
/// one lookup. For a projected run the chains are the process
/// sequences, so `w` is the number of processes and construction is
/// `O(|M| · w)`; the covering relation (for [`render`](UserRun::render)
/// and snapshots) comes from the same index. The bitset
/// [`closure`](UserRun::closure) is built lazily, only for the
/// evaluator's word-parallel step and [`relation_pairs`](UserRun::relation_pairs).
#[derive(Debug, Clone)]
pub struct UserRun {
    messages: Vec<MessageMeta>,
    /// The generating edges of `▷` over event nodes, `x.s → x.r`
    /// included, as successor lists.
    succ: Adjacency,
    /// The chain-clock index of `▷` over event nodes.
    index: ChainClock,
    /// The bitset closure of `▷`, built on first use.
    closure: OnceLock<TransitiveClosure>,
}

/// The process an event node occurs at: a send at its source, a
/// delivery at its destination.
fn process_of(messages: &[MessageMeta], node: usize) -> usize {
    let meta = &messages[node / 2];
    match UserEvent::from_node(node).kind {
        UserEventKind::Send => meta.src.0,
        UserEventKind::Deliver => meta.dst.0,
    }
}

impl UserRun {
    /// Builds a user run from message metadata and explicit order pairs.
    ///
    /// The edges `x.s ▷ x.r` are added automatically; `order` may mention
    /// any additional pairs. The relation is closed transitively.
    ///
    /// # Errors
    /// [`RunError::NonDenseMessageId`] if `messages[i].id != i`;
    /// [`RunError::CyclicOrder`] if the relation is cyclic;
    /// [`RunError::UnknownMessage`] if a pair references a message id
    /// `>= messages.len()`.
    pub fn new<I>(messages: Vec<MessageMeta>, order: I) -> Result<Self, RunError>
    where
        I: IntoIterator<Item = (UserEvent, UserEvent)>,
    {
        let m = messages.len();
        if let Some((index, meta)) = messages
            .iter()
            .enumerate()
            .find(|(i, meta)| meta.id.0 != *i)
        {
            return Err(RunError::NonDenseMessageId { index, id: meta.id });
        }
        let mut edges: Vec<(usize, usize)> = (0..m)
            .map(|mi| {
                (
                    UserEvent::send(MessageId(mi)).node(),
                    UserEvent::deliver(MessageId(mi)).node(),
                )
            })
            .collect();
        for (a, b) in order {
            for e in [a, b] {
                if e.msg.0 >= m {
                    return Err(RunError::UnknownMessage(e.msg));
                }
            }
            edges.push((a.node(), b.node()));
        }
        let succ = Adjacency::new(2 * m, edges.iter().copied());
        let topo = topological_order(2 * m, |u| succ.of(u)).ok_or(RunError::CyclicOrder)?;
        let preds = Adjacency::new(2 * m, edges.iter().map(|&(u, v)| (v, u)));
        let index = ChainClock::new(&preds, &topo, |v| process_of(&messages, v));
        Ok(UserRun {
            messages,
            succ,
            index,
            closure: OnceLock::new(),
        })
    }

    /// The user's view (§3.3) of a system run given by its messages and
    /// process sequences: the messages with `complete(i)`, renumbered
    /// densely in id order, ordered by process order among their sends
    /// and deliveries (plus `x.s ▷ x.r`, which [`new`](Self::new) adds).
    pub(crate) fn project(
        messages: &[MessageMeta],
        seqs: &[Vec<SystemEvent>],
        complete: impl Fn(usize) -> bool,
    ) -> UserRun {
        let mut remap: Vec<Option<MessageId>> = vec![None; messages.len()];
        let mut metas: Vec<MessageMeta> = Vec::new();
        for (mi, meta) in messages.iter().enumerate() {
            if complete(mi) {
                let new_id = MessageId(metas.len());
                remap[mi] = Some(new_id);
                metas.push(MessageMeta {
                    id: new_id,
                    ..meta.clone()
                });
            }
        }
        let user_event = |ev: &SystemEvent| {
            let new = remap[ev.msg.0]?;
            match ev.kind {
                EventKind::Send => Some(UserEvent::send(new)),
                EventKind::Deliver => Some(UserEvent::deliver(new)),
                _ => None,
            }
        };
        let process_order = seqs.iter().flat_map(|seq| {
            let mut events = seq.iter().filter_map(user_event);
            let mut prev = events.next();
            events.map(move |ev| (prev.replace(ev).expect("set before"), ev))
        });
        UserRun::new(metas, process_order).expect("projection of a valid run is a valid user run")
    }

    /// The messages of the run.
    pub fn messages(&self) -> &[MessageMeta] {
        &self.messages
    }

    /// Metadata of one message.
    ///
    /// # Panics
    /// Panics if `m` is not a message of this run.
    pub fn message(&self, m: MessageId) -> &MessageMeta {
        &self.messages[m.0]
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the run has no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The strict order `a ▷ b`: `a ≠ b` and `b`'s clock counts `a`'s
    /// chain up to and including `a`.
    ///
    /// # Panics
    /// Panics if either event's message is not in the run.
    pub fn before(&self, a: UserEvent, b: UserEvent) -> bool {
        self.index.before(a.node(), b.node())
    }

    /// The transitive closure of `▷` over event nodes (indexed by
    /// [`UserEvent::node`]), built on first call. Batch evaluators use
    /// its row/column bitsets for word-parallel candidate narrowing
    /// instead of per-pair [`before`](Self::before) queries.
    pub fn closure(&self) -> &TransitiveClosure {
        self.closure.get_or_init(|| {
            let n = 2 * self.len();
            TransitiveClosure::from_pairs(
                n,
                (0..n).flat_map(|u| self.succ.of(u).map(move |v| (u, v))),
            )
        })
    }

    /// Whether two events are concurrent (distinct and incomparable).
    pub fn concurrent(&self, a: UserEvent, b: UserEvent) -> bool {
        a != b && !self.before(a, b) && !self.before(b, a)
    }

    /// All ordered event pairs `(a, b)` with `a ▷ b`.
    pub fn relation_pairs(&self) -> Vec<(UserEvent, UserEvent)> {
        self.closure()
            .pairs()
            .into_iter()
            .map(|(u, v)| (UserEvent::from_node(u), UserEvent::from_node(v)))
            .collect()
    }

    /// The successors of event node `u` along the generating edges of
    /// `▷`: every `x.s → x.r` plus the pairs given to [`new`](Self::new).
    pub(crate) fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ.of(u)
    }

    /// The chain-clock index of `▷` over event nodes.
    pub(crate) fn index(&self) -> &ChainClock {
        &self.index
    }

    /// A compact multi-line rendering, one message per line plus the
    /// covering relation of `▷`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.messages {
            out.push_str(&format!("{m}\n"));
        }
        out.push_str("order (covers):\n");
        for (u, v) in self.index.covers() {
            out.push_str(&format!(
                "  {} ▷ {}\n",
                UserEvent::from_node(u),
                UserEvent::from_node(v)
            ));
        }
        out
    }
}

impl fmt::Display for UserRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serializable snapshot of a [`UserRun`] (messages + covering pairs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserRunSnapshot {
    /// Message metadata.
    pub messages: Vec<MessageMeta>,
    /// Covering pairs of `▷` as `(event-node, event-node)` indices.
    pub covers: Vec<(usize, usize)>,
}

impl UserRunSnapshot {
    /// A 64-bit FNV-1a digest of the run's *partial order* (message
    /// endpoints + covering pairs of `▷`): identical for identical user
    /// views, whatever schedule produced them. Summing the digests of a
    /// set of configurations with wrapping addition gives a set digest
    /// independent of the order they were found in.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for m in &self.messages {
            eat(m.src.0 as u64);
            eat(m.dst.0 as u64);
        }
        for &(a, b) in &self.covers {
            eat(a as u64);
            eat(b as u64);
        }
        h
    }
}

impl From<&UserRun> for UserRunSnapshot {
    fn from(run: &UserRun) -> Self {
        UserRunSnapshot {
            messages: run.messages.clone(),
            covers: run.index.covers(),
        }
    }
}

impl TryFrom<UserRunSnapshot> for UserRun {
    type Error = RunError;

    fn try_from(snap: UserRunSnapshot) -> Result<UserRun, RunError> {
        let pairs: Vec<(UserEvent, UserEvent)> = snap
            .covers
            .into_iter()
            .map(|(u, v)| (UserEvent::from_node(u), UserEvent::from_node(v)))
            .collect();
        UserRun::new(snap.messages, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    fn meta(n: usize) -> Vec<MessageMeta> {
        (0..n)
            .map(|i| MessageMeta::new(MessageId(i), ProcessId(0), ProcessId(1)))
            .collect()
    }

    #[test]
    fn send_deliver_edge_automatic() {
        let run = UserRun::new(meta(1), []).unwrap();
        assert!(run.before(
            UserEvent::send(MessageId(0)),
            UserEvent::deliver(MessageId(0))
        ));
        assert!(!run.before(
            UserEvent::deliver(MessageId(0)),
            UserEvent::send(MessageId(0))
        ));
    }

    #[test]
    fn cyclic_order_rejected() {
        // r0 ▷ s0 closes a cycle with the automatic s0 ▷ r0.
        let err = UserRun::new(
            meta(1),
            [(
                UserEvent::deliver(MessageId(0)),
                UserEvent::send(MessageId(0)),
            )],
        )
        .unwrap_err();
        assert_eq!(err, RunError::CyclicOrder);
    }

    #[test]
    fn unknown_message_rejected() {
        let err = UserRun::new(
            meta(1),
            [(UserEvent::send(MessageId(5)), UserEvent::send(MessageId(0)))],
        )
        .unwrap_err();
        assert_eq!(err, RunError::UnknownMessage(MessageId(5)));
    }

    #[test]
    fn transitivity_through_messages() {
        // s0 ▷ s1 and r1 ▷ r0? No — build s0 ▷ s1, s1 ▷ r1 auto; check s0 ▷ r1.
        let run = UserRun::new(
            meta(2),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        assert!(run.before(
            UserEvent::send(MessageId(0)),
            UserEvent::deliver(MessageId(1))
        ));
    }

    #[test]
    fn concurrency() {
        let run = UserRun::new(meta(2), []).unwrap();
        assert!(run.concurrent(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))));
        assert!(!run.concurrent(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(0))));
    }

    #[test]
    fn process_chains_cover_a_projected_run() {
        // m0: P0 -> P1, then m1: P1 -> P2 after m0's delivery.
        let metas = vec![
            MessageMeta::new(MessageId(0), ProcessId(0), ProcessId(1)),
            MessageMeta::new(MessageId(1), ProcessId(1), ProcessId(2)),
        ];
        let run = UserRun::new(
            metas,
            [(
                UserEvent::deliver(MessageId(0)),
                UserEvent::send(MessageId(1)),
            )],
        )
        .unwrap();
        assert_eq!(run.index().width(), 3, "one chain per process");
        assert!(run.before(
            UserEvent::send(MessageId(0)),
            UserEvent::deliver(MessageId(1))
        ));
        assert!(!run.before(
            UserEvent::deliver(MessageId(1)),
            UserEvent::send(MessageId(0))
        ));
    }

    #[test]
    fn large_process_ids_need_no_dense_table() {
        let far = ProcessId(usize::MAX / 4);
        let run =
            UserRun::new(vec![MessageMeta::new(MessageId(0), far, ProcessId(0))], []).unwrap();
        assert!(run.before(
            UserEvent::send(MessageId(0)),
            UserEvent::deliver(MessageId(0))
        ));
    }

    #[test]
    fn non_dense_message_ids_rejected() {
        for ids in [[1, 0], [0, 2]] {
            let snap = UserRunSnapshot {
                messages: ids
                    .iter()
                    .map(|&i| MessageMeta::new(MessageId(i), ProcessId(0), ProcessId(1)))
                    .collect(),
                covers: vec![],
            };
            let err = UserRun::try_from(snap).unwrap_err();
            assert!(
                matches!(err, RunError::NonDenseMessageId { .. }),
                "ids {ids:?}: {err:?}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let run = UserRun::new(
            meta(3),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(2)),
                ),
            ],
        )
        .unwrap();
        let snap = UserRunSnapshot::from(&run);
        let back = UserRun::try_from(snap).unwrap();
        assert_eq!(run.relation_pairs(), back.relation_pairs());
    }

    #[test]
    fn render_mentions_messages_and_covers() {
        let run = UserRun::new(meta(1), []).unwrap();
        let s = run.render();
        assert!(s.contains("m0"));
        assert!(s.contains("▷"));
    }

    #[test]
    fn empty_run() {
        let run = UserRun::new(vec![], []).unwrap();
        assert!(run.is_empty());
        assert!(run.relation_pairs().is_empty());
        assert!(crate::limit_sets::in_x_sync(&run));
    }
}
