//! Deciding whether a run satisfies a forbidden predicate.
//!
//! `B ≡ ∃ x1..xm : ⋀ conjuncts` is an existential query: we search for an
//! instantiation of the variables by messages of the run satisfying every
//! conjunct and constraint. Backtracking with eager constraint checking
//! keeps the `O(|M|^m)` worst case tame for the small `m` of real
//! specifications.
//!
//! Variables bind **pairwise-distinct** messages — the instantiation is
//! injective. See [`ForbiddenPredicate`] for why this is the semantics
//! the paper's theorems require.
//!
//! The search core is generic over [`OrderView`], so the same code
//! evaluates post-hoc against a materialized [`UserRun`] and *online*
//! against a live `StreamingRun` prefix — the latter through
//! [`Monitor`], which finds the first violating instantiation at the
//! exact delivery event completing it.

use crate::ast::{Constraint, EventTerm, ForbiddenPredicate, Var};
use msgorder_poset::DiGraph;
use msgorder_runs::{limit_sets, MessageId, OrderView, UserEvent, UserEventKind, UserRun};

fn term_event(term: EventTerm, assignment: &[Option<MessageId>]) -> Option<UserEvent> {
    let msg = assignment[term.var.0]?;
    Some(UserEvent {
        msg,
        kind: term.kind,
    })
}

fn term_process<V: OrderView>(term: EventTerm, m: MessageId, view: &V) -> usize {
    let meta = view.meta(m);
    match term.kind {
        UserEventKind::Send => meta.src.0,
        UserEventKind::Deliver => meta.dst.0,
    }
}

/// Checks every conjunct/constraint whose variables are all assigned and
/// involve `just_set` (incremental consistency check).
fn consistent<V: OrderView>(
    pred: &ForbiddenPredicate,
    view: &V,
    assignment: &[Option<MessageId>],
    just_set: Var,
) -> bool {
    for c in pred.conjuncts() {
        if c.lhs.var != just_set && c.rhs.var != just_set {
            continue;
        }
        if let (Some(a), Some(b)) = (term_event(c.lhs, assignment), term_event(c.rhs, assignment)) {
            if !view.before(a, b) {
                return false;
            }
        }
    }
    for c in pred.constraints() {
        match c {
            Constraint::SameProcess(a, b) | Constraint::DiffProcess(a, b) => {
                if a.var != just_set && b.var != just_set {
                    continue;
                }
                if let (Some(ma), Some(mb)) = (assignment[a.var.0], assignment[b.var.0]) {
                    let same = term_process(*a, ma, view) == term_process(*b, mb, view);
                    let want_same = matches!(c, Constraint::SameProcess(_, _));
                    if same != want_same {
                        return false;
                    }
                }
            }
            Constraint::Color(v, color) => {
                if *v == just_set {
                    let m = assignment[v.0].expect("just set");
                    if !view.meta(m).has_color(color) {
                        return false;
                    }
                }
            }
            Constraint::NotColor(v, color) => {
                if *v == just_set {
                    let m = assignment[v.0].expect("just set");
                    if view.meta(m).has_color(color) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// A predicate compiled for evaluation against many runs.
///
/// Evaluation-plan construction has a run-independent part (the variable
/// assignment order and each variable's color filters, derived purely
/// from the predicate) and a run-dependent part (the candidate message
/// lists). `Prepared` hoists the former so that evaluating one
/// predicate over a corpus of runs — the shape of every experiment and
/// benchmark loop in this workspace — pays the predicate analysis once
/// instead of once per run.
#[derive(Clone)]
pub struct Prepared<'p> {
    pred: &'p ForbiddenPredicate,
    /// Variable assignment order (most-connected first).
    order: Vec<usize>,
    /// Per-variable color filters: `(color, must_have)`.
    color_filters: Vec<Vec<(&'p str, bool)>>,
    /// Word-parallel narrowing plan for the last variable in `order`.
    last: Option<LastStep>,
    /// Whether the variable graph (an edge `x → y` per conjunct
    /// `x.h ▷ y.f` with `x ≠ y`) has a cycle. Such a predicate never
    /// holds on an `X_sync` run (Theorem 1): an injective instantiation
    /// maps the variable cycle onto a cycle of the run's message graph.
    var_cycle: bool,
}

/// Candidate narrowing for the variable assigned last. With every other
/// variable bound, each conjunct touching the last variable pins one of
/// its events inside a known closure row: `last.e ▷ b` means the event
/// lies in `ancestors(b)`, `a ▷ last.e` means it lies in
/// `descendants(a)`. Intersecting those rows as whole `u64` words
/// replaces the innermost per-candidate [`OrderView::before`] loop with
/// a handful of word operations — the mask is a sound over-approximation
/// (conjuncts binding the last variable twice are skipped), so every
/// survivor is still re-checked by [`consistent`].
#[derive(Clone)]
struct LastStep {
    /// The variable assigned last (`order.last()`).
    var: usize,
    /// One entry per conjunct with exactly one side on the last
    /// variable: `(bit offset of the last variable's event kind,
    /// the bound side's term, whether the last variable is the lhs)`.
    narrowing: Vec<(usize, EventTerm, bool)>,
}

/// Even bits — the send-event positions of [`UserEvent::node`] indexing,
/// where message `m`'s send sits at bit `2m`.
const SEND_BITS: u64 = 0x5555_5555_5555_5555;

/// `dst &= src >> shift` across word boundaries (`shift < 64`). Aligns a
/// closure row keyed by event node onto send-bit (`2m`) positions.
fn and_shifted(dst: &mut [u64], src: &[u64], shift: usize) {
    for (i, d) in dst.iter_mut().enumerate() {
        let lo = src.get(i).copied().unwrap_or(0) >> shift;
        let hi = if shift == 0 {
            0
        } else {
            src.get(i + 1).copied().unwrap_or(0) << (64 - shift)
        };
        *d &= lo | hi;
    }
}

/// Reusable word buffers for [`search_user`] — one pair per evaluation
/// call, so the per-leaf narrowing never touches the allocator.
struct WordScratch {
    /// Send-bit-aligned mask of the last variable's color-passing
    /// candidates (bit `2m` set iff `m` is a candidate).
    cand: Vec<u64>,
    /// Per-leaf working mask.
    combined: Vec<u64>,
}

impl<'p> Prepared<'p> {
    /// Analyzes `pred` once; the result evaluates it against any run.
    pub fn new(pred: &'p ForbiddenPredicate) -> Self {
        let m = pred.var_count();
        let mut degree = vec![0usize; m];
        for c in pred.conjuncts() {
            degree[c.lhs.var.0] += 1;
            degree[c.rhs.var.0] += 1;
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(degree[v]));
        let mut color_filters: Vec<Vec<(&str, bool)>> = vec![Vec::new(); m];
        for c in pred.constraints() {
            match c {
                Constraint::Color(v, color) => color_filters[v.0].push((color, true)),
                Constraint::NotColor(v, color) => color_filters[v.0].push((color, false)),
                _ => {}
            }
        }
        let last = order.last().map(|&lv| {
            let mut narrowing = Vec::new();
            for c in pred.conjuncts() {
                let on_lhs = c.lhs.var.0 == lv;
                let on_rhs = c.rhs.var.0 == lv;
                if on_lhs && !on_rhs {
                    narrowing.push((c.lhs.kind.index(), c.rhs, true));
                } else if on_rhs && !on_lhs {
                    narrowing.push((c.rhs.kind.index(), c.lhs, false));
                }
            }
            LastStep { var: lv, narrowing }
        });
        let mut var_graph = DiGraph::new(m);
        for c in pred.conjuncts() {
            if c.lhs.var != c.rhs.var {
                var_graph
                    .add_edge(c.lhs.var.0, c.rhs.var.0)
                    .expect("conjunct variables are declared");
            }
        }
        Prepared {
            pred,
            order,
            color_filters,
            last,
            var_cycle: var_graph.has_cycle(),
        }
    }

    /// Whether `run` provably has no instantiation without searching:
    /// the variable graph is cyclic and the run is in `X_sync`.
    fn ruled_out(&self, run: &UserRun) -> bool {
        self.var_cycle && limit_sets::in_x_sync(run)
    }

    /// The run-dependent half of plan construction: candidate lists
    /// filtered through the precomputed color filters.
    fn candidates_for(&self, run: &UserRun) -> Vec<Vec<MessageId>> {
        self.color_filters
            .iter()
            .map(|filters| {
                (0..run.len())
                    .map(MessageId)
                    .filter(|&msg| {
                        filters
                            .iter()
                            .all(|&(color, want)| run.message(msg).has_color(color) == want)
                    })
                    .collect()
            })
            .collect()
    }

    /// See [`holds`].
    pub fn holds(&self, run: &UserRun) -> bool {
        self.find_instantiation(run).is_some()
    }

    /// See [`satisfies_spec`].
    pub fn satisfies_spec(&self, run: &UserRun) -> bool {
        !self.holds(run)
    }

    /// See [`find_instantiation`].
    pub fn find_instantiation(&self, run: &UserRun) -> Option<Vec<MessageId>> {
        if self.ruled_out(run) {
            return None;
        }
        let candidates = self.candidates_for(run);
        let mut assignment = vec![None; self.pred.var_count()];
        let mut scratch = self.word_scratch(run, &candidates);
        let mut result = None;
        self.search_user(
            run,
            &candidates,
            &mut assignment,
            0,
            &mut scratch,
            &mut |a| {
                result = Some(a.to_vec());
                true
            },
        );
        result
    }

    /// See [`count_instantiations`].
    pub fn count_instantiations(&self, run: &UserRun, cap: usize) -> usize {
        if cap == 0 || self.ruled_out(run) {
            return 0;
        }
        let candidates = self.candidates_for(run);
        let mut assignment = vec![None; self.pred.var_count()];
        let mut scratch = self.word_scratch(run, &candidates);
        let mut count = 0usize;
        self.search_user(
            run,
            &candidates,
            &mut assignment,
            0,
            &mut scratch,
            &mut |_| {
                count += 1;
                count >= cap
            },
        );
        count
    }

    /// Builds the word buffers for one evaluation: the candidate mask of
    /// the last variable (send-bit aligned) plus a same-width working
    /// buffer, sized to the closure's `2·|M|` node space.
    fn word_scratch(&self, run: &UserRun, candidates: &[Vec<MessageId>]) -> WordScratch {
        let words = (2 * run.len()).div_ceil(64);
        let mut cand = vec![0u64; words];
        if let Some(last) = &self.last {
            for &m in &candidates[last.var] {
                cand[(2 * m.0) / 64] |= 1 << ((2 * m.0) % 64);
            }
        }
        WordScratch {
            combined: vec![0; words],
            cand,
        }
    }

    /// [`search`] specialized to a materialized [`UserRun`]: identical
    /// recursion until the last variable, where closure rows narrow the
    /// candidate set word-parallel before [`consistent`] re-checks the
    /// survivors (see [`LastStep`]).
    fn search_user(
        &self,
        run: &UserRun,
        candidates: &[Vec<MessageId>],
        assignment: &mut Vec<Option<MessageId>>,
        depth: usize,
        scratch: &mut WordScratch,
        found: &mut dyn FnMut(&[MessageId]) -> bool,
    ) -> bool {
        if depth + 1 == self.order.len() {
            let last = self.last.as_ref().expect("non-empty order has a plan");
            return self.last_leaf(run, assignment, last, scratch, found);
        }
        if depth == self.order.len() {
            // Arity 0 — degenerate, kept for parity with `search`.
            let full: Vec<MessageId> = assignment.iter().map(|a| a.expect("complete")).collect();
            return found(&full);
        }
        let var = self.order[depth];
        for &msg in &candidates[var] {
            if assignment.contains(&Some(msg)) {
                continue;
            }
            assignment[var] = Some(msg);
            if consistent(self.pred, run, assignment, Var(var))
                && self.search_user(run, candidates, assignment, depth + 1, scratch, found)
            {
                return true;
            }
            assignment[var] = None;
        }
        false
    }

    /// The last-variable step: intersect the closure rows pinned by the
    /// bound variables, align each onto send-bit positions, and walk
    /// only the surviving candidates (in increasing message order, so
    /// witnesses match the generic search exactly).
    fn last_leaf(
        &self,
        run: &UserRun,
        assignment: &mut [Option<MessageId>],
        last: &LastStep,
        scratch: &mut WordScratch,
        found: &mut dyn FnMut(&[MessageId]) -> bool,
    ) -> bool {
        let combined = &mut scratch.combined;
        combined.copy_from_slice(&scratch.cand);
        for &(shift, other, last_is_lhs) in &last.narrowing {
            let Some(ev) = term_event(other, assignment) else {
                continue;
            };
            let row = if last_is_lhs {
                run.closure().ancestors(ev.node())
            } else {
                run.closure().descendants(ev.node())
            };
            and_shifted(combined, row.words(), shift);
        }
        // Injectivity: drop messages already bound by earlier variables.
        for m in assignment.iter().flatten() {
            let bit = 2 * m.0;
            combined[bit / 64] &= !(1u64 << (bit % 64));
        }
        for (i, &word) in combined.iter().enumerate() {
            let mut word = word & SEND_BITS;
            while word != 0 {
                let msg = MessageId((i * 64 + word.trailing_zeros() as usize) / 2);
                word &= word - 1;
                assignment[last.var] = Some(msg);
                if consistent(self.pred, run, assignment, Var(last.var)) {
                    let full: Vec<MessageId> =
                        assignment.iter().map(|a| a.expect("complete")).collect();
                    if found(&full) {
                        return true;
                    }
                }
                assignment[last.var] = None;
            }
        }
        false
    }
}

/// Backtracking search assigning the variables in `order` from
/// `candidates` (indexed by variable, not order position). Variables
/// already bound in `assignment` before the call are left untouched —
/// the [`Monitor`] uses this to pin its freshly completed message at one
/// position and search only the rest.
fn search<V: OrderView>(
    pred: &ForbiddenPredicate,
    view: &V,
    order: &[usize],
    candidates: &[Vec<MessageId>],
    assignment: &mut Vec<Option<MessageId>>,
    depth: usize,
    found: &mut dyn FnMut(&[MessageId]) -> bool,
) -> bool {
    if depth == order.len() {
        let full: Vec<MessageId> = assignment.iter().map(|a| a.expect("complete")).collect();
        return found(&full);
    }
    let var = order[depth];
    for &msg in &candidates[var] {
        // Injective instantiation: variables bind distinct messages.
        if assignment.contains(&Some(msg)) {
            continue;
        }
        assignment[var] = Some(msg);
        if consistent(pred, view, assignment, Var(var))
            && search(pred, view, order, candidates, assignment, depth + 1, found)
        {
            return true;
        }
        assignment[var] = None;
    }
    false
}

/// Wall-clock accounting of a [`Monitor`]'s delta searches — the timing
/// hook behind the tracing layer's monitor-search histogram. One delta
/// search runs per completed message (until the first witness), so
/// `searches == completed_seen()` while the monitor is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorTimings {
    /// Delta searches executed.
    pub searches: u64,
    /// Total wall-clock nanoseconds across all searches.
    pub total_nanos: u64,
    /// The slowest single search, in nanoseconds.
    pub max_nanos: u64,
    /// `buckets[i]` counts searches whose duration `d` (ns) satisfies
    /// `floor(log2(d)) == i` (durations of 0 ns land in bucket 0) — a
    /// log₂ histogram of per-search latency.
    pub buckets: [u64; 32],
}

impl MonitorTimings {
    fn record(&mut self, nanos: u64) {
        self.searches += 1;
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
        let bucket = (64 - nanos.max(1).leading_zeros() as usize - 1).min(31);
        self.buckets[bucket] += 1;
    }

    /// Mean nanoseconds per search (0 if none ran).
    pub fn mean_nanos(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.searches as f64
        }
    }
}

/// An online monitor for one forbidden predicate.
///
/// Feed it each message the moment it *completes* (its delivery event
/// executes) together with an [`OrderView`] of the live prefix; it
/// reports the first satisfying instantiation of `B` at the exact
/// delivery that completes it. Soundness rests on two facts about the
/// user-view order `▷` on growing prefixes:
///
/// 1. the truth of `a ▷ b` for two present events never changes as the
///    run extends (every edge points chronologically forward), and
/// 2. any instantiation of `B` contains a message whose delivery is the
///    *last* to execute — binding the freshly completed message at each
///    variable position in turn and searching the remaining positions
///    over earlier-completed messages therefore finds every violation
///    exactly once, at its completion event.
///
/// Per completed message the monitor stores only its id in the
/// candidate list of each variable whose color constraints it passes —
/// the partial-match state is those lists plus one in-flight assignment
/// of size `var_count()`, so memory grows with *arity × completed
/// messages*, never with the event count, and the delta search touches
/// each candidate combination at most once across the whole run.
#[derive(Clone)]
pub struct Monitor<'p> {
    prep: Prepared<'p>,
    /// For each variable `v`: the assignment order of the *other*
    /// variables (most-connected first), used when `v` is pinned to the
    /// freshly completed message.
    order_without: Vec<Vec<usize>>,
    /// Per-variable candidates among completed messages (color-filtered).
    candidates: Vec<Vec<MessageId>>,
    /// Completed messages seen so far (monotone; for diagnostics).
    fed: usize,
    witness: Option<Vec<MessageId>>,
    timings: MonitorTimings,
}

impl<'p> Monitor<'p> {
    /// Compiles `pred` into an online monitor.
    pub fn new(pred: &'p ForbiddenPredicate) -> Self {
        let prep = Prepared::new(pred);
        let order_without = (0..pred.var_count())
            .map(|v| {
                prep.order
                    .iter()
                    .copied()
                    .filter(|&o| o != v)
                    .collect::<Vec<_>>()
            })
            .collect();
        let candidates = vec![Vec::new(); pred.var_count()];
        Monitor {
            prep,
            order_without,
            candidates,
            fed: 0,
            witness: None,
            timings: MonitorTimings::default(),
        }
    }

    /// The monitored predicate.
    pub fn predicate(&self) -> &'p ForbiddenPredicate {
        self.prep.pred
    }

    fn passes_filters<V: OrderView>(&self, view: &V, var: usize, m: MessageId) -> bool {
        self.prep.color_filters[var]
            .iter()
            .all(|&(color, want)| view.meta(m).has_color(color) == want)
    }

    /// Notifies the monitor that message `m` just completed (its `x.r`
    /// executed). Returns the witness instantiation if the predicate is
    /// now (or was already) satisfied. Message ids are in `view`'s
    /// numbering.
    ///
    /// Calling order must follow completion order; after the first
    /// witness the monitor stops searching and keeps reporting it.
    pub fn on_complete<V: OrderView>(&mut self, view: &V, m: MessageId) -> Option<&[MessageId]> {
        if self.witness.is_none() {
            let started = std::time::Instant::now();
            self.fed += 1;
            let vars = self.prep.pred.var_count();
            let mut assignment = vec![None; vars];
            for v in 0..vars {
                if !self.passes_filters(view, v, m) {
                    continue;
                }
                assignment[v] = Some(m);
                let mut result = None;
                if consistent(self.prep.pred, view, &assignment, Var(v))
                    && search(
                        self.prep.pred,
                        view,
                        &self.order_without[v],
                        &self.candidates,
                        &mut assignment,
                        0,
                        &mut |a| {
                            result = Some(a.to_vec());
                            true
                        },
                    )
                {
                    self.witness = result;
                    break;
                }
                assignment[v] = None;
            }
            if self.witness.is_none() {
                for v in 0..vars {
                    if self.passes_filters(view, v, m) {
                        self.candidates[v].push(m);
                    }
                }
            }
            self.timings
                .record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        self.witness.as_deref()
    }

    /// Wall-clock accounting of the delta searches run so far.
    pub fn timings(&self) -> MonitorTimings {
        self.timings
    }

    /// Whether a satisfying instantiation has been found.
    pub fn violated(&self) -> bool {
        self.witness.is_some()
    }

    /// The first satisfying instantiation, if any (message per variable,
    /// ids in the monitored view's numbering).
    pub fn witness(&self) -> Option<&[MessageId]> {
        self.witness.as_deref()
    }

    /// Number of completed messages fed before (and including) the
    /// violation, or all of them if none.
    pub fn completed_seen(&self) -> usize {
        self.fed
    }

    /// Current partial-match state size: total candidate-list entries
    /// across variables (bounded by arity × completed messages).
    pub fn live_state(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }
}

/// Whether the run satisfies `B` — i.e. some instantiation of the
/// variables makes every conjunct and constraint true. A run satisfying
/// `B` violates the specification `X_B`.
pub fn holds(pred: &ForbiddenPredicate, run: &UserRun) -> bool {
    find_instantiation(pred, run).is_some()
}

/// Whether the run belongs to the specification set `X_B` (no
/// instantiation satisfies `B`).
pub fn satisfies_spec(pred: &ForbiddenPredicate, run: &UserRun) -> bool {
    !holds(pred, run)
}

/// One satisfying instantiation (message per variable), if any.
pub fn find_instantiation(pred: &ForbiddenPredicate, run: &UserRun) -> Option<Vec<MessageId>> {
    Prepared::new(pred).find_instantiation(run)
}

/// Counts satisfying instantiations, stopping at `cap` (use
/// `usize::MAX` for an exact count on small runs).
pub fn count_instantiations(pred: &ForbiddenPredicate, run: &UserRun, cap: usize) -> usize {
    Prepared::new(pred).count_instantiations(run, cap)
}

/// Whether `assignment` (one message per variable, in declaration
/// order) is a genuine witness: pairwise distinct and satisfying every
/// conjunct and constraint of `pred` on `view`. Works against both a
/// materialized [`UserRun`] and a live streaming prefix — the check
/// used to validate witnesses reported by the online [`Monitor`].
pub fn check_instantiation<V: OrderView>(
    pred: &ForbiddenPredicate,
    view: &V,
    assignment: &[MessageId],
) -> bool {
    if assignment.len() != pred.var_count() {
        return false;
    }
    let slots: Vec<Option<MessageId>> = assignment.iter().copied().map(Some).collect();
    assignment
        .iter()
        .enumerate()
        .all(|(v, m)| !assignment[..v].contains(m) && consistent(pred, view, &slots, Var(v)))
}

/// Semantic implication over a family of runs: `stronger ⇒ weaker` holds
/// on `runs` iff every run satisfying `stronger` also satisfies
/// `weaker`. Returns the first counterexample index otherwise.
///
/// Used to validate Lemma 4 reductions (`B ⇒ B'`) against exhaustive
/// small-run enumerations — a semantic spot-check of the syntactic
/// contraction.
pub fn implies_on_runs<'a, I>(
    stronger: &ForbiddenPredicate,
    weaker: &ForbiddenPredicate,
    runs: I,
) -> Result<(), usize>
where
    I: IntoIterator<Item = &'a UserRun>,
{
    let stronger = Prepared::new(stronger);
    let weaker = Prepared::new(weaker);
    for (i, run) in runs.into_iter().enumerate() {
        if stronger.holds(run) && !weaker.holds(run) {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgorder_runs::{MessageMeta, ProcessId};

    fn meta(endpoints: &[(usize, usize)]) -> Vec<MessageMeta> {
        endpoints
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| MessageMeta::new(MessageId(i), ProcessId(s), ProcessId(d)))
            .collect()
    }

    fn causal() -> ForbiddenPredicate {
        ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap()
    }

    /// m0 overtaken by m1.
    fn overtaking_run() -> UserRun {
        UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn causal_predicate_detects_overtaking() {
        let run = overtaking_run();
        assert!(holds(&causal(), &run));
        assert!(!satisfies_spec(&causal(), &run));
        let inst = find_instantiation(&causal(), &run).unwrap();
        assert_eq!(inst, vec![MessageId(0), MessageId(1)]);
    }

    #[test]
    fn causal_predicate_passes_ordered_run() {
        let run = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(0)),
                    UserEvent::deliver(MessageId(1)),
                ),
            ],
        )
        .unwrap();
        assert!(!holds(&causal(), &run));
        assert!(satisfies_spec(&causal(), &run));
    }

    #[test]
    fn fifo_constraints_restrict_scope() {
        let fifo = ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
        )
        .unwrap();
        // Same overtaking shape but on different channels: m0: P0->P1,
        // m1: P2->P1... senders differ, so FIFO is NOT violated.
        let run = UserRun::new(
            meta(&[(0, 1), (2, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(!holds(&fifo, &run), "different senders: FIFO unaffected");
        assert!(holds(&causal(), &run), "causal ordering still violated");
    }

    #[test]
    fn color_constraint_scopes_to_marked_messages() {
        let red_flush =
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r where color(y) = red")
                .unwrap();
        // overtaking by an uncolored message: allowed
        let plain = overtaking_run();
        assert!(!holds(&red_flush, &plain));
        // overtaking by a red message: forbidden pattern present
        let mut metas = meta(&[(0, 1), (0, 1)]);
        metas[1].color = Some("red".into());
        let red = UserRun::new(
            metas,
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(holds(&red_flush, &red));
    }

    #[test]
    fn instantiation_is_injective() {
        // B ≡ x.s < y.r: a single message cannot bind both variables, so
        // a one-message run never satisfies B...
        let p = ForbiddenPredicate::parse("forbid x, y: x.s < y.r").unwrap();
        let one = UserRun::new(meta(&[(0, 1)]), []).unwrap();
        assert!(!holds(&p, &one));
        // ...but two related messages do.
        let two = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [(
                UserEvent::send(MessageId(0)),
                UserEvent::deliver(MessageId(1)),
            )],
        )
        .unwrap();
        assert!(holds(&p, &two));
        let inst = find_instantiation(&p, &two).unwrap();
        assert_ne!(inst[0], inst[1]);
    }

    #[test]
    fn crown_needs_two_distinct_messages() {
        // The sync crown must not fire via x1 = x2 (Lemma 3.1 semantics).
        let crown = ForbiddenPredicate::parse("forbid x, y: x.s < y.r & y.s < x.r").unwrap();
        let one = UserRun::new(meta(&[(0, 1)]), []).unwrap();
        assert!(!holds(&crown, &one));
    }

    #[test]
    fn count_instantiations_exact() {
        // x.s < y.r on a two-message concurrent run: no cross pair is
        // related, so zero; after relating m0 to m1: exactly one.
        let p = ForbiddenPredicate::parse("forbid x, y: x.s < y.r").unwrap();
        let conc = UserRun::new(meta(&[(0, 1), (0, 1)]), []).unwrap();
        assert_eq!(count_instantiations(&p, &conc, usize::MAX), 0);
        let related = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [(
                UserEvent::send(MessageId(0)),
                UserEvent::deliver(MessageId(1)),
            )],
        )
        .unwrap();
        assert_eq!(count_instantiations(&p, &related, usize::MAX), 1);
    }

    #[test]
    fn count_respects_cap() {
        let p = ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap();
        let run = UserRun::new(meta(&[(0, 1), (0, 1), (0, 1)]), []).unwrap();
        assert_eq!(count_instantiations(&p, &run, 2), 2);
        assert_eq!(count_instantiations(&p, &run, usize::MAX), 3);
    }

    #[test]
    fn count_cap_edge_semantics() {
        // Three messages, each satisfying the unary predicate: the true
        // count is 3 (UserRun::new inserts every x.s ▷ x.r edge).
        let p = ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap();
        let run = UserRun::new(meta(&[(0, 1), (0, 1), (0, 1)]), []).unwrap();
        // cap = 0 counts nothing, even though instantiations exist.
        assert_eq!(count_instantiations(&p, &run, 0), 0);
        // cap exactly equal to the true count reports the true count.
        assert_eq!(count_instantiations(&p, &run, 3), 3);
        // cap smaller than the true count stops at the cap.
        assert_eq!(count_instantiations(&p, &run, 1), 1);
        // cap = 0 on a run with no instantiations is also 0.
        let none = ForbiddenPredicate::parse("forbid x, y: x.r < y.s & y.r < x.s").unwrap();
        assert_eq!(count_instantiations(&none, &run, 0), 0);
    }

    #[test]
    fn empty_run_never_satisfies() {
        let run = UserRun::new(vec![], []).unwrap();
        assert!(!holds(&causal(), &run));
        let trivial = ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap();
        assert!(!holds(&trivial, &run), "no message to bind");
    }

    #[test]
    fn diff_process_constraint() {
        let p = ForbiddenPredicate::parse("forbid x, y: x.s < y.s where proc(x.s) != proc(y.s)")
            .unwrap();
        // both from P0: constraint fails
        let run = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        assert!(!holds(&p, &run));
        // from different processes
        let run2 = UserRun::new(
            meta(&[(0, 1), (2, 1)]),
            [(UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1)))],
        )
        .unwrap();
        assert!(holds(&p, &run2));
    }

    #[test]
    fn implication_checker() {
        use msgorder_runs::generator::{random_user_run, GenParams};
        // causal ⇒ B1 (they are equivalent, so both directions hold);
        // causal does NOT imply fifo's restricted form... actually a
        // causal violation on one channel IS a fifo violation; the
        // non-implication direction: fifo-violation ⇒ causal-violation
        // but not vice versa. Check: causal ⇏ fifo on runs violating
        // causal across channels.
        let runs: Vec<_> = (0..60)
            .map(|seed| random_user_run(GenParams::new(3, 6, seed)))
            .collect();
        let b2 = ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap();
        let b1 = ForbiddenPredicate::parse("forbid x, y: x.s < y.r & y.r < x.r").unwrap();
        assert!(implies_on_runs(&b2, &b1, runs.iter()).is_ok());
        assert!(implies_on_runs(&b1, &b2, runs.iter()).is_ok());
        let fifo = ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
        )
        .unwrap();
        assert!(
            implies_on_runs(&fifo, &b2, runs.iter()).is_ok(),
            "a FIFO violation is a causal violation"
        );
        assert!(
            implies_on_runs(&b2, &fifo, runs.iter()).is_err(),
            "cross-channel causal violations are not FIFO violations"
        );
    }

    #[test]
    fn monitor_detects_fifo_violation_at_completing_delivery() {
        use msgorder_runs::StreamingRun;
        let fifo = ForbiddenPredicate::parse(
            "forbid x, y: x.s < y.s & y.r < x.r \
             where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
        )
        .unwrap();
        let mut mon = Monitor::new(&fifo);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message(0, 1);
        s.invoke(x).unwrap().send(x).unwrap();
        s.invoke(y).unwrap().send(y).unwrap();
        s.receive(x).unwrap().receive(y).unwrap();
        // y overtakes x: the violation is completed by x's delivery.
        s.deliver(y).unwrap();
        assert_eq!(mon.on_complete(&s, y), None);
        assert!(!mon.violated());
        s.deliver(x).unwrap();
        let witness = mon.on_complete(&s, x).expect("violation now complete");
        assert_eq!(witness, &[x, y]);
        assert!(mon.violated());
        assert_eq!(mon.completed_seen(), 2);
        // The verdict is sticky and reported without further search.
        assert_eq!(mon.on_complete(&s, x), Some(&[x, y][..]));
    }

    #[test]
    fn monitor_respects_color_filters() {
        use msgorder_runs::StreamingRun;
        let red_flush =
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r where color(y) = red")
                .unwrap();
        // Overtaking by an uncolored message: the monitor must stay quiet.
        let mut mon = Monitor::new(&red_flush);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message(0, 1);
        s.invoke(x).unwrap().send(x).unwrap();
        s.invoke(y).unwrap().send(y).unwrap();
        s.receive(x).unwrap().receive(y).unwrap();
        s.deliver(y).unwrap();
        mon.on_complete(&s, y);
        s.deliver(x).unwrap();
        assert_eq!(mon.on_complete(&s, x), None);
        // Neither message is red, so only the unconstrained variable's
        // candidate list fills up.
        assert_eq!(mon.live_state(), 2, "both messages in x's list only");

        // Same shape with a red overtaker: detected.
        let mut mon = Monitor::new(&red_flush);
        let mut s = StreamingRun::new(2);
        let x = s.message(0, 1);
        let y = s.message_colored(0, 1, "red");
        s.invoke(x).unwrap().send(x).unwrap();
        s.invoke(y).unwrap().send(y).unwrap();
        s.receive(x).unwrap().receive(y).unwrap();
        s.deliver(y).unwrap();
        mon.on_complete(&s, y);
        s.deliver(x).unwrap();
        assert_eq!(mon.on_complete(&s, x), Some(&[x, y][..]));
    }

    /// xorshift64* — deterministic schedule driver.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut v = self.0;
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            self.0 = v;
            v.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn monitor_matches_posthoc_on_random_runs() {
        use msgorder_runs::StreamingRun;
        let preds = [
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap(),
            ForbiddenPredicate::parse(
                "forbid x, y: x.s < y.s & y.r < x.r \
                 where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
            )
            .unwrap(),
            ForbiddenPredicate::parse("forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r")
                .unwrap(),
        ];
        for seed in 0..30u64 {
            let mut rng = Rng(0xace0_ba5e ^ (seed << 1) | 1);
            let (n, m) = (3, 6);
            let mut s = StreamingRun::new(n);
            for _ in 0..m {
                let (src, dst) = (rng.below(n), rng.below(n));
                s.message(src, dst);
            }
            let mut monitors: Vec<Monitor<'_>> = preds.iter().map(Monitor::new).collect();
            let mut stage = vec![0usize; m];
            loop {
                let enabled: Vec<usize> = (0..m).filter(|&i| stage[i] < 4).collect();
                if enabled.is_empty() {
                    break;
                }
                let i = enabled[rng.below(enabled.len())];
                let msg = MessageId(i);
                match stage[i] {
                    0 => s.invoke(msg).unwrap(),
                    1 => s.send(msg).unwrap(),
                    2 => s.receive(msg).unwrap(),
                    _ => s.deliver(msg).unwrap(),
                };
                stage[i] += 1;
                if stage[i] == 4 {
                    for mon in &mut monitors {
                        mon.on_complete(&s, msg);
                    }
                }
            }
            // The run completed fully, so user-run ids equal original ids.
            let user = s.users_view();
            for (pred, mon) in preds.iter().zip(&monitors) {
                assert_eq!(
                    mon.violated(),
                    holds(pred, &user),
                    "online/post-hoc divergence on seed {seed}"
                );
                if let Some(w) = mon.witness() {
                    // Re-check the witness against the post-hoc view.
                    for c in pred.conjuncts() {
                        let a = UserEvent {
                            msg: w[c.lhs.var.0],
                            kind: c.lhs.kind,
                        };
                        let b = UserEvent {
                            msg: w[c.rhs.var.0],
                            kind: c.rhs.kind,
                        };
                        assert!(user.before(a, b), "witness conjunct fails post-hoc");
                    }
                }
                assert!(mon.live_state() <= pred.var_count() * m);
            }
        }
    }

    /// The generic [`search`] driven directly over the run as an
    /// [`OrderView`] — the reference the word-mask last step must match.
    fn generic_reference(
        prep: &Prepared<'_>,
        run: &UserRun,
        cap: usize,
    ) -> (Option<Vec<MessageId>>, usize) {
        let candidates = prep.candidates_for(run);
        let mut assignment = vec![None; prep.pred.var_count()];
        let mut first = None;
        let mut count = 0usize;
        search(
            prep.pred,
            run,
            &prep.order,
            &candidates,
            &mut assignment,
            0,
            &mut |a| {
                if first.is_none() {
                    first = Some(a.to_vec());
                }
                count += 1;
                count >= cap
            },
        );
        (first, count)
    }

    #[test]
    fn word_mask_leaf_matches_generic_search() {
        use msgorder_runs::generator::{random_sync_run, random_user_run, GenParams};
        let mut preds = vec![
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r").unwrap(),
            ForbiddenPredicate::parse(
                "forbid x, y: x.s < y.s & y.r < x.r \
                 where proc(x.s) = proc(y.s), proc(x.r) = proc(y.r)",
            )
            .unwrap(),
            ForbiddenPredicate::parse("forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r")
                .unwrap(),
            ForbiddenPredicate::parse("forbid x: x.s < x.r").unwrap(),
            ForbiddenPredicate::parse("forbid x, y: x.s < y.r & y.s < x.r").unwrap(),
            ForbiddenPredicate::parse("forbid x, y: x.s < y.s & y.r < x.r where color(y) = red")
                .unwrap(),
        ];
        // Cyclic predicates short-circuit on X_sync runs (Theorem 1).
        for name in ["sync-crown-3", "sync-crown-4"] {
            preds.push(crate::catalog::by_name(name).unwrap().predicate);
        }
        for seed in 0..40u64 {
            let params = GenParams::new(3, 8, seed);
            let mut run = random_user_run(params);
            if seed % 2 == 0 && !run.is_empty() {
                // Exercise the color-filtered candidate mask too.
                let mut metas = run.messages().to_vec();
                let pick = (seed as usize / 2) % metas.len();
                metas[pick].color = Some("red".into());
                run = UserRun::new(metas, run.relation_pairs()).unwrap();
            }
            // Logically synchronous runs: every message a contiguous
            // block, the runs the sync protocol produces.
            for run in [run, random_sync_run(params)] {
                for pred in &preds {
                    let prep = Prepared::new(pred);
                    let (want_first, want_count) = generic_reference(&prep, &run, usize::MAX);
                    assert_eq!(
                        prep.find_instantiation(&run),
                        want_first,
                        "witness diverges on seed {seed} / {pred}"
                    );
                    assert_eq!(
                        prep.count_instantiations(&run, usize::MAX),
                        want_count,
                        "count diverges on seed {seed} / {pred}"
                    );
                }
            }
        }
    }

    #[test]
    fn cyclic_predicates_short_circuit_only_on_sync_runs() {
        use msgorder_runs::generator::{random_sync_run, random_user_run, GenParams};
        let crown = crate::catalog::by_name("sync-crown-3").unwrap().predicate;
        assert!(Prepared::new(&crown).var_cycle);
        assert!(
            !Prepared::new(&ForbiddenPredicate::parse("forbid x, y: x.s < y.r").unwrap()).var_cycle
        );
        let sync = random_sync_run(GenParams::new(3, 8, 1));
        assert!(Prepared::new(&crown).ruled_out(&sync));
        // A crossing run is not in X_sync, so the search still runs.
        let crossing = random_user_run(GenParams::new(3, 12, 4));
        assert!(!limit_sets::in_x_sync(&crossing));
        assert!(!Prepared::new(&crown).ruled_out(&crossing));
    }

    #[test]
    fn three_variable_chain() {
        // k-weaker causal with k = 1: s1 < s2 < s3 & r3 < r1.
        let p =
            ForbiddenPredicate::parse("forbid x1, x2, x3: x1.s < x2.s & x2.s < x3.s & x3.r < x1.r")
                .unwrap();
        let run = UserRun::new(
            meta(&[(0, 1), (0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (UserEvent::send(MessageId(1)), UserEvent::send(MessageId(2))),
                (
                    UserEvent::deliver(MessageId(2)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(holds(&p, &run));
        // out of order by only one message: x2 overtaking x1 is fine for k=1
        let mild = UserRun::new(
            meta(&[(0, 1), (0, 1)]),
            [
                (UserEvent::send(MessageId(0)), UserEvent::send(MessageId(1))),
                (
                    UserEvent::deliver(MessageId(1)),
                    UserEvent::deliver(MessageId(0)),
                ),
            ],
        )
        .unwrap();
        assert!(!holds(&p, &mild));
    }
}
