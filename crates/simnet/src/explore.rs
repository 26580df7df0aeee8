//! Exhaustive schedule exploration: model-check a protocol over *every*
//! network ordering of a small workload instead of sampling seeds.
//!
//! The timed kernel resolves nondeterminism with sampled latencies; the
//! explorer instead branches on **which pending event fires next** —
//! any in-flight frame or timer, or each process's next unissued
//! request — and DFS-enumerates all interleavings, cloning the whole
//! world at each branch. Every complete schedule's captured run is
//! handed to the visitor, which typically checks a specification.
//!
//! Two entry points share one engine: [`explore_parallel_with`] visits
//! every complete run, and [`explore_monitored_with`] additionally
//! prunes the prefixes a [`PrefixMonitor`] condemns. Both honour every
//! [`ExploreOptions`] field, `threads` included. Three layers keep the
//! search tractable beyond toy workloads (all opt-in through
//! [`ExploreOptions`]):
//!
//! 1. **Sleep-set partial-order reduction** ([`ExploreOptions::por`]).
//!    Two enabled events *commute* iff they dispatch at different
//!    processes under a quiet fault model: a dispatch at `p` only
//!    mutates `protocols[p]`, `p`'s slice of the captured run, and
//!    per-message state no co-enabled event at another node can touch.
//!    Sleep sets (Godefroid) then prune every interleaving of commuting
//!    dispatches but one, preserving the *set* of terminal
//!    configurations and therefore the set of distinct runs — and in
//!    particular every violating configuration.
//! 2. **A work-stealing frontier** sharded by state fingerprint
//!    ([`ExploreOptions::threads`]). Workers run depth-first on their
//!    own deque and donate subtrees whenever the global queue runs low,
//!    so threads stay busy all the way to the leaves instead of only
//!    across top-level branches.
//! 3. **Incremental state keys** ([`ExploreOptions::dedup`]). The
//!    canonical configuration key is maintained per dispatch (per-node
//!    protocol encodings, per-process run chains, a mirrored pool
//!    encoding) instead of re-hashed from scratch, together with a
//!    128-bit rolling fingerprint. The seen-set can be exact
//!    (full keys), or compact (fingerprints only) with an optional
//!    bound and disk spill so state counts can exceed RAM.
//!
//! Under exploration the clock is frozen at `0`: event times are then
//! path-independent, which is what makes commuting prefixes reach
//! byte-identical configurations. Schedules still explode
//! combinatorially; keep workloads small and use `cap` (the count of
//! *completed schedules*; the search stops once reached).

use crate::error::SimError;
use crate::faults::FaultModel;
use crate::kernel::{EventKind, KernelEvent, Protocol, Scheduled, SimConfig, Simulation};
use crate::liveness::{self, LivenessVerdict};
use crate::workload::Workload;
use msgorder_runs::{StreamingRun, SystemEvent, SystemRun};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The outcome of an exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Complete schedules visited.
    pub schedules: usize,
    /// Whether the cap, the depth bound, or a full bounded seen-set
    /// stopped the search early.
    pub truncated: bool,
    /// Prefixes condemned by the [`PrefixMonitor`] (and therefore never
    /// extended). Zero for [`explore_parallel_with`]. Under
    /// partial-order reduction this counts condemned *representatives*,
    /// not every condemned interleaving, so it is ≤ the unreduced
    /// count.
    pub pruned: usize,
    /// A protocol bug found along some schedule, with its counterexample
    /// trace; the search stops at the first one.
    pub error: Option<Box<SimError>>,
    /// Complete schedules that ended *non-quiescent* — the protocol
    /// inhibited some message forever along that interleaving.
    pub non_live: usize,
    /// Blame analysis of the first non-quiescent schedule encountered
    /// (under several threads, "first" is whichever worker got there
    /// first).
    pub first_stall: Option<Box<LivenessVerdict>>,
    /// Distinct configurations inserted into the seen-set. Zero when
    /// deduplication is off.
    pub states: usize,
    /// Interior states whose every enabled event was slept — the
    /// branches partial-order reduction never expanded.
    pub sleep_skipped: usize,
    /// Seen-set segments spilled to disk (compact mode with a spill
    /// path).
    pub spilled: usize,
}

impl Exploration {
    fn empty() -> Exploration {
        Exploration {
            schedules: 0,
            truncated: false,
            pruned: 0,
            error: None,
            non_live: 0,
            first_stall: None,
            states: 0,
            sleep_skipped: 0,
            spilled: 0,
        }
    }
}

/// How the explorer's seen-set stores visited configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedupMode {
    /// No seen-set: a pure (possibly sleep-set-reduced) DFS.
    Off,
    /// Full canonical keys: two configurations merge iff their key
    /// material is byte-identical, so a merge can never lose a
    /// reachable schedule. Unbounded memory.
    Exact,
    /// 128-bit fingerprints only. A fingerprint collision could merge
    /// two distinct configurations (probability ~`n²/2¹²⁸`), so this
    /// mode trades a vanishing soundness risk for a fraction of the
    /// memory — and can be bounded and spilled to disk.
    Compact {
        /// Maximum fingerprints held in RAM across all shards;
        /// `0` means unlimited. When a shard fills and no spill path is
        /// set (or nothing in it can be flushed), the search marks
        /// itself `truncated` and stops entering *new* states.
        max_states: usize,
        /// Directory for overflow segment files. On overflow,
        /// fully-explored fingerprints are flushed as sorted segments
        /// and membership checks fall back to a seek-and-scan with an
        /// in-memory sparse index. Each exploration writes into its own
        /// `run-<pid>-<n>` subdirectory of this path (concurrent runs
        /// sharing a spill directory can never collide) and removes the
        /// subdirectory when the search ends — even when it aborts
        /// mid-way, since cleanup rides the seen-set's `Drop`.
        spill: Option<PathBuf>,
    },
}

/// Tuning knobs for [`explore_parallel_with`] and
/// [`explore_monitored_with`]; both honour every field.
///
/// Deduplication (either mode) requires a quiet [`FaultModel`]: the
/// probabilistic fault stream is part of the configuration but cannot
/// be keyed, so both entry points panic on that combination.
/// Partial-order reduction with non-quiet faults silently degrades to
/// the full search instead — fault verdicts make same-channel events
/// rediscoverable in any order, so no two events are treated as
/// independent.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Stop after this many completed schedules (`usize::MAX` = never).
    pub cap: usize,
    /// Enable sleep-set partial-order reduction.
    pub por: bool,
    /// Worker threads (`<= 1` = sequential DFS, more = the sharded
    /// work-stealing frontier).
    pub threads: usize,
    /// Seen-set mode.
    pub dedup: DedupMode,
    /// Maximum schedule depth (dispatches per schedule) before a branch
    /// is truncated; guards protocols that self-schedule forever when
    /// no seen-set breaks the cycle.
    pub max_depth: usize,
    /// Fault model the explored world runs under. The clock is frozen
    /// at `0`, so only verdicts observable at `t = 0` apply
    /// (probabilistic loss/duplication still fire per transmit).
    pub faults: FaultModel,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            cap: usize::MAX,
            por: false,
            threads: 1,
            dedup: DedupMode::Off,
            max_depth: 100_000,
            faults: FaultModel::none(),
        }
    }
}

impl ExploreOptions {
    fn assert_valid(&self) {
        assert!(
            self.dedup == DedupMode::Off || self.faults.is_quiet(),
            "configuration deduplication requires a quiet fault model: \
             the probabilistic fault stream is part of the configuration \
             but cannot be keyed"
        );
    }

    /// Whether partial-order reduction is actually in force.
    fn por_effective(&self) -> bool {
        self.por && self.faults.is_quiet()
    }
}

/// An online check over growing run prefixes, used by
/// [`explore_monitored_with`] to cut schedule sub-trees the moment they
/// are known bad. The entry point also requires `Send`, so a threaded
/// search can hand branches, monitor state included, to other workers.
///
/// Cloned at every branch point (so implementations should keep their
/// state small); fed each run event in the order the explored schedule
/// executes it. Returning `false` *condemns* the prefix: because
/// forbidden-predicate violations are monotone under run extension,
/// every schedule extending a condemned prefix would violate too, so
/// the whole sub-tree is pruned.
///
/// Under partial-order reduction the monitor must additionally be
/// insensitive to the order of *commuting* events (true of any check
/// over the run's partial order, like [`OnlineMonitor`]): a condemned
/// representative then implies every sleep-skipped sibling order is
/// condemned too, so pruning them unseen is sound.
///
/// [`OnlineMonitor`]: ../protocols/verify/struct.OnlineMonitor.html
pub trait PrefixMonitor: Clone {
    /// Whether the monitor actually inspects events. The explorer skips
    /// journaling entirely for monitors that never look (the internal
    /// no-op monitor of [`explore_parallel_with`]).
    const ACTIVE: bool = true;

    /// Called once per executed run event. Return `false` to condemn.
    fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent) -> bool;
}

/// The monitor of [`explore_parallel_with`]: never condemns, and
/// `ACTIVE = false` keeps run-event journaling off.
#[derive(Clone, Copy)]
struct NoMonitor;

impl PrefixMonitor for NoMonitor {
    const ACTIVE: bool = false;
    fn on_event(&mut self, _view: &StreamingRun, _ev: SystemEvent) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Exhaustively explores every schedule of `workload` under the
/// protocol, invoking `visit` with each complete run. `visit` may
/// return `false` to stop the search (e.g. after finding a violation).
/// Equivalent to [`explore_monitored_with`] with a monitor that never
/// condemns and never journals run events.
///
/// Per-process request order is preserved (a user issues its sends in
/// workload order); everything else — frame arrival order across and
/// within channels, timer firing order — is interleaved, subject to the
/// reductions `opts` enables.
///
/// # Panics
/// As [`explore_monitored_with`].
pub fn explore_parallel_with<P, V>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    opts: &ExploreOptions,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + Hash + Send,
    V: Fn(&SystemRun) -> bool + Sync,
{
    explore_monitored_with(processes, workload, factory, NoMonitor, opts, visit)
}

/// Explores every schedule of `workload` under `opts`, carrying
/// `monitor` along every branch and pruning any prefix it condemns —
/// the schedule sub-tree below a detected violation is never expanded.
/// `visit` receives only the complete runs of *uncondemned* schedules;
/// [`Exploration::pruned`] counts the condemned prefixes.
///
/// With `opts.threads <= 1` the search is a sequential DFS with a
/// deterministic visit order. With more threads it runs over the
/// sharded work-stealing frontier and `visit` runs concurrently (fold
/// into atomics or a mutex). Uncapped and without deduplication, the
/// counters and the multiset of visited runs equal the sequential
/// search's for any thread count; with deduplication, the *set* of
/// distinct runs and the `schedules`/`states` counts still match, but
/// `pruned`/`sleep_skipped` can vary with scheduling (workers may race
/// into a state before its stored sleep set shrinks). When `cap`
/// truncates a threaded search, *which* schedules were counted before
/// the cut depends on thread timing.
///
/// With reduction on, `visit` sees exactly one schedule per
/// sleep-set-distinct terminal configuration: the *set* of distinct
/// runs (and so every violating configuration) matches the full
/// search's, while `schedules` shrinks to the representative count.
/// Deduplication likewise merges interleavings that converge on the
/// same configuration, so `schedules` then counts distinct terminal
/// configurations. Condemnation composes with sleep sets: a monitor
/// insensitive to the order of commuting events condemns a
/// representative iff it would condemn every sleep-skipped sibling
/// order, so `pruned` counts condemned representatives only.
///
/// # Panics
/// Panics if a protocol livelocks within a schedule (more than `10_000`
/// events pending at once, which would make exploration meaningless)
/// and on deduplication combined with a non-quiet fault model (see
/// [`ExploreOptions`]). Worker-thread panics propagate.
pub fn explore_monitored_with<P, M, V>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    monitor: M,
    opts: &ExploreOptions,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + Hash + Send,
    M: PrefixMonitor + Send,
    V: Fn(&SystemRun) -> bool + Sync,
{
    opts.assert_valid();
    let mut state = initial_state(processes, workload, factory, &opts.faults);
    if opts.dedup != DedupMode::Off {
        attach_cache(&mut state);
    }
    if opts.threads <= 1 {
        return run_sequential(state, opts, monitor, &mut |run: &SystemRun| visit(run));
    }
    run_parallel(state, opts, monitor, visit)
}

// ---------------------------------------------------------------------------
// Root construction
// ---------------------------------------------------------------------------

/// Builds the explorer's root state: the initial world via the normal
/// constructor (declares all messages), with the request events pulled
/// out into per-process queues so their relative order per process is
/// preserved.
fn initial_state<P: Protocol + Clone>(
    processes: usize,
    workload: Workload,
    factory: impl Fn(usize) -> P,
    faults: &FaultModel,
) -> State<P> {
    let config = SimConfig::new(processes, crate::latency::LatencyModel::Fixed(1), 0)
        .with_faults(faults.clone());
    let sim = Simulation::new(config, workload, factory);
    let (mut world, mut protocols) = sim.into_parts();
    let mut requests: Vec<VecDeque<Scheduled>> = vec![VecDeque::new(); processes];
    let mut initial: Vec<Scheduled> = Vec::new();
    while let Some(Reverse(ev)) = world.queue.pop() {
        match ev.kind {
            EventKind::Request { .. } => requests[ev.node].push_back(ev),
            _ => initial.push(ev),
        }
    }
    for (node, protocol) in protocols.iter_mut().enumerate() {
        let mut ctx = world.ctx(node);
        protocol.on_init(&mut ctx);
    }
    while let Some(Reverse(ev)) = world.queue.pop() {
        initial.push(ev);
    }
    State {
        world,
        protocols,
        pool: initial,
        requests,
        cache: None,
    }
}

// ---------------------------------------------------------------------------
// State, transitions, and the incremental key cache
// ---------------------------------------------------------------------------

/// The identity of an enabled transition: where it dispatches and what
/// it is. The kernel's tie-breaking `seq` label is deliberately
/// excluded — two pending events with the same `(node, time, kind)`
/// have identical dispatch effects, so they are interchangeable for
/// sleep sets.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TKey {
    node: usize,
    time: u64,
    kind: EventKind,
}

/// Which pending event a transition fires.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// `pool[i]` (removed by `swap_remove`).
    Pool(usize),
    /// The head of process `p`'s request queue.
    Request(usize),
}

struct State<P> {
    world: crate::kernel::World,
    protocols: Vec<P>,
    /// In-flight frames and timers, any of which may fire next.
    pool: Vec<Scheduled>,
    /// Unissued user requests per process (ordered).
    requests: Vec<VecDeque<Scheduled>>,
    /// Incrementally maintained canonical key, present iff
    /// deduplication is on.
    cache: Option<Box<KeyCache<P>>>,
}

impl<P: Protocol + Clone> State<P> {
    /// If the last dispatch poisoned the world, extracts the
    /// counterexample (with the partial trace and stats attached).
    fn take_error(&mut self) -> Option<Box<SimError>> {
        let mut e = self.world.error.take()?;
        e.trace = self.world.builder.build().ok();
        e.stats = self.world.stats.clone();
        Some(Box::new(e))
    }

    fn clone_state(&self) -> State<P> {
        State {
            world: self.world.clone(),
            protocols: self.protocols.clone(),
            pool: self.pool.clone(),
            requests: self.requests.clone(),
            cache: self.cache.clone(),
        }
    }

    /// Enumerates the enabled transitions in the classic branch order:
    /// every pool event by index, then each process's next request.
    fn transitions(&self) -> Vec<(TKey, Pick)> {
        let mut out = Vec::with_capacity(self.pool.len() + 2);
        for (i, ev) in self.pool.iter().enumerate() {
            out.push((
                TKey {
                    node: ev.node,
                    time: ev.time,
                    kind: ev.kind.clone(),
                },
                Pick::Pool(i),
            ));
        }
        for (p, q) in self.requests.iter().enumerate() {
            if let Some(ev) = q.front() {
                out.push((
                    TKey {
                        node: ev.node,
                        time: ev.time,
                        kind: ev.kind.clone(),
                    },
                    Pick::Request(p),
                ));
            }
        }
        out
    }

    /// Removes the picked pending event, mirroring the removal in the
    /// key cache.
    fn take_transition(&mut self, pick: Pick) -> Scheduled {
        match pick {
            Pick::Pool(i) => {
                if let Some(c) = &mut self.cache {
                    c.pool_remove(i);
                }
                self.pool.swap_remove(i)
            }
            Pick::Request(p) => {
                if let Some(c) = &mut self.cache {
                    c.request_pop(p);
                }
                self.requests[p]
                    .pop_front()
                    .expect("nonempty request queue")
            }
        }
    }

    /// Dispatches `ev`, feeds freshly journaled run events to the
    /// monitor and the key cache, and folds newly scheduled events into
    /// the pool. Returns `true` if the monitor condemned the prefix.
    ///
    /// The clock stays frozen at `0`: ordering is the explorer's
    /// choice, and path-independent event times are what make commuting
    /// prefixes reach identical configurations.
    fn execute<M: PrefixMonitor>(&mut self, ev: Scheduled, mon: &mut M) -> bool {
        let node = ev.node;
        self.world.dispatch(&mut self.protocols, node, ev.kind);
        let mut condemned = false;
        if self.world.record {
            // The explorer never journals wire/fault records
            // (record_wire stays off under exploration), so only run
            // events appear. Every run event journaled during a
            // dispatch at `node` belongs to `node`'s process sequence,
            // so the cache chains stay per-process-ordered.
            let fresh = std::mem::take(&mut self.world.fresh);
            for entry in fresh {
                if let KernelEvent::Run { ev, .. } = entry {
                    if let Some(c) = &mut self.cache {
                        c.chain_append(node, &ev);
                    }
                    if M::ACTIVE && !condemned && !mon.on_event(&self.world.builder, ev) {
                        condemned = true;
                    }
                }
            }
        }
        if let Some(c) = &mut self.cache {
            let enc = c.enc;
            c.set_proto(node, enc(&self.protocols[node]));
        }
        while let Some(Reverse(nev)) = self.world.queue.pop() {
            if let Some(c) = &mut self.cache {
                c.pool_push(&nev);
            }
            self.pool.push(nev);
        }
        assert!(
            self.pool.len() < 10_000,
            "protocol generates unbounded traffic under exploration"
        );
        condemned
    }
}

/// A [`Hasher`] that records every byte fed to it instead of mixing
/// them down to 64 bits. Feeding a component's `Hash` impl through it
/// yields the component's full canonical encoding, so two states key
/// equal iff their hash material is identical — no truncation, no
/// collisions beyond what `Hash` itself conflates.
#[derive(Default)]
struct KeyRecorder {
    bytes: Vec<u8>,
}

impl Hasher for KeyRecorder {
    fn write(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }
    fn finish(&self) -> u64 {
        unreachable!("KeyRecorder keys are the recorded bytes, never a u64")
    }
}

fn encode_hash<T: Hash + ?Sized>(value: &T) -> Vec<u8> {
    let mut h = KeyRecorder::default();
    value.hash(&mut h);
    h.bytes
}

fn encode_protocol<P: Hash>(p: &P) -> Vec<u8> {
    encode_hash(p)
}

fn encode_scheduled(ev: &Scheduled) -> Vec<u8> {
    let mut h = KeyRecorder::default();
    (ev.time, ev.node).hash(&mut h);
    ev.kind.hash(&mut h);
    h.bytes
}

/// 128-bit FNV-1a, used as a running digest over byte chains and as
/// the per-component mixer behind the rolling state fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn of(bytes: &[u8]) -> u128 {
        let mut f = Fnv128::new();
        f.write(bytes);
        f.0
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes one component digest into a fingerprint contribution. The
/// fingerprint is the wrapping *sum* of contributions, so unordered
/// components (the pool multiset) commute and removals subtract.
fn mix128(tag: u64, idx: u64, v: u128) -> u128 {
    let lo = mix64((v as u64) ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.rotate_left(32));
    let hi = mix64(((v >> 64) as u64) ^ tag ^ idx.wrapping_mul(0xd134_2543_de82_ef95));
    (u128::from(hi) << 64) | u128::from(lo)
}

const TAG_CHAIN: u64 = 0x43;
const TAG_PROTO: u64 = 0x50;
const TAG_POOL: u64 = 0x4f;
const TAG_REQ: u64 = 0x52;

/// The incrementally maintained canonical configuration key.
///
/// A configuration is determined (within one exploration, whose root is
/// fixed) by: the per-process chains of run events journaled since the
/// root (the captured run is an order-independent function of them),
/// the per-node protocol states, the multiset of pending pool events,
/// and how many requests each process has issued. Kernel bookkeeping is
/// excluded on the same grounds as before: sequence labels only break
/// heap ties the explorer ignores, stats are not visitor-observable,
/// the latency RNG is never consulted under `Fixed` latency, and the
/// fault RNG is behaviourally inert under the quiet fault models
/// deduplication is restricted to.
///
/// Each dispatch updates only the dispatching node's protocol encoding,
/// appends to one chain, and mirrors pool pushes/removals — O(changed)
/// instead of re-encoding every `BTreeMap` from scratch. Alongside the
/// exact bytes, a 128-bit rolling fingerprint (`fp`) is kept as a
/// commutative sum of per-component mixes; it shards the seen-set and
/// *is* the key in compact mode.
struct KeyCache<P> {
    enc: fn(&P) -> Vec<u8>,
    /// Per-process canonical encodings of run events since the root, in
    /// dispatch order.
    chains: Vec<Vec<u8>>,
    /// Running digest over each chain.
    chain_fp: Vec<Fnv128>,
    /// Per-node protocol encodings.
    proto: Vec<Vec<u8>>,
    proto_fp: Vec<u128>,
    /// Mirrors `State::pool` index-for-index.
    pool: Vec<Vec<u8>>,
    pool_fp: Vec<u128>,
    /// Requests issued per process (with the fixed root workload, this
    /// pins the remaining queue).
    popped: Vec<u64>,
    /// The rolling fingerprint.
    fp: u128,
}

impl<P> Clone for KeyCache<P> {
    fn clone(&self) -> Self {
        KeyCache {
            enc: self.enc,
            chains: self.chains.clone(),
            chain_fp: self.chain_fp.clone(),
            proto: self.proto.clone(),
            proto_fp: self.proto_fp.clone(),
            pool: self.pool.clone(),
            pool_fp: self.pool_fp.clone(),
            popped: self.popped.clone(),
            fp: self.fp,
        }
    }
}

impl<P> KeyCache<P> {
    fn new(protocols: &[P], pool: &[Scheduled], processes: usize, enc: fn(&P) -> Vec<u8>) -> Self {
        let chains = vec![Vec::new(); processes];
        let chain_fp = vec![Fnv128::new(); processes];
        let proto: Vec<Vec<u8>> = protocols.iter().map(enc).collect();
        let proto_fp: Vec<u128> = proto.iter().map(|b| Fnv128::of(b)).collect();
        let pool_enc: Vec<Vec<u8>> = pool.iter().map(encode_scheduled).collect();
        let pool_fp: Vec<u128> = pool_enc.iter().map(|b| Fnv128::of(b)).collect();
        let popped = vec![0u64; processes];
        let mut fp = 0u128;
        for (p, cf) in chain_fp.iter().enumerate() {
            fp = fp.wrapping_add(mix128(TAG_CHAIN, p as u64, cf.0));
        }
        for (i, &pf) in proto_fp.iter().enumerate() {
            fp = fp.wrapping_add(mix128(TAG_PROTO, i as u64, pf));
        }
        for &ef in &pool_fp {
            fp = fp.wrapping_add(mix128(TAG_POOL, 0, ef));
        }
        for (p, &c) in popped.iter().enumerate() {
            fp = fp.wrapping_add(mix128(TAG_REQ, p as u64, u128::from(c)));
        }
        KeyCache {
            enc,
            chains,
            chain_fp,
            proto,
            proto_fp,
            pool: pool_enc,
            pool_fp,
            popped,
            fp,
        }
    }

    fn chain_append(&mut self, p: usize, ev: &SystemEvent) {
        let bytes = encode_hash(ev);
        self.fp = self
            .fp
            .wrapping_sub(mix128(TAG_CHAIN, p as u64, self.chain_fp[p].0));
        self.chains[p].extend_from_slice(&bytes);
        self.chain_fp[p].write(&bytes);
        self.fp = self
            .fp
            .wrapping_add(mix128(TAG_CHAIN, p as u64, self.chain_fp[p].0));
    }

    fn set_proto(&mut self, node: usize, bytes: Vec<u8>) {
        self.fp = self
            .fp
            .wrapping_sub(mix128(TAG_PROTO, node as u64, self.proto_fp[node]));
        self.proto_fp[node] = Fnv128::of(&bytes);
        self.proto[node] = bytes;
        self.fp = self
            .fp
            .wrapping_add(mix128(TAG_PROTO, node as u64, self.proto_fp[node]));
    }

    fn pool_push(&mut self, ev: &Scheduled) {
        let bytes = encode_scheduled(ev);
        let f = Fnv128::of(&bytes);
        self.fp = self.fp.wrapping_add(mix128(TAG_POOL, 0, f));
        self.pool.push(bytes);
        self.pool_fp.push(f);
    }

    fn pool_remove(&mut self, i: usize) {
        self.fp = self.fp.wrapping_sub(mix128(TAG_POOL, 0, self.pool_fp[i]));
        self.pool.swap_remove(i);
        self.pool_fp.swap_remove(i);
    }

    fn request_pop(&mut self, p: usize) {
        self.fp = self
            .fp
            .wrapping_sub(mix128(TAG_REQ, p as u64, u128::from(self.popped[p])));
        self.popped[p] += 1;
        self.fp = self
            .fp
            .wrapping_add(mix128(TAG_REQ, p as u64, u128::from(self.popped[p])));
    }

    /// The full canonical key. Like the original dedup key it is the
    /// complete hash material, not a digest: a digest collision would
    /// silently merge two *distinct* configurations and could prune a
    /// reachable violating schedule, which is unacceptable for a model
    /// checker. All components are length-prefixed so the encoding is
    /// injective; the pool is canonicalized by sorting its per-event
    /// encodings (it is an unordered multiset, and commuting prefixes
    /// produce it in different orders).
    fn full_key(&self) -> Vec<u8> {
        let mut h = KeyRecorder::default();
        self.chains.len().hash(&mut h);
        for c in &self.chains {
            c.len().hash(&mut h);
            h.bytes.extend_from_slice(c);
        }
        for b in &self.proto {
            b.len().hash(&mut h);
            h.bytes.extend_from_slice(b);
        }
        let mut pool_keys: Vec<&Vec<u8>> = self.pool.iter().collect();
        pool_keys.sort_unstable();
        pool_keys.len().hash(&mut h);
        for k in pool_keys {
            k.len().hash(&mut h);
            h.bytes.extend_from_slice(k);
        }
        for &c in &self.popped {
            c.hash(&mut h);
        }
        h.bytes
    }
}

fn attach_cache<P: Protocol + Clone + Hash>(state: &mut State<P>) {
    let processes = state.requests.len();
    state.cache = Some(Box::new(KeyCache::new(
        &state.protocols,
        &state.pool,
        processes,
        encode_protocol::<P>,
    )));
}

// ---------------------------------------------------------------------------
// Seen-set: sharded, exact or compact, optionally bounded + spillable
// ---------------------------------------------------------------------------

enum SeenVerdict {
    /// New state: explore it.
    Enter,
    /// Revisited with a smaller sleep set than stored: re-explore with
    /// the intersection (Godefroid's rule; the stored set strictly
    /// shrinks, so re-exploration terminates even on cyclic graphs).
    EnterWith(Vec<TKey>),
    /// Already explored at least as permissively: prune.
    Prune,
    /// The bounded table is full and nothing could be spilled.
    Full,
}

/// Distinguishes concurrent explorations inside one process; combined
/// with the pid it makes every run's spill subdirectory unique, so two
/// searches (or an aborted search and its retry) sharing a spill path
/// can never collide on segment file names.
static SPILL_RUN: AtomicU64 = AtomicU64::new(0);

struct SeenShards {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    exact: bool,
    /// Per-shard live-entry bound (`usize::MAX` = unbounded).
    shard_cap: usize,
    /// This run's private spill subdirectory (`<spill>/run-<pid>-<n>`),
    /// created lazily by the first segment write and removed on drop.
    spill: Option<PathBuf>,
}

impl Drop for SeenShards {
    fn drop(&mut self) {
        // Segments keep their files open — on Unix, unlinking while open
        // is fine, and the handles die with `self.shards` right after.
        // Removal failure only leaks a temp directory; nothing to report.
        if let Some(dir) = &self.spill {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One exact-mode bucket: the full configuration key plus the stored
/// sleep set the subset rule compares against.
type ExactEntry = (Vec<u8>, Vec<TKey>);

#[derive(Default)]
struct Shard {
    /// Exact mode: fingerprint buckets of (full key, stored sleep set).
    exact: HashMap<u128, Vec<ExactEntry>>,
    /// Compact mode: fingerprint → stored sleep set.
    compact: HashMap<u128, Vec<TKey>>,
    /// Distinct states ever inserted (spilling does not decrement).
    inserted: usize,
    segments: Vec<Segment>,
    spill_failed: bool,
}

/// Applies the sleep-set subset rule to a revisited state. With
/// reduction off both sets are empty and this is a plain prune.
fn por_rule(stored: &mut Vec<TKey>, sleep: &[TKey], por: bool) -> SeenVerdict {
    if !por || stored.iter().all(|u| sleep.contains(u)) {
        return SeenVerdict::Prune;
    }
    let inter: Vec<TKey> = stored
        .iter()
        .filter(|u| sleep.contains(u))
        .cloned()
        .collect();
    stored.clone_from(&inter);
    SeenVerdict::EnterWith(inter)
}

impl SeenShards {
    fn new(dedup: &DedupMode, threads: usize) -> Option<SeenShards> {
        let (exact, max_states, spill) = match dedup {
            DedupMode::Off => return None,
            DedupMode::Exact => (true, 0usize, None),
            DedupMode::Compact { max_states, spill } => {
                let run_dir = spill.as_ref().map(|dir| {
                    dir.join(format!(
                        "run-{}-{}",
                        std::process::id(),
                        SPILL_RUN.fetch_add(1, Ordering::Relaxed)
                    ))
                });
                (false, *max_states, run_dir)
            }
        };
        let n = if threads <= 1 {
            1
        } else {
            (threads * 4).next_power_of_two()
        };
        let shard_cap = if max_states == 0 {
            usize::MAX
        } else {
            max_states.div_ceil(n)
        };
        Some(SeenShards {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n - 1,
            exact,
            shard_cap,
            spill,
        })
    }

    fn check<P>(&self, state: &State<P>, sleep: &[TKey], por: bool) -> SeenVerdict {
        let cache = state
            .cache
            .as_ref()
            .expect("deduplication requires the key cache");
        let fp = cache.fp;
        let idx = fold_fp(fp) & self.mask;
        let mut shard = self.shards[idx]
            .lock()
            .expect("no worker panicked in the seen-set");
        if self.exact {
            let key = cache.full_key();
            let bucket = shard.exact.entry(fp).or_default();
            if let Some((_, stored)) = bucket.iter_mut().find(|(k, _)| *k == key) {
                return por_rule(stored, sleep, por);
            }
            bucket.push((key, sleep.to_vec()));
            shard.inserted += 1;
            return SeenVerdict::Enter;
        }
        // Compact: spilled segments hold only fully-explored states
        // (stored sleep ∅ ⊆ anything), so a segment hit always prunes.
        if shard.segments.iter_mut().any(|s| s.contains(fp)) {
            return SeenVerdict::Prune;
        }
        if let Some(stored) = shard.compact.get_mut(&fp) {
            return por_rule(stored, sleep, por);
        }
        if shard.compact.len() >= self.shard_cap {
            if self.spill.is_none()
                || shard.spill_failed
                || !shard.flush(self.spill.as_ref().expect("checked"), idx)
            {
                return SeenVerdict::Full;
            }
            if shard.compact.len() >= self.shard_cap {
                // Nothing was flushable: every live entry still carries
                // a sleep set the subset rule may need.
                return SeenVerdict::Full;
            }
        }
        shard.compact.insert(fp, sleep.to_vec());
        shard.inserted += 1;
        SeenVerdict::Enter
    }

    /// `(distinct states inserted, segments spilled)`.
    fn totals(&self) -> (usize, usize) {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("no worker panicked in the seen-set");
                (s.inserted, s.segments.len())
            })
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    }
}

fn fold_fp(fp: u128) -> usize {
    ((fp as u64) ^ ((fp >> 64) as u64)) as usize
}

impl Shard {
    /// Flushes every fully-explored (empty-sleep) fingerprint to a new
    /// sorted segment file. Returns `false` (and poisons spilling) on
    /// any I/O failure — the caller then treats the table as full,
    /// which only truncates, never unsoundly prunes.
    fn flush(&mut self, dir: &Path, shard_idx: usize) -> bool {
        let flushable: Vec<u128> = self
            .compact
            .iter()
            .filter(|(_, sleep)| sleep.is_empty())
            .map(|(&fp, _)| fp)
            .collect();
        if flushable.is_empty() {
            return true; // nothing to do; caller re-checks occupancy
        }
        let mut fps = flushable;
        fps.sort_unstable();
        let path = dir.join(format!(
            "seen-{shard_idx:03}-{:04}.seg",
            self.segments.len()
        ));
        match Segment::write(&path, &fps) {
            Ok(seg) => {
                for fp in &fps {
                    self.compact.remove(fp);
                }
                self.segments.push(seg);
                true
            }
            Err(_) => {
                self.spill_failed = true;
                false
            }
        }
    }
}

/// One spilled sorted run of fingerprints with a sparse in-memory
/// index (every [`SEG_STRIDE`]-th key), looked up by seek-and-scan.
struct Segment {
    file: File,
    index: Vec<u128>,
    len: usize,
    first: u128,
    last: u128,
}

const SEG_STRIDE: usize = 256;

impl Segment {
    fn write(path: &std::path::Path, fps: &[u128]) -> std::io::Result<Segment> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut buf = Vec::with_capacity(fps.len() * 16);
        for fp in fps {
            buf.extend_from_slice(&fp.to_le_bytes());
        }
        file.write_all(&buf)?;
        file.flush()?;
        let index: Vec<u128> = fps.iter().step_by(SEG_STRIDE).copied().collect();
        Ok(Segment {
            file,
            index,
            len: fps.len(),
            first: fps[0],
            last: *fps.last().expect("nonempty segment"),
        })
    }

    /// Membership test. An I/O error reads as "absent", which merely
    /// re-explores a subtree — sound, never unsound.
    fn contains(&mut self, fp: u128) -> bool {
        if self.len == 0 || fp < self.first || fp > self.last {
            return false;
        }
        let block = match self.index.binary_search(&fp) {
            Ok(_) => return true,
            Err(0) => return false,
            Err(i) => i - 1,
        };
        let start = block * SEG_STRIDE;
        let count = SEG_STRIDE.min(self.len - start);
        if self
            .file
            .seek(SeekFrom::Start((start * 16) as u64))
            .is_err()
        {
            return false;
        }
        let mut buf = vec![0u8; count * 16];
        if self.file.read_exact(&mut buf).is_err() {
            return false;
        }
        buf.chunks_exact(16)
            .any(|c| u128::from_le_bytes(c.try_into().expect("16-byte chunk")) == fp)
    }
}

// ---------------------------------------------------------------------------
// The unified DFS engine
// ---------------------------------------------------------------------------

/// Per-exploration environment shared by every worker.
struct Env<'e> {
    por: bool,
    max_depth: usize,
    seen: Option<&'e SeenShards>,
}

/// Where the engine reports progress: sequential accumulation into an
/// [`Exploration`], or shared atomics for the threaded frontier.
trait Sink<P: Protocol + Clone> {
    /// A cooperative stop was requested (early-stop visitor, error, or
    /// a worker hitting the cap).
    fn stopped(&self) -> bool;
    /// Entry gate, called once per state; `false` aborts the traversal
    /// (the sequential cap check lives here).
    fn enter(&mut self) -> bool;
    /// A terminal configuration; returns `false` to stop the search.
    fn leaf(&mut self, state: &mut State<P>) -> bool;
    fn error(&mut self, e: Box<SimError>);
    fn condemned(&mut self);
    fn sleep_skip(&mut self);
    fn truncate(&mut self);
}

/// One unit of donated work on the threaded frontier.
struct Job<P, M> {
    state: State<P>,
    sleep: Vec<TKey>,
    mon: M,
    depth: usize,
}

/// The sharded work-stealing frontier. Workers pop their own shard
/// LIFO (depth-first, cache-warm) and steal other shards FIFO (oldest,
/// biggest subtrees). `pending` counts queued *and* in-flight jobs, so
/// `pending == 0` with empty queues is the termination condition.
struct Frontier<P, M> {
    shards: Vec<Mutex<VecDeque<Job<P, M>>>>,
    pending: AtomicUsize,
    queued: AtomicUsize,
    rr: AtomicUsize,
    /// Donate while fewer than this many jobs are queued.
    low_water: usize,
}

impl<P, M> Frontier<P, M> {
    fn new(threads: usize) -> Frontier<P, M> {
        Frontier {
            shards: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            low_water: threads * 2,
        }
    }

    /// Whether a busy worker should donate a subtree instead of
    /// recursing into it.
    fn hungry(&self) -> bool {
        self.queued.load(Ordering::Relaxed) < self.low_water
    }

    fn push(&self, job: Job<P, M>) {
        let shard = job
            .state
            .cache
            .as_ref()
            .map(|c| fold_fp(c.fp))
            .unwrap_or_else(|| self.rr.fetch_add(1, Ordering::Relaxed))
            % self.shards.len();
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.shards[shard]
            .lock()
            .expect("no worker panicked holding a frontier shard")
            .push_back(job);
    }

    fn pop(&self, worker: usize) -> Option<Job<P, M>> {
        let n = self.shards.len();
        let own = self.shards[worker % n]
            .lock()
            .expect("no worker panicked holding a frontier shard")
            .pop_back();
        if let Some(job) = own {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        for k in 1..n {
            let stolen = self.shards[(worker + k) % n]
                .lock()
                .expect("no worker panicked holding a frontier shard")
                .pop_front();
            if let Some(job) = stolen {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
}

/// The engine: one recursive DFS shared by every mode. `sleep` is this
/// state's sleep set (empty without reduction); `frontier` is `Some`
/// only on the threaded path, where explorable children may be donated
/// instead of recursed into. Returns `false` to abort the traversal.
fn dfs<P, M, S>(
    state: &mut State<P>,
    mut sleep: Vec<TKey>,
    mon: &M,
    depth: usize,
    env: &Env<'_>,
    sink: &mut S,
    frontier: Option<&Frontier<P, M>>,
) -> bool
where
    P: Protocol + Clone,
    M: PrefixMonitor,
    S: Sink<P>,
{
    if sink.stopped() || !sink.enter() {
        return false;
    }
    let trans = state.transitions();
    if trans.is_empty() {
        // A leaf always arrives with an empty effective sleep set
        // (sleep members stay enabled, and nothing is enabled here), so
        // it is stored fully explored and every revisit prunes: leaves
        // are counted once per distinct terminal configuration.
        if let Some(seen) = env.seen {
            match seen.check(state, &[], env.por) {
                SeenVerdict::Enter | SeenVerdict::EnterWith(_) => {}
                SeenVerdict::Prune => return true,
                SeenVerdict::Full => {
                    sink.truncate();
                    return true;
                }
            }
        }
        return sink.leaf(state);
    }
    if depth >= env.max_depth {
        sink.truncate();
        return true;
    }
    if let Some(seen) = env.seen {
        match seen.check(state, &sleep, env.por) {
            SeenVerdict::Enter => {}
            SeenVerdict::EnterWith(s) => sleep = s,
            SeenVerdict::Prune => return true,
            SeenVerdict::Full => {
                sink.truncate();
                return true;
            }
        }
    }
    let explorable: Vec<usize> = if env.por && !sleep.is_empty() {
        (0..trans.len())
            .filter(|&i| !sleep.contains(&trans[i].0))
            .collect()
    } else {
        (0..trans.len()).collect()
    };
    if explorable.is_empty() {
        sink.sleep_skip();
        return true;
    }
    let last = explorable.len() - 1;
    // Transitions executed before the current sibling (the classic
    // "done" set): a later sibling's child sleeps on each earlier
    // independent one, because every order putting that one first is
    // covered by the earlier sibling's subtree.
    let mut done: Vec<TKey> = Vec::new();
    for (j, &ti) in explorable.iter().enumerate() {
        if sink.stopped() {
            return false;
        }
        let (t_key, pick) = (&trans[ti].0, trans[ti].1);
        let mut next = state.clone_state();
        let ev = next.take_transition(pick);
        let mut child_mon = mon.clone();
        let condemned = next.execute(ev, &mut child_mon);
        if let Some(e) = next.take_error() {
            sink.error(e);
            return false;
        }
        if condemned {
            // Condemnation is monotone and order-insensitive over
            // commuting events, so sleeping `t_key` in later siblings
            // stays sound: those skipped orders would be condemned too.
            sink.condemned();
            if env.por {
                done.push(t_key.clone());
            }
            continue;
        }
        let child_sleep: Vec<TKey> = if env.por {
            sleep
                .iter()
                .chain(done.iter())
                .filter(|u| u.node != t_key.node)
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        if let Some(f) = frontier {
            if j < last && f.hungry() {
                f.push(Job {
                    state: next,
                    sleep: child_sleep,
                    mon: child_mon,
                    depth: depth + 1,
                });
                if env.por {
                    done.push(t_key.clone());
                }
                continue;
            }
        }
        if !dfs(
            &mut next,
            child_sleep,
            &child_mon,
            depth + 1,
            env,
            sink,
            frontier,
        ) {
            return false;
        }
        if env.por {
            done.push(t_key.clone());
        }
    }
    true
}

/// Accounts a complete schedule's liveness: a leaf whose run is
/// non-quiescent wedged under this interleaving.
fn note_leaf_liveness<P>(state: &State<P>, exp: &mut Exploration) {
    if let Some(v) = liveness::analyze(&state.world, false) {
        exp.non_live += 1;
        if exp.first_stall.is_none() {
            exp.first_stall = Some(Box::new(v));
        }
    }
}

// ---------------------------------------------------------------------------
// Sequential driver
// ---------------------------------------------------------------------------

struct SeqSink<'a, V> {
    exp: &'a mut Exploration,
    visit: &'a mut V,
    cap: usize,
}

impl<P, V> Sink<P> for SeqSink<'_, V>
where
    P: Protocol + Clone,
    V: FnMut(&SystemRun) -> bool,
{
    fn stopped(&self) -> bool {
        false
    }
    fn enter(&mut self) -> bool {
        if self.exp.schedules >= self.cap {
            self.exp.truncated = true;
            return false;
        }
        true
    }
    fn leaf(&mut self, state: &mut State<P>) -> bool {
        self.exp.schedules += 1;
        note_leaf_liveness(state, self.exp);
        let run = state
            .world
            .builder
            .build()
            .expect("explored runs are valid");
        (self.visit)(&run)
    }
    fn error(&mut self, e: Box<SimError>) {
        self.exp.error = Some(e);
    }
    fn condemned(&mut self) {
        self.exp.pruned += 1;
    }
    fn sleep_skip(&mut self) {
        self.exp.sleep_skipped += 1;
    }
    fn truncate(&mut self) {
        self.exp.truncated = true;
    }
}

fn run_sequential<P, M, V>(
    mut state: State<P>,
    opts: &ExploreOptions,
    mon: M,
    visit: &mut V,
) -> Exploration
where
    P: Protocol + Clone,
    M: PrefixMonitor,
    V: FnMut(&SystemRun) -> bool,
{
    state.world.record = M::ACTIVE || state.cache.is_some();
    let mut exp = Exploration::empty();
    let seen = SeenShards::new(&opts.dedup, 1);
    let env = Env {
        por: opts.por_effective(),
        max_depth: opts.max_depth,
        seen: seen.as_ref(),
    };
    {
        let mut sink = SeqSink {
            exp: &mut exp,
            visit,
            cap: opts.cap,
        };
        let _ = dfs(
            &mut state,
            Vec::new(),
            &mon,
            0,
            &env,
            &mut sink,
            None::<&Frontier<P, M>>,
        );
    }
    if let Some(seen) = &seen {
        let (states, spilled) = seen.totals();
        exp.states = states;
        exp.spilled = spilled;
    }
    exp
}

// ---------------------------------------------------------------------------
// Parallel driver
// ---------------------------------------------------------------------------

struct SharedCounters {
    schedules: AtomicUsize,
    non_live: AtomicUsize,
    pruned: AtomicUsize,
    sleep_skipped: AtomicUsize,
    truncated: AtomicBool,
    stopped: AtomicBool,
    stall: Mutex<Option<Box<LivenessVerdict>>>,
    error: Mutex<Option<Box<SimError>>>,
}

impl SharedCounters {
    fn new() -> SharedCounters {
        SharedCounters {
            schedules: AtomicUsize::new(0),
            non_live: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            sleep_skipped: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            stall: Mutex::new(None),
            error: Mutex::new(None),
        }
    }

    fn into_exploration(self) -> Exploration {
        Exploration {
            schedules: self.schedules.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            error: self
                .error
                .into_inner()
                .expect("no worker panicked holding the error slot"),
            non_live: self.non_live.load(Ordering::Relaxed),
            first_stall: self
                .stall
                .into_inner()
                .expect("no worker panicked holding the stall slot"),
            states: 0,
            sleep_skipped: self.sleep_skipped.load(Ordering::Relaxed),
            spilled: 0,
        }
    }
}

struct ParSink<'a, V> {
    c: &'a SharedCounters,
    visit: &'a V,
    cap: usize,
}

impl<P, V> Sink<P> for ParSink<'_, V>
where
    P: Protocol + Clone,
    V: Fn(&SystemRun) -> bool + Sync,
{
    fn stopped(&self) -> bool {
        self.c.stopped.load(Ordering::Relaxed)
    }
    fn enter(&mut self) -> bool {
        true
    }
    fn leaf(&mut self, state: &mut State<P>) -> bool {
        // Claim a schedule slot with a compare-exchange loop so the
        // count can never overshoot the cap.
        let mut cur = self.c.schedules.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                self.c.truncated.store(true, Ordering::Relaxed);
                self.c.stopped.store(true, Ordering::Relaxed);
                return false;
            }
            match self.c.schedules.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if let Some(v) = liveness::analyze(&state.world, false) {
            self.c.non_live.fetch_add(1, Ordering::Relaxed);
            self.c
                .stall
                .lock()
                .expect("no worker panicked holding the stall slot")
                .get_or_insert_with(|| Box::new(v));
        }
        let run = state
            .world
            .builder
            .build()
            .expect("explored runs are valid");
        if !(self.visit)(&run) {
            self.c.stopped.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }
    fn error(&mut self, e: Box<SimError>) {
        self.c
            .error
            .lock()
            .expect("no worker panicked holding the error slot")
            .get_or_insert(e);
        self.c.stopped.store(true, Ordering::Relaxed);
    }
    fn condemned(&mut self) {
        self.c.pruned.fetch_add(1, Ordering::Relaxed);
    }
    fn sleep_skip(&mut self) {
        self.c.sleep_skipped.fetch_add(1, Ordering::Relaxed);
    }
    fn truncate(&mut self) {
        self.c.truncated.store(true, Ordering::Relaxed);
    }
}

fn run_parallel<P, M, V>(
    mut root: State<P>,
    opts: &ExploreOptions,
    mon: M,
    visit: &V,
) -> Exploration
where
    P: Protocol + Clone + Send,
    M: PrefixMonitor + Send,
    V: Fn(&SystemRun) -> bool + Sync,
{
    root.world.record = M::ACTIVE || root.cache.is_some();
    let threads = opts.threads.max(2);
    let seen = SeenShards::new(&opts.dedup, threads);
    let env = Env {
        por: opts.por_effective(),
        max_depth: opts.max_depth,
        seen: seen.as_ref(),
    };
    let shared = SharedCounters::new();
    let frontier: Frontier<P, M> = Frontier::new(threads);
    frontier.push(Job {
        state: root,
        sleep: Vec::new(),
        mon,
        depth: 0,
    });
    std::thread::scope(|s| {
        for w in 0..threads {
            let frontier = &frontier;
            let shared = &shared;
            let env = &env;
            let cap = opts.cap;
            s.spawn(move || {
                let mut sink = ParSink {
                    c: shared,
                    visit,
                    cap,
                };
                loop {
                    if shared.stopped.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(job) = frontier.pop(w) else {
                        if frontier.pending.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        std::thread::sleep(std::time::Duration::from_micros(20));
                        continue;
                    };
                    let Job {
                        mut state,
                        sleep,
                        mon,
                        depth,
                    } = job;
                    let _ = dfs(
                        &mut state,
                        sleep,
                        &mon,
                        depth,
                        env,
                        &mut sink,
                        Some(frontier),
                    );
                    frontier.pending.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
    });
    let mut exp = shared.into_exploration();
    if let Some(seen) = &seen {
        let (states, spilled) = seen.totals();
        exp.states = states;
        exp.spilled = spilled;
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SendSpec;
    use msgorder_runs::{MessageId, ProcessId};
    use std::collections::{BTreeMap, HashSet};

    #[derive(Clone, Hash)]
    struct Immediate;
    impl Protocol for Immediate {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            ctx: &mut crate::Ctx<'_>,
            _from: ProcessId,
            msg: MessageId,
            _tag: Vec<u8>,
        ) {
            ctx.deliver(msg);
        }
    }

    #[derive(Clone, Hash)]
    struct Sink2;
    impl Protocol for Sink2 {
        fn on_send_request(&mut self, ctx: &mut crate::Ctx<'_>, msg: MessageId) {
            ctx.send_user(msg, Vec::new());
        }
        fn on_user_frame(
            &mut self,
            _ctx: &mut crate::Ctx<'_>,
            _from: ProcessId,
            _msg: MessageId,
            _tag: Vec<u8>,
        ) {
            // Never delivers: every schedule wedges.
        }
    }

    fn capped(cap: usize) -> ExploreOptions {
        ExploreOptions {
            cap,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn exploration_counts_non_live_schedules_with_blame() {
        let exp =
            explore_parallel_with(2, two_same_channel(), |_| Sink2, &capped(10_000), &|_| true);
        assert!(exp.error.is_none());
        assert!(exp.schedules > 0);
        assert_eq!(
            exp.non_live, exp.schedules,
            "a sink protocol wedges every interleaving"
        );
        let stall = exp.first_stall.expect("blame for the first stall");
        assert_eq!(stall.stuck_count(), 2);
        assert_eq!(
            stall.classes(),
            vec!["deliver:protocol-inhibited".to_owned()]
        );

        // A live protocol reports none.
        let exp = explore_parallel_with(
            2,
            two_same_channel(),
            |_| Immediate,
            &capped(10_000),
            &|_| true,
        );
        assert_eq!(exp.non_live, 0);
        assert!(exp.first_stall.is_none());

        // The parallel front end aggregates the same counts.
        let opts = ExploreOptions {
            threads: 4,
            ..capped(10_000)
        };
        let par = explore_parallel_with(2, two_same_channel(), |_| Sink2, &opts, &|_| true);
        assert_eq!(par.non_live, par.schedules);
        assert!(par.first_stall.is_some());
    }

    fn two_same_channel() -> Workload {
        Workload {
            sends: vec![
                SendSpec {
                    at: 0,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 1,
                    src: 0,
                    dst: 1,
                    color: None,
                },
            ],
        }
    }

    #[test]
    fn counts_all_interleavings_of_two_messages() {
        // Events for the immediate protocol: req0 (triggers send),
        // arrival0, req1, arrival1 — requests of the same process are
        // ordered, arrivals are free: schedules = interleavings of
        // [a0] and [a1] relative to req order... enumerate and check a
        // known property instead of an exact count: both delivery
        // orders must occur.
        let saw_in_order = AtomicBool::new(false);
        let saw_inverted = AtomicBool::new(false);
        let exp = explore_parallel_with(
            2,
            two_same_channel(),
            |_| Immediate,
            &capped(10_000),
            &|run| {
                let user = run.users_view();
                use msgorder_runs::UserEvent;
                if user.before(
                    UserEvent::deliver(MessageId(0)),
                    UserEvent::deliver(MessageId(1)),
                ) {
                    saw_in_order.store(true, Ordering::Relaxed);
                } else {
                    saw_inverted.store(true, Ordering::Relaxed);
                }
                true
            },
        );
        assert!(!exp.truncated);
        assert!(exp.schedules >= 2);
        assert!(
            saw_in_order.into_inner() && saw_inverted.into_inner(),
            "explorer must reorder frames"
        );
    }

    #[test]
    fn every_explored_run_is_quiescent_for_live_protocol() {
        let exp = explore_parallel_with(
            2,
            two_same_channel(),
            |_| Immediate,
            &capped(10_000),
            &|run| {
                assert!(run.is_quiescent());
                true
            },
        );
        assert!(exp.schedules > 0);
    }

    #[test]
    fn early_stop_works() {
        let exp = explore_parallel_with(
            2,
            two_same_channel(),
            |_| Immediate,
            &capped(10_000),
            &|_| false,
        );
        assert_eq!(exp.schedules, 1);
    }

    #[test]
    fn cap_truncates() {
        let w = Workload {
            sends: (0..4)
                .map(|i| SendSpec {
                    at: i,
                    src: 0,
                    dst: 1,
                    color: None,
                })
                .collect(),
        };
        let exp = explore_parallel_with(2, w, |_| Immediate, &capped(3), &|_| true);
        assert!(exp.truncated);
        assert_eq!(exp.schedules, 3);
    }

    /// A workload whose messages fan out to different destinations, so
    /// interleavings genuinely commute and dedup has something to merge.
    fn fan_out() -> Workload {
        Workload {
            sends: vec![
                SendSpec {
                    at: 0,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 1,
                    src: 0,
                    dst: 2,
                    color: None,
                },
                SendSpec {
                    at: 2,
                    src: 0,
                    dst: 1,
                    color: None,
                },
            ],
        }
    }

    /// Canonical fingerprint of a run for set comparison across
    /// exploration strategies.
    fn fingerprint(run: &SystemRun) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = run
            .users_view()
            .relation_pairs()
            .into_iter()
            .map(|(a, b)| (format!("{a:?}"), format!("{b:?}")))
            .collect();
        pairs.sort();
        pairs
    }

    /// Visited runs keyed by [`fingerprint`], with their visit counts.
    type RunCounts = BTreeMap<Vec<(String, String)>, usize>;

    /// Explores `w` under the [`Immediate`] protocol, `monitor` and
    /// `opts`, counting every visited run by its fingerprint.
    fn immediate_runs<M: PrefixMonitor + Send>(
        processes: usize,
        w: Workload,
        monitor: M,
        opts: &ExploreOptions,
    ) -> (Exploration, RunCounts) {
        let runs = Mutex::new(RunCounts::new());
        let exp = explore_monitored_with(processes, w, |_| Immediate, monitor, opts, &|run| {
            *runs
                .lock()
                .expect("no visitor panicked")
                .entry(fingerprint(run))
                .or_default() += 1;
            true
        });
        (exp, runs.into_inner().expect("final read"))
    }

    fn exact_opts() -> ExploreOptions {
        ExploreOptions {
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn dedup_visits_same_distinct_runs_with_fewer_configurations() {
        let (plain, plain_runs) =
            immediate_runs(3, fan_out(), NoMonitor, &ExploreOptions::default());
        let (dedup, dedup_runs) = immediate_runs(3, fan_out(), NoMonitor, &exact_opts());
        assert!(
            plain_runs.keys().eq(dedup_runs.keys()),
            "dedup must not lose runs"
        );
        assert!(
            dedup.schedules < plain.schedules,
            "commuting interleavings must merge: {} !< {}",
            dedup.schedules,
            plain.schedules
        );
        assert!(dedup.states > 0, "dedup reports the state count");
        assert!(!dedup_runs.is_empty());
    }

    /// One successor state per enabled branch, in the engine's order.
    fn branch_states<P: Protocol + Clone>(state: &State<P>) -> Vec<State<P>> {
        let mut out = Vec::new();
        for (_, pick) in state.transitions() {
            let mut next = state.clone_state();
            let ev = next.take_transition(pick);
            let mut mon = NoMonitor;
            next.execute(ev, &mut mon);
            out.push(next);
        }
        out
    }

    fn canonical_key<P>(state: &State<P>) -> Vec<u8> {
        state
            .cache
            .as_ref()
            .expect("cache attached at the root")
            .full_key()
    }

    /// Walks the whole configuration graph, collecting the canonical
    /// key of every distinct configuration reached.
    fn collect_keys(state: &State<Immediate>, seen: &mut HashSet<Vec<u8>>) {
        for next in branch_states(state) {
            if seen.insert(canonical_key(&next)) {
                collect_keys(&next, seen);
            }
        }
    }

    #[test]
    fn dedup_key_survives_collisions_that_kill_a_truncated_hash() {
        // Regression for the 64-bit-digest dedup key: a digest collision
        // silently merges two distinct configurations, and in a model
        // checker that can prune a reachable *violating* schedule. The
        // canonical key is the full hash material, so distinct
        // configurations always key distinct — demonstrated here by
        // pigeonhole: over an 8-bit truncation of the same material,
        // collisions are guaranteed once we have > 256 distinct
        // configurations, yet every full key stays unique.
        let w = Workload {
            sends: (0..5)
                .map(|i| SendSpec {
                    at: i,
                    src: (i as usize) % 3,
                    dst: ((i as usize) + 1) % 3,
                    color: None,
                })
                .collect(),
        };
        let mut root = initial_state(3, w, |_| Immediate, &FaultModel::none());
        attach_cache(&mut root);
        root.world.record = true;
        let mut keys = HashSet::new();
        keys.insert(canonical_key(&root));
        collect_keys(&root, &mut keys);
        assert!(
            keys.len() > 256,
            "need > 256 distinct configurations for the pigeonhole \
             argument, got {}",
            keys.len()
        );
        // Truncate each canonical key to 8 bits the way any fixed-width
        // digest would: distinct configurations now collide...
        let truncated: HashSet<u8> = keys
            .iter()
            .map(|k| {
                use std::collections::hash_map::DefaultHasher;
                let mut h = DefaultHasher::new();
                k.hash(&mut h);
                h.finish() as u8
            })
            .collect();
        assert!(
            truncated.len() < keys.len(),
            "a truncated digest must collide on this many configurations"
        );
        // ...while the full canonical keys are all distinct by
        // construction (they are the deduplicating set itself).
    }

    #[test]
    fn incremental_fingerprint_is_path_independent() {
        // Two commuting prefixes must reach byte-identical keys and the
        // same rolling fingerprint; distinct configurations must not.
        let mut root = initial_state(3, fan_out(), |_| Immediate, &FaultModel::none());
        attach_cache(&mut root);
        root.world.record = true;
        let mut by_key: HashMap<Vec<u8>, u128> = HashMap::new();
        fn walk(state: &State<Immediate>, by_key: &mut HashMap<Vec<u8>, u128>) {
            let key = canonical_key(state);
            let fp = state.cache.as_ref().expect("cache").fp;
            if let Some(prev) = by_key.insert(key, fp) {
                assert_eq!(prev, fp, "same key must imply same fingerprint");
                return;
            }
            for next in branch_states(state) {
                walk(&next, by_key);
            }
        }
        walk(&root, &mut by_key);
        // Many distinct configurations, and (with ~2^128 space) no
        // fingerprint collisions among them at this scale.
        let fps: HashSet<u128> = by_key.values().copied().collect();
        assert!(by_key.len() > 10);
        assert_eq!(fps.len(), by_key.len(), "unexpected fingerprint collision");
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let seq = explore_parallel_with(
            3,
            fan_out(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|_| true,
        );
        for threads in [1, 2, 4] {
            let opts = ExploreOptions {
                threads,
                ..ExploreOptions::default()
            };
            let par = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
            assert_eq!(par.schedules, seq.schedules, "threads = {threads}");
            assert!(!par.truncated);
        }
    }

    #[test]
    fn parallel_visits_same_run_multiset() {
        let (_, seq_runs) = immediate_runs(3, fan_out(), NoMonitor, &ExploreOptions::default());
        let opts = ExploreOptions {
            threads: 4,
            ..ExploreOptions::default()
        };
        let (_, par_runs) = immediate_runs(3, fan_out(), NoMonitor, &opts);
        assert_eq!(seq_runs, par_runs);
    }

    /// Condemns any prefix whose deliveries on the (0 → 1) channel are
    /// out of send order — an online FIFO check via the live `▷`.
    #[derive(Clone)]
    struct FifoCheck;
    impl PrefixMonitor for FifoCheck {
        fn on_event(&mut self, view: &StreamingRun, ev: SystemEvent) -> bool {
            use msgorder_runs::{EventKind, UserEvent};
            if ev.kind != EventKind::Deliver {
                return true;
            }
            // Any earlier-sent, later-delivered same-channel message?
            for other in view.completed() {
                let (a, b) = (*other, ev.msg);
                if a != b
                    && view.before(UserEvent::send(b), UserEvent::send(a))
                    && view.before(UserEvent::deliver(a), UserEvent::deliver(b))
                {
                    return false;
                }
            }
            true
        }
    }

    #[test]
    fn monitored_exploration_prunes_condemned_prefixes() {
        let plain_fifo = AtomicUsize::new(0);
        let plain = explore_parallel_with(
            2,
            two_same_channel(),
            |_| Immediate,
            &ExploreOptions::default(),
            &|run| {
                let user = run.users_view();
                if user.before(
                    msgorder_runs::UserEvent::deliver(MessageId(0)),
                    msgorder_runs::UserEvent::deliver(MessageId(1)),
                ) {
                    plain_fifo.fetch_add(1, Ordering::Relaxed);
                }
                true
            },
        );
        let (plain_total, plain_fifo) = (plain.schedules, plain_fifo.into_inner());
        let visited = AtomicUsize::new(0);
        let exp = explore_monitored_with(
            2,
            two_same_channel(),
            |_| Immediate,
            FifoCheck,
            &ExploreOptions::default(),
            &|run| {
                visited.fetch_add(1, Ordering::Relaxed);
                let user = run.users_view();
                assert!(
                    user.before(
                        msgorder_runs::UserEvent::deliver(MessageId(0)),
                        msgorder_runs::UserEvent::deliver(MessageId(1)),
                    ),
                    "condemned schedules must not reach the visitor"
                );
                true
            },
        );
        let visited = visited.into_inner();
        assert!(exp.error.is_none());
        assert_eq!(exp.schedules, visited);
        assert_eq!(visited, plain_fifo, "every FIFO schedule still visited");
        assert!(exp.pruned > 0, "violating prefixes were cut");
        assert!(
            exp.schedules < plain_total,
            "pruning must reduce the visited count"
        );
    }

    #[test]
    fn parallel_cap_never_overshoots() {
        let w = Workload {
            sends: (0..4)
                .map(|i| SendSpec {
                    at: i,
                    src: 0,
                    dst: 1,
                    color: None,
                })
                .collect(),
        };
        let opts = ExploreOptions {
            threads: 4,
            ..capped(3)
        };
        let exp = explore_parallel_with(2, w, |_| Immediate, &opts, &|_| true);
        assert!(exp.truncated);
        assert_eq!(exp.schedules, 3);
    }

    // ------------------------------------------------------------------
    // Partial-order reduction
    // ------------------------------------------------------------------

    fn por_opts() -> ExploreOptions {
        ExploreOptions {
            por: true,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn por_visits_same_run_set_with_fewer_schedules() {
        let (plain, plain_runs) =
            immediate_runs(3, fan_out(), NoMonitor, &ExploreOptions::default());
        let (por, por_runs) = immediate_runs(3, fan_out(), NoMonitor, &por_opts());
        assert!(
            plain_runs.keys().eq(por_runs.keys()),
            "reduction must not lose runs"
        );
        assert!(
            por.schedules < plain.schedules,
            "commuting interleavings must be skipped: {} !< {}",
            por.schedules,
            plain.schedules
        );
        assert!(!por.truncated);
    }

    #[test]
    fn por_with_dedup_agrees_with_exact_dedup() {
        let (exact, exact_runs) = immediate_runs(3, fan_out(), NoMonitor, &exact_opts());
        let opts = ExploreOptions {
            por: true,
            ..exact_opts()
        };
        let (both, both_runs) = immediate_runs(3, fan_out(), NoMonitor, &opts);
        assert!(
            exact_runs.keys().eq(both_runs.keys()),
            "POR over dedup must not lose runs"
        );
        assert_eq!(
            both.schedules, exact.schedules,
            "terminal configurations are counted once either way"
        );
        assert!(both.states <= exact.states);
    }

    #[test]
    fn compact_dedup_matches_exact_counts() {
        let exact = explore_parallel_with(3, fan_out(), |_| Immediate, &exact_opts(), &|_| true);
        let opts = ExploreOptions {
            dedup: DedupMode::Compact {
                max_states: 0,
                spill: None,
            },
            ..ExploreOptions::default()
        };
        let compact = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert_eq!(compact.schedules, exact.schedules);
        assert_eq!(compact.states, exact.states);
        assert!(!compact.truncated);
    }

    #[test]
    fn bounded_seen_set_without_spill_truncates() {
        let opts = ExploreOptions {
            dedup: DedupMode::Compact {
                max_states: 4,
                spill: None,
            },
            ..ExploreOptions::default()
        };
        let exp = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert!(exp.truncated, "a full bounded table must truncate");
        assert!(
            exp.states <= 8,
            "inserts stop at the bound, got {}",
            exp.states
        );
    }

    #[test]
    fn spilling_seen_set_completes_the_search() {
        let dir = std::env::temp_dir().join(format!("msgorder-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exact = explore_parallel_with(3, fan_out(), |_| Immediate, &exact_opts(), &|_| true);
        let opts = ExploreOptions {
            dedup: DedupMode::Compact {
                max_states: 8,
                spill: Some(dir.clone()),
            },
            ..ExploreOptions::default()
        };
        let spilled = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert!(!spilled.truncated, "spilling must keep the search complete");
        assert_eq!(spilled.schedules, exact.schedules);
        assert_eq!(spilled.states, exact.states);
        assert!(
            spilled.spilled > 0,
            "the tiny bound must force segments out"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_seen_sets_get_distinct_spill_dirs() {
        // Regression: segment files used to be written straight into the
        // user-supplied directory with non-unique names, so two live (or
        // one aborted + one retried) explorations collided.
        let mode = DedupMode::Compact {
            max_states: 8,
            spill: Some(std::env::temp_dir().join("msgorder-spill-shared")),
        };
        let a = SeenShards::new(&mode, 1).expect("compact mode has a seen-set");
        let b = SeenShards::new(&mode, 1).expect("compact mode has a seen-set");
        assert_ne!(
            a.spill, b.spill,
            "two runs sharing a spill path must not share segment files"
        );
    }

    #[test]
    fn spill_run_directories_are_cleaned_up_on_drop() {
        let dir = std::env::temp_dir().join(format!("msgorder-spill-drop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExploreOptions {
            dedup: DedupMode::Compact {
                max_states: 8,
                spill: Some(dir.clone()),
            },
            ..ExploreOptions::default()
        };
        for _ in 0..2 {
            let exp = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
            assert!(exp.spilled > 0, "the tiny bound must force segments out");
        }
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .map(|it| {
                it.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "segment dirs leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monitored_por_preserves_the_uncondemned_run_set() {
        // The satellite edge case: the monitor halts inside a branch
        // whose commuting siblings were sleep-skipped. The visitor-
        // observed run set must still match plain monitored search.
        let w = Workload {
            sends: vec![
                SendSpec {
                    at: 0,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 1,
                    src: 0,
                    dst: 1,
                    color: None,
                },
                SendSpec {
                    at: 2,
                    src: 0,
                    dst: 2,
                    color: None,
                },
            ],
        };
        let (_, plain_runs) = immediate_runs(3, w.clone(), FifoCheck, &ExploreOptions::default());
        let (exp, por_runs) = immediate_runs(3, w, FifoCheck, &por_opts());
        assert!(
            plain_runs.keys().eq(por_runs.keys()),
            "sleep sets must not change what the monitor lets through"
        );
        assert!(exp.pruned > 0, "the monitor still condemns representatives");
    }

    #[test]
    fn monitored_exploration_honours_threads() {
        // The sequential DFS visits on the calling thread; the threaded
        // frontier only ever visits on its scoped workers.
        let caller = std::thread::current().id();
        for threads in [1, 2] {
            let opts = ExploreOptions {
                threads,
                ..por_opts()
            };
            let on_caller = AtomicUsize::new(0);
            let exp =
                explore_monitored_with(3, fan_out(), |_| Immediate, FifoCheck, &opts, &|_| {
                    if std::thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::Relaxed);
                    }
                    true
                });
            assert!(exp.schedules > 0);
            let want = if threads == 1 { exp.schedules } else { 0 };
            assert_eq!(on_caller.into_inner(), want, "threads = {threads}");
        }
    }

    #[test]
    fn non_quiet_faults_disable_por() {
        // Crash/restart (or any fault) invalidates node-locality, so
        // reduction silently degrades to the full search.
        let faults = FaultModel::none().with_crash(1, 1, Some(5));
        let full = ExploreOptions {
            faults: faults.clone(),
            ..ExploreOptions::default()
        };
        let with_por = ExploreOptions {
            por: true,
            faults,
            ..ExploreOptions::default()
        };
        let a = explore_parallel_with(3, fan_out(), |_| Immediate, &full, &|_| true);
        let b = explore_parallel_with(3, fan_out(), |_| Immediate, &with_por, &|_| true);
        assert_eq!(a.schedules, b.schedules, "POR must be inert under faults");
        assert_eq!(b.sleep_skipped, 0);
    }

    #[test]
    #[should_panic(expected = "quiet fault model")]
    fn dedup_with_faults_panics() {
        let opts = ExploreOptions {
            dedup: DedupMode::Exact,
            faults: FaultModel::none().with_crash(0, 1, None),
            ..ExploreOptions::default()
        };
        let _ = explore_parallel_with(2, two_same_channel(), |_| Immediate, &opts, &|_| true);
    }

    #[test]
    fn cap_zero_and_depth_bound_interact_soundly() {
        // cap = 0: truncated before anything completes.
        let opts = ExploreOptions {
            cap: 0,
            por: true,
            ..ExploreOptions::default()
        };
        let exp = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert!(exp.truncated);
        assert_eq!(exp.schedules, 0);
        // max_depth = 1: no schedule of this workload completes in one
        // dispatch, so everything truncates; a deeper bound finishes.
        let shallow = ExploreOptions {
            max_depth: 1,
            por: true,
            ..ExploreOptions::default()
        };
        let exp = explore_parallel_with(3, fan_out(), |_| Immediate, &shallow, &|_| true);
        assert!(exp.truncated);
        assert_eq!(exp.schedules, 0);
        let deep = ExploreOptions {
            max_depth: 64,
            por: true,
            ..ExploreOptions::default()
        };
        let exp = explore_parallel_with(3, fan_out(), |_| Immediate, &deep, &|_| true);
        assert!(!exp.truncated);
        assert!(exp.schedules > 0);
    }

    #[test]
    fn threaded_por_matches_sequential_por() {
        let (seq, seq_runs) = immediate_runs(3, fan_out(), NoMonitor, &por_opts());
        for threads in [2, 4] {
            let opts = ExploreOptions {
                threads,
                ..por_opts()
            };
            let (par, par_runs) = immediate_runs(3, fan_out(), NoMonitor, &opts);
            assert_eq!(par.schedules, seq.schedules, "threads = {threads}");
            assert_eq!(seq_runs, par_runs, "threads = {threads}");
        }
    }

    #[test]
    fn threaded_dedup_counts_terminal_configurations_once() {
        let exact = explore_parallel_with(3, fan_out(), |_| Immediate, &exact_opts(), &|_| true);
        let opts = ExploreOptions {
            por: true,
            threads: 4,
            dedup: DedupMode::Exact,
            ..ExploreOptions::default()
        };
        let par = explore_parallel_with(3, fan_out(), |_| Immediate, &opts, &|_| true);
        assert_eq!(par.schedules, exact.schedules);
        assert!(par.states <= exact.states);
    }
}
