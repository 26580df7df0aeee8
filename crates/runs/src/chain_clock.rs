//! The chain-clock index behind [`UserRun`](crate::UserRun): `a ▷ b`
//! in one lookup, the Hasse diagram in `O(n · w²)`, and the per-chain
//! prefixes the limit-set checks scan.

use std::collections::BTreeMap;

/// Adjacency lists of a graph over nodes `0..n`, packed into one array.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    /// `targets[start[u]..start[u + 1]]` are `u`'s neighbours.
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Packs the edges `u → v` by source (parallel edges kept; each
    /// node's neighbours in reverse edge order).
    pub(crate) fn new<I>(n: usize, edges: I) -> Self
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        // Count, turn the counts into range ends, then fill each range
        // from its end: afterwards start[u] is where u's range begins.
        let mut start = vec![0u32; n + 1];
        for (u, _) in edges.clone() {
            start[u] += 1;
        }
        for u in 1..=n {
            start[u] += start[u - 1];
        }
        let mut targets = vec![0u32; start[n] as usize];
        for (u, v) in edges {
            start[u] -= 1;
            targets[start[u] as usize] = v as u32;
        }
        Adjacency { start, targets }
    }

    /// The neighbours of `u`.
    pub(crate) fn of(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.targets[self.start[u] as usize..self.start[u + 1] as usize]
            .iter()
            .map(|&v| v as usize)
    }
}

/// A topological order of the graph over nodes `0..n` with successors
/// `succ(u)` (Kahn), or `None` if it is cyclic.
pub(crate) fn topological_order<I>(n: usize, succ: impl Fn(usize) -> I) -> Option<Vec<usize>>
where
    I: Iterator<Item = usize>,
{
    let mut indeg = vec![0u32; n];
    for v in (0..n).flat_map(&succ) {
        indeg[v] += 1;
    }
    let mut order: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut next = 0;
    while let Some(&u) = order.get(next) {
        next += 1;
        for v in succ(u) {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                order.push(v);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// A strict partial order on nodes `0..n`, covered by `w` chains
/// (totally ordered subsets); every node stores, per chain, how many of
/// that chain's nodes lie at or below it.
#[derive(Debug, Clone)]
pub(crate) struct ChainClock {
    /// The number of chains `w`.
    width: usize,
    /// Chain of each node.
    chain: Vec<u32>,
    /// `clocks[v * w + c]`: nodes of chain `c` at or below node `v`.
    clocks: Vec<u32>,
    /// Chain `c` is `nodes[starts[c]..starts[c + 1]]`, in order.
    starts: Vec<u32>,
    nodes: Vec<u32>,
}

impl ChainClock {
    /// The clock index of an acyclic graph given by its predecessor
    /// lists `preds`, visited in the topological order `topo`, with
    /// `process(v)` naming the process node `v` occurs at.
    ///
    /// A node extends its process's current chain when that chain's
    /// tail lies below it, and opens a new chain otherwise. Each process
    /// of a projected run is totally ordered, so there every node
    /// extends its process's chain and the chains are exactly the
    /// process sequences. (Taking over another process's chain instead
    /// would let that process's next node find its chain's tail
    /// unrelated to it.)
    ///
    /// A node's clock is the entrywise maximum of its predecessors'
    /// clocks plus itself. Chain `c`'s tail lies below node `v` exactly
    /// when that maximum already counts the whole chain — an `O(1)`
    /// test. Rows grow with the chain count while the cover is built, so
    /// they are kept ragged and padded to the final width at the end.
    pub(crate) fn new(preds: &Adjacency, topo: &[usize], process: impl Fn(usize) -> usize) -> Self {
        let n = topo.len();
        let mut chain = vec![0u32; n];
        // Nodes on each chain so far.
        let mut chain_len: Vec<u32> = Vec::new();
        // Keyed by process id, which need not be small in a deserialized run.
        let mut process_chain: BTreeMap<usize, usize> = BTreeMap::new();
        // Ragged rows: with span[v] = (start, len), node v's clock is
        // ragged[start..start + len].
        let mut ragged: Vec<u32> = Vec::new();
        let mut span = vec![(0usize, 0usize); n];
        let mut merged: Vec<u32> = Vec::new();
        for &v in topo {
            merged.clear();
            merged.resize(chain_len.len(), 0);
            for u in preds.of(v) {
                let (start, len) = span[u];
                for (slot, &k) in merged.iter_mut().zip(&ragged[start..start + len]) {
                    *slot = (*slot).max(k);
                }
            }
            let c = match process_chain.get(&process(v)) {
                Some(&c) if merged[c] == chain_len[c] => c,
                _ => {
                    chain_len.push(0);
                    merged.push(0);
                    process_chain.insert(process(v), chain_len.len() - 1);
                    chain_len.len() - 1
                }
            };
            chain[v] = c as u32;
            chain_len[c] += 1;
            merged[c] = chain_len[c];
            span[v] = (ragged.len(), merged.len());
            ragged.extend_from_slice(&merged);
        }
        let w = chain_len.len();
        let mut clocks = vec![0u32; n * w];
        for (v, &(start, len)) in span.iter().enumerate() {
            clocks[v * w..v * w + len].copy_from_slice(&ragged[start..start + len]);
        }
        let mut starts = vec![0u32; w + 1];
        for c in 0..w {
            starts[c + 1] = starts[c] + chain_len[c];
        }
        let mut nodes = vec![0u32; n];
        for v in 0..n {
            let c = chain[v] as usize;
            nodes[(starts[c] + clocks[v * w + c] - 1) as usize] = v as u32;
        }
        ChainClock {
            width: w,
            chain,
            clocks,
            starts,
            nodes,
        }
    }

    /// The number of chains `w`.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Whether `a` lies strictly below `b`: `a ≠ b` and `b`'s clock
    /// counts `a`'s chain up to and including `a`.
    pub(crate) fn before(&self, a: usize, b: usize) -> bool {
        let (w, c) = (self.width, self.chain[a] as usize);
        a != b && self.clocks[b * w + c] >= self.clocks[a * w + c]
    }

    /// Per chain, how many of its nodes lie at or below node `v`.
    pub(crate) fn clock(&self, v: usize) -> &[u32] {
        let w = self.width;
        &self.clocks[v * w..(v + 1) * w]
    }

    /// The chain of node `v` and its position on it.
    pub(crate) fn chain_pos(&self, v: usize) -> (usize, usize) {
        let c = self.chain[v] as usize;
        (c, self.clock(v)[c] as usize - 1)
    }

    /// The nodes of chain `c`, in order.
    pub(crate) fn chain_nodes(&self, c: usize) -> &[u32] {
        &self.nodes[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// The last node of chain `c` strictly below node `v`, if any: the
    /// strict down-set of `v` meets every chain in a prefix.
    pub(crate) fn last_below(&self, v: usize, c: usize) -> Option<usize> {
        let k = self.clock(v)[c] as usize - usize::from(self.chain[v] as usize == c);
        k.checked_sub(1).map(|i| self.chain_nodes(c)[i] as usize)
    }

    /// The covering pairs `(u, v)` of the order, sorted. The lower
    /// covers of `v` are the maximal elements of its strict down-set,
    /// and every element of that set lies at or below one of the `w`
    /// [`last_below`](Self::last_below) nodes, so they are the maximal
    /// ones among those: `O(n · w²)` in all.
    pub(crate) fn covers(&self) -> Vec<(usize, usize)> {
        let mut covers = Vec::new();
        let mut below: Vec<usize> = Vec::with_capacity(self.width);
        for v in 0..self.chain.len() {
            below.clear();
            below.extend((0..self.width).filter_map(|c| self.last_below(v, c)));
            for &u in &below {
                if !below.iter().any(|&t| self.before(u, t)) {
                    covers.push((u, v));
                }
            }
        }
        covers.sort_unstable();
        covers
    }
}
