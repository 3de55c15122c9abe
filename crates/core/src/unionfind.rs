//! Disjoint-set union over ASNs.
//!
//! Every Borges feature produces *merge evidence* — pairs or groups of
//! ASNs claimed to share an organization. Reconciling partially
//! overlapping clusters from different sources (§4.1's WHOIS/PeeringDB
//! consolidation, and the feature combinations of Table 6) is transitive
//! closure, i.e. union-find with path compression and union by size.

use borges_types::{Asn, AsnInterner};
use std::collections::BTreeMap;

/// A disjoint-set forest keyed by [`Asn`].
///
/// Elements are added lazily: any ASN mentioned in a union or lookup is a
/// member (initially its own singleton set).
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    index: BTreeMap<Asn, usize>,
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A forest pre-seeded with `universe` as singletons.
    pub fn with_universe(universe: impl IntoIterator<Item = Asn>) -> Self {
        let mut uf = Self::new();
        for asn in universe {
            uf.intern(asn);
        }
        uf
    }

    fn intern(&mut self, asn: Asn) -> usize {
        if let Some(&i) = self.index.get(&asn) {
            return i;
        }
        let i = self.parent.len();
        self.index.insert(asn, i);
        self.parent.push(i);
        self.size.push(1);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]]; // halving
            i = self.parent[i];
        }
        i
    }

    /// Merges the sets of `a` and `b` (adding them if unseen). Returns
    /// `true` when the union actually joined two distinct sets.
    pub fn union(&mut self, a: Asn, b: Asn) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        let (mut ra, mut rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// Merges every ASN in `group` into one set. A single-element group
    /// still registers its member (as a singleton).
    pub fn union_group(&mut self, group: &[Asn]) {
        if let Some(&first) = group.first() {
            self.intern(first);
        }
        for pair in group.windows(2) {
            self.union(pair[0], pair[1]);
        }
    }

    /// Are `a` and `b` currently in the same set? (`false` if either is
    /// unknown.)
    pub fn same_set(&mut self, a: Asn, b: Asn) -> bool {
        match (self.index.get(&a).copied(), self.index.get(&b).copied()) {
            (Some(ia), Some(ib)) => self.find(ia) == self.find(ib),
            _ => false,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when no element was ever added.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Extracts the sets as sorted member lists (deterministic order:
    /// sets sorted by their smallest ASN).
    pub fn into_groups(mut self) -> Vec<Vec<Asn>> {
        let mut by_root: BTreeMap<usize, Vec<Asn>> = BTreeMap::new();
        let entries: Vec<(Asn, usize)> = self.index.iter().map(|(a, i)| (*a, *i)).collect();
        for (asn, i) in entries {
            let root = self.find(i);
            by_root.entry(root).or_default().push(asn);
        }
        let mut groups: Vec<Vec<Asn>> = by_root.into_values().collect();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

/// One worker's accounting from
/// [`DenseUnionFind::union_edge_lists_sharded`]: which dense-id range it
/// owned, how many edges it replayed, and how many survived as spanning
/// evidence for the contraction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    /// Range index (ranges cover `0..len` in `width`-sized strides).
    pub shard: usize,
    /// Same-range edges bucketed into this shard.
    pub edges: usize,
    /// Edges that joined two distinct local sets — the shard's output.
    pub spanning: usize,
    /// Clock reading when the worker picked the shard up.
    pub started_ms: u64,
    /// Clock delta the shard took.
    pub elapsed_ms: u64,
}

/// The full accounting of one sharded replay: per-shard rows plus the
/// final contraction pass. The replay's ledger invariant — checked by
/// the CI scale-equivalence job — is `contraction_edges ==
/// cross_edges + Σ shards[i].spanning`, with every `spanning <= edges`.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Per-shard accounting, in range order.
    pub shards: Vec<ShardTiming>,
    /// Edges whose endpoints fell in different ranges, deferred whole
    /// to the contraction pass.
    pub cross_edges: usize,
    /// Total edges the contraction pass replayed (spanning + cross).
    pub contraction_edges: usize,
    /// Clock reading when the contraction pass started.
    pub contraction_started_ms: u64,
    /// Clock delta of the contraction pass.
    pub contraction_elapsed_ms: u64,
}

/// A disjoint-set forest over the dense ids of a fixed universe.
///
/// Where [`UnionFind`] interns ASNs lazily through a `BTreeMap` (right
/// for ad-hoc evidence probes), `DenseUnionFind` is sized once for an
/// [`AsnInterner`] universe and then never allocates: two flat `Vec`s,
/// path-halving finds, union by size. Cloning is two `memcpy`s, which
/// is what makes the pipeline's replay scheme cheap — the OID_W closure
/// is computed once and cloned per feature combination.
#[derive(Debug, Clone)]
pub struct DenseUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DenseUnionFind {
    /// A forest of `len` singleton sets (ids `0..len`).
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "universe exceeds u32 id space");
        DenseUnionFind {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
        }
    }

    /// Number of elements (fixed at construction).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` for a zero-element forest.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            self.parent[i as usize] = self.parent[self.parent[i as usize] as usize]; // halving
            i = self.parent[i as usize];
        }
        i
    }

    /// Merges the sets of ids `a` and `b`. Returns `true` when the union
    /// actually joined two distinct sets.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }

    /// Replays a batch of merge edges.
    pub fn union_edges(&mut self, edges: &[(u32, u32)]) {
        for &(a, b) in edges {
            self.union(a, b);
        }
    }

    /// Replays several edge lists in order — the sequential twin of
    /// [`DenseUnionFind::union_edge_lists_sharded`].
    pub fn union_edge_lists(&mut self, lists: &[&[(u32, u32)]]) {
        for list in lists {
            self.union_edges(list);
        }
    }

    /// Replays `lists` across up to `shards` concurrent workers,
    /// producing exactly the same final partition as
    /// [`DenseUnionFind::union_edge_lists`].
    ///
    /// The id space `0..len` is partitioned into `shards` equal-width
    /// contiguous ranges. One sequential pass buckets every edge whose
    /// endpoints fall in the same range; the remainder (cross-range
    /// edges) is set aside. Each range's bucket is then unioned into a
    /// *local* forest — sized only for that range — on a worker thread
    /// (ranges are scheduled with the LPT weighted chunker, weight =
    /// bucket edge count, so one hot range cannot serialize the rest),
    /// and each worker emits the spanning subset of its bucket: the
    /// edges whose local union actually joined two sets. The final
    /// contraction pass replays every spanning list (in range order)
    /// plus the cross-range edges into `self`.
    ///
    /// Correctness does not depend on scheduling: connected components
    /// of a union of edge sets are order-independent, and a spanning
    /// subset has the same transitive closure as its bucket, so the
    /// contraction sees evidence equivalent to the full input. `self`
    /// may already hold unions (the pipeline replays feature edges onto
    /// a cloned base closure); locals start from singletons regardless,
    /// which only makes their spanning output a superset of what a
    /// base-aware worker would emit — never less connectivity.
    ///
    /// `now_ms` is the caller's clock (telemetry run clock, or `|| 0`),
    /// sampled around each worker and the contraction; timings are
    /// observational only. With `shards <= 1` (or an empty forest) the
    /// replay runs sequentially and reports a single shard row.
    pub fn union_edge_lists_sharded<N>(
        &mut self,
        lists: &[&[(u32, u32)]],
        shards: usize,
        now_ms: N,
    ) -> ShardReport
    where
        N: Fn() -> u64 + Sync,
    {
        let mut feed = SegmentFeed::new(self.len(), shards);
        for list in lists {
            feed.feed(list);
        }
        feed.finish(self, now_ms)
    }

    /// Are ids `a` and `b` currently in the same set?
    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Flattens the forest into one root id per element: `roots[a] ==
    /// roots[b]` iff `a` and `b` are in the same set. A read-only table
    /// for callers that query many pairs after the last union — each
    /// query becomes one compare instead of two finds.
    pub(crate) fn into_roots(mut self) -> Vec<u32> {
        for i in 0..self.len() as u32 {
            let root = self.find(i);
            self.parent[i as usize] = root;
        }
        self.parent
    }

    /// Replays everything a [`SegmentFeed`] accumulated — convenience
    /// for `feed.finish(&mut uf, now_ms)`.
    pub fn union_segment_feed<N>(&mut self, feed: SegmentFeed, now_ms: N) -> ShardReport
    where
        N: Fn() -> u64 + Sync,
    {
        feed.finish(self, now_ms)
    }

    /// Extracts the sets as sorted ASN member lists via `interner`
    /// (which must be the universe this forest was sized for), in the
    /// same canonical order as [`UnionFind::into_groups`]: members
    /// ascending, groups ordered by their smallest ASN.
    ///
    /// Because fresh interner ids follow ascending ASN order, one pass
    /// over `0..len` builds every group already sorted — no per-group
    /// sort. Tombstoned slots are skipped: a retired ASN is edge-free by
    /// construction (`AsnInterner::id` filters it out of every edge
    /// list), so skipping it only drops its singleton. For an interner
    /// that has *appended* slots the slot order is no longer globally
    /// sorted, so group/member order is not canonical here; the one
    /// consumer on that path (`AsOrgMapping::from_groups`) re-sorts.
    pub fn into_groups(mut self, interner: &AsnInterner) -> Vec<Vec<Asn>> {
        assert_eq!(
            self.len(),
            interner.len(),
            "interner/forest universe mismatch"
        );
        let n = self.len() as u32;
        // First visit of each root (in ascending ASN order) fixes its
        // group's position, which is exactly smallest-ASN order.
        let mut group_of_root: Vec<u32> = vec![u32::MAX; self.len()];
        let mut groups: Vec<Vec<Asn>> = Vec::new();
        for id in 0..n {
            if !interner.is_live(id) {
                continue;
            }
            let root = self.find(id) as usize;
            let slot = if group_of_root[root] == u32::MAX {
                group_of_root[root] = groups.len() as u32;
                groups.push(Vec::with_capacity(self.size[root] as usize));
                groups.len() - 1
            } else {
                group_of_root[root] as usize
            };
            groups[slot].push(interner.asn(id));
        }
        groups
    }
}

/// Incrementally buckets merge edges for a sharded replay into a
/// [`DenseUnionFind`] — the streaming-ingest seam of the union layer.
///
/// The batch entry point ([`DenseUnionFind::union_edge_lists_sharded`])
/// buckets every edge in one pass because it has every edge up front.
/// A streaming consumer does not: evidence segments arrive one record
/// at a time while later fetches are still in flight. `SegmentFeed`
/// accepts those segments as they arrive ([`SegmentFeed::feed`]),
/// bucketing each edge into its id range (or the cross-range pile)
/// immediately — cheap, allocation-amortized work that overlaps with
/// I/O — and defers the actual union work to [`SegmentFeed::finish`],
/// which runs the same worker fan-out and contraction pass as the
/// batch path.
///
/// Determinism: bucketing is a pure function of each edge, so the
/// bucket contents (in feed order) are identical to what the batch
/// pass would have produced from the concatenated lists — which is why
/// `union_edge_lists_sharded` itself now delegates here. Feed order
/// must be canonical (the streaming reassembly buffer guarantees it),
/// and then the final partition is bit-for-bit the batch partition.
#[derive(Debug, Clone)]
pub struct SegmentFeed {
    /// Universe size the target forest was built for.
    len: usize,
    /// Worker cap for the finish pass.
    shards: usize,
    /// Range width (0 in the sequential degenerate case).
    width: usize,
    /// Same-range edges per range (empty in the sequential case, where
    /// everything lands in `cross`).
    buckets: Vec<Vec<(u32, u32)>>,
    /// Cross-range edges (sequential case: all edges, in feed order).
    cross: Vec<(u32, u32)>,
    /// Total edges fed.
    fed: usize,
}

impl SegmentFeed {
    /// A feed for a forest of `len` ids, replaying across up to
    /// `shards` workers on finish. With `shards <= 1` or an empty
    /// forest the finish pass is sequential (one shard row, matching
    /// the batch path's degenerate case).
    pub fn new(len: usize, shards: usize) -> Self {
        let sequential = shards <= 1 || len == 0;
        let width = if sequential { 0 } else { len.div_ceil(shards) };
        let range_count = if sequential { 0 } else { len.div_ceil(width) };
        SegmentFeed {
            len,
            shards,
            width,
            buckets: vec![Vec::new(); range_count],
            cross: Vec::new(),
            fed: 0,
        }
    }

    /// Buckets one segment's edges. Order across calls is preserved
    /// within every bucket, so feeding lists one at a time is
    /// equivalent to feeding their concatenation.
    pub fn feed(&mut self, edges: &[(u32, u32)]) {
        self.fed += edges.len();
        if self.width == 0 {
            self.cross.extend_from_slice(edges);
            return;
        }
        for &(a, b) in edges {
            let (ra, rb) = (a as usize / self.width, b as usize / self.width);
            if ra == rb {
                self.buckets[ra].push((a, b));
            } else {
                self.cross.push((a, b));
            }
        }
    }

    /// Total edges fed so far.
    pub fn fed_edges(&self) -> usize {
        self.fed
    }

    /// Replays everything into `uf` — per-range local unions on up to
    /// `shards` workers, then the contraction pass — and reports the
    /// same ledger as [`DenseUnionFind::union_edge_lists_sharded`].
    ///
    /// `uf` must be sized for the `len` this feed was built with.
    pub fn finish<N>(self, uf: &mut DenseUnionFind, now_ms: N) -> ShardReport
    where
        N: Fn() -> u64 + Sync,
    {
        assert_eq!(uf.len(), self.len, "feed/forest universe mismatch");
        if self.width == 0 {
            // Sequential degenerate case: every edge sits in `cross`,
            // in feed order.
            let started_ms = now_ms();
            uf.union_edges(&self.cross);
            let elapsed_ms = now_ms().saturating_sub(started_ms);
            return ShardReport {
                shards: vec![ShardTiming {
                    shard: 0,
                    edges: self.fed,
                    spanning: 0,
                    started_ms,
                    elapsed_ms,
                }],
                cross_edges: 0,
                contraction_edges: 0,
                contraction_started_ms: started_ms,
                contraction_elapsed_ms: elapsed_ms,
            };
        }

        let SegmentFeed {
            len: n,
            shards,
            width,
            buckets,
            cross,
            ..
        } = self;
        let ranges: Vec<usize> = (0..buckets.len()).collect();
        let shard_results: Vec<(Vec<(u32, u32)>, ShardTiming)> =
            borges_parallel::map_items_weighted(
                &ranges,
                shards,
                |&r| buckets[r].len() as u64,
                |&r| {
                    let started_ms = now_ms();
                    let lo = (r * width) as u32;
                    let hi = ((r + 1) * width).min(n) as u32;
                    let mut local = DenseUnionFind::new((hi - lo) as usize);
                    let mut spanning = Vec::new();
                    for &(a, b) in &buckets[r] {
                        if local.union(a - lo, b - lo) {
                            spanning.push((a, b));
                        }
                    }
                    let timing = ShardTiming {
                        shard: r,
                        edges: buckets[r].len(),
                        spanning: spanning.len(),
                        started_ms,
                        elapsed_ms: now_ms().saturating_sub(started_ms),
                    };
                    (spanning, timing)
                },
            );

        let contraction_started_ms = now_ms();
        let mut contraction_edges = cross.len();
        for (spanning, _) in &shard_results {
            contraction_edges += spanning.len();
            uf.union_edges(spanning);
        }
        uf.union_edges(&cross);
        ShardReport {
            shards: shard_results.into_iter().map(|(_, t)| t).collect(),
            cross_edges: cross.len(),
            contraction_edges,
            contraction_started_ms,
            contraction_elapsed_ms: now_ms().saturating_sub(contraction_started_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn singletons_until_unioned() {
        let mut uf = UnionFind::with_universe([a(1), a(2), a(3)]);
        assert!(!uf.same_set(a(1), a(2)));
        assert!(uf.union(a(1), a(2)));
        assert!(uf.same_set(a(1), a(2)));
        assert!(!uf.same_set(a(1), a(3)));
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new();
        assert!(uf.union(a(1), a(2)));
        assert!(!uf.union(a(1), a(2)));
        assert!(!uf.union(a(2), a(1)));
    }

    #[test]
    fn transitivity() {
        let mut uf = UnionFind::new();
        uf.union(a(1), a(2));
        uf.union(a(2), a(3));
        uf.union(a(4), a(5));
        assert!(uf.same_set(a(1), a(3)));
        assert!(!uf.same_set(a(3), a(4)));
    }

    #[test]
    fn union_group_links_everything() {
        let mut uf = UnionFind::new();
        uf.union_group(&[a(1), a(2), a(3), a(4)]);
        assert!(uf.same_set(a(1), a(4)));
        uf.union_group(&[a(9)]);
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn unknown_elements_are_never_same_set() {
        let mut uf = UnionFind::new();
        uf.union(a(1), a(2));
        assert!(!uf.same_set(a(1), a(99)));
        assert!(!uf.same_set(a(98), a(99)));
    }

    #[test]
    fn groups_are_sorted_and_complete() {
        let mut uf = UnionFind::with_universe([a(10), a(5), a(7), a(1)]);
        uf.union(a(10), a(1));
        let groups = uf.into_groups();
        assert_eq!(groups, vec![vec![a(1), a(10)], vec![a(5)], vec![a(7)]]);
    }

    #[test]
    fn large_chain_has_flat_depth_behaviour() {
        // Sanity/perf guard: a 100k-element chain must resolve instantly.
        let mut uf = UnionFind::new();
        for i in 1..100_000u32 {
            uf.union(a(i), a(i + 1));
        }
        assert!(uf.same_set(a(1), a(100_000)));
        assert_eq!(uf.into_groups().len(), 1);
    }

    #[test]
    fn order_of_unions_does_not_change_groups() {
        let mut uf1 = UnionFind::new();
        uf1.union(a(1), a(2));
        uf1.union(a(3), a(4));
        uf1.union(a(2), a(3));
        let mut uf2 = UnionFind::new();
        uf2.union(a(2), a(3));
        uf2.union(a(3), a(4));
        uf2.union(a(1), a(2));
        assert_eq!(uf1.into_groups(), uf2.into_groups());
    }

    #[test]
    fn dense_union_and_same_set() {
        let mut uf = DenseUnionFind::new(5);
        assert!(uf.union(0, 3));
        assert!(!uf.union(3, 0));
        assert!(uf.same_set(0, 3));
        assert!(!uf.same_set(0, 1));
        uf.union_edges(&[(1, 2), (2, 4)]);
        assert!(uf.same_set(1, 4));
        assert!(!uf.same_set(0, 4));
    }

    #[test]
    fn dense_groups_match_sparse_groups() {
        // Same universe, same edges, through both implementations.
        let universe: Vec<Asn> = [17, 3, 99, 41, 8, 23].map(a).to_vec();
        let interner = AsnInterner::new(universe.iter().copied());
        let edges = [(a(3), a(99)), (a(41), a(8)), (a(8), a(3))];

        let mut sparse = UnionFind::with_universe(universe.iter().copied());
        let mut dense = DenseUnionFind::new(interner.len());
        for &(x, y) in &edges {
            sparse.union(x, y);
            dense.union(interner.id(x).unwrap(), interner.id(y).unwrap());
        }
        assert_eq!(dense.into_groups(&interner), sparse.into_groups());
    }

    #[test]
    fn dense_groups_are_canonically_ordered() {
        let interner = AsnInterner::new([10, 20, 30, 40].map(a));
        let mut uf = DenseUnionFind::new(4);
        // Merge 40 into 20's set; group order must still follow the
        // smallest member (10 first, then {20, 40}, then 30).
        uf.union(interner.id(a(40)).unwrap(), interner.id(a(20)).unwrap());
        let groups = uf.into_groups(&interner);
        assert_eq!(groups, vec![vec![a(10)], vec![a(20), a(40)], vec![a(30)]]);
    }

    #[test]
    fn dense_clone_then_replay_is_independent() {
        // The pipeline's replay scheme: base closure cloned per feature
        // combination, each replay isolated from the others.
        let mut base = DenseUnionFind::new(6);
        base.union(0, 1);
        let mut with_extra = base.clone();
        with_extra.union(2, 3);
        assert!(with_extra.same_set(2, 3));
        assert!(!base.same_set(2, 3), "clone must not leak back");
        assert!(base.same_set(0, 1));
    }

    #[test]
    fn dense_groups_skip_tombstoned_slots() {
        let mut interner = AsnInterner::new([10, 20, 30].map(a));
        interner.retire(a(20));
        interner.append(a(5)); // slot 3, breaking sorted slot order
        let mut uf = DenseUnionFind::new(interner.len());
        uf.union(interner.id(a(10)).unwrap(), interner.id(a(5)).unwrap());
        let groups = uf.into_groups(&interner);
        // The dead slot's singleton vanishes; appended members appear.
        assert_eq!(groups, vec![vec![a(10), a(5)], vec![a(30)]]);
    }

    #[test]
    fn dense_roots_agree_with_same_set() {
        let edges = edge_soup(200, 150, 19);
        let mut uf = DenseUnionFind::new(200);
        uf.union_edges(&edges);
        let roots = uf.clone().into_roots();
        assert_eq!(roots.len(), 200);
        for a in 0..200u32 {
            let root = roots[a as usize];
            assert_eq!(roots[root as usize], root, "{root} is not a root");
            for b in (0..200u32).step_by(7) {
                let same = root == roots[b as usize];
                assert_eq!(same, uf.same_set(a, b), "ids {a} and {b}");
            }
        }
        assert!(DenseUnionFind::new(0).into_roots().is_empty());
    }

    #[test]
    fn dense_empty_forest() {
        let uf = DenseUnionFind::new(0);
        assert!(uf.is_empty());
        let interner = AsnInterner::new([]);
        assert!(uf.into_groups(&interner).is_empty());
    }

    /// Pseudo-random edge soup over `n` ids, deterministic in `salt`.
    fn edge_soup(n: u32, count: usize, salt: u64) -> Vec<(u32, u32)> {
        let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32))
            .collect()
    }

    fn groups_of(n: usize, lists: &[&[(u32, u32)]]) -> Vec<Vec<Asn>> {
        let interner = AsnInterner::new((0..n as u32).map(|i| a(i + 1)));
        let mut uf = DenseUnionFind::new(n);
        uf.union_edge_lists(lists);
        uf.into_groups(&interner)
    }

    fn sharded_groups_of(n: usize, lists: &[&[(u32, u32)]], shards: usize) -> Vec<Vec<Asn>> {
        let interner = AsnInterner::new((0..n as u32).map(|i| a(i + 1)));
        let mut uf = DenseUnionFind::new(n);
        let report = uf.union_edge_lists_sharded(lists, shards, || 0);
        let spanning: usize = report.shards.iter().map(|t| t.spanning).sum();
        assert_eq!(
            report.contraction_edges,
            report.cross_edges + spanning,
            "shard ledger out of balance"
        );
        for t in &report.shards {
            assert!(t.spanning <= t.edges, "spanning exceeds bucket");
        }
        uf.into_groups(&interner)
    }

    #[test]
    fn sharded_matches_sequential_across_shard_counts() {
        let n = 500;
        let soup = edge_soup(n as u32, 2000, 7);
        let (left, right) = soup.split_at(900);
        let lists: Vec<&[(u32, u32)]> = vec![left, right];
        let expected = groups_of(n, &lists);
        for shards in [1, 2, 3, 7, 16, 64, 499, 500, 1000] {
            assert_eq!(
                sharded_groups_of(n, &lists, shards),
                expected,
                "diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn sharded_handles_empty_shard() {
        // All edges land in the first range; every other shard's bucket
        // is empty and its worker is a no-op.
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let lists: Vec<&[(u32, u32)]> = vec![&edges];
        let expected = groups_of(100, &lists);
        assert_eq!(sharded_groups_of(100, &lists, 8), expected);
    }

    #[test]
    fn sharded_single_shard_is_sequential() {
        let soup = edge_soup(64, 100, 3);
        let lists: Vec<&[(u32, u32)]> = vec![&soup];
        let mut uf = DenseUnionFind::new(64);
        let report = uf.union_edge_lists_sharded(&lists, 1, || 0);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].edges, 100);
        assert_eq!(report.cross_edges, 0);
        let interner = AsnInterner::new((0..64).map(|i| a(i + 1)));
        assert_eq!(uf.into_groups(&interner), groups_of(64, &lists));
    }

    #[test]
    fn sharded_cross_only_edges_defer_to_contraction() {
        // With width 1 per range every edge is cross-range: locals do
        // nothing, the contraction pass does everything.
        let edges: Vec<(u32, u32)> = vec![(0, 3), (1, 2), (2, 3)];
        let lists: Vec<&[(u32, u32)]> = vec![&edges];
        let expected = groups_of(4, &lists);
        let interner = AsnInterner::new((0..4).map(|i| a(i + 1)));
        let mut uf = DenseUnionFind::new(4);
        let report = uf.union_edge_lists_sharded(&lists, 4, || 0);
        assert_eq!(report.cross_edges, 3);
        assert_eq!(report.shards.iter().map(|t| t.edges).sum::<usize>(), 0);
        assert_eq!(uf.into_groups(&interner), expected);
    }

    #[test]
    fn sharded_replay_onto_nonsingleton_base_matches() {
        // The pipeline replays feature edges onto a cloned base closure:
        // the base already holds unions when the sharded replay runs.
        let base_edges: Vec<(u32, u32)> = edge_soup(200, 150, 11);
        let feature_edges: Vec<(u32, u32)> = edge_soup(200, 300, 13);
        let interner = AsnInterner::new((0..200).map(|i| a(i + 1)));

        let mut seq = DenseUnionFind::new(200);
        seq.union_edges(&base_edges);
        let mut sharded = seq.clone();

        seq.union_edges(&feature_edges);
        let lists: Vec<&[(u32, u32)]> = vec![&feature_edges];
        sharded.union_edge_lists_sharded(&lists, 4, || 0);
        assert_eq!(sharded.into_groups(&interner), seq.into_groups(&interner));
    }

    #[test]
    fn sharded_empty_forest_and_empty_lists() {
        let mut uf = DenseUnionFind::new(0);
        let report = uf.union_edge_lists_sharded(&[], 8, || 0);
        assert_eq!(report.shards.len(), 1, "degenerate case reports one row");
        let mut uf = DenseUnionFind::new(10);
        let report = uf.union_edge_lists_sharded(&[], 4, || 0);
        assert_eq!(report.contraction_edges, 0);
        let interner = AsnInterner::new((0..10).map(|i| a(i + 1)));
        assert_eq!(uf.into_groups(&interner).len(), 10);
    }

    #[test]
    fn segment_feed_incremental_matches_batch() {
        // Feeding one record's segment at a time (the streaming shape)
        // must produce the same partition as the one-shot batch replay,
        // at every shard count.
        let n = 300;
        let soup = edge_soup(n as u32, 1200, 17);
        let lists: Vec<&[(u32, u32)]> = vec![&soup];
        let expected = groups_of(n, &lists);
        let interner = AsnInterner::new((0..n as u32).map(|i| a(i + 1)));
        for shards in [1, 2, 4, 16, 299] {
            let mut feed = SegmentFeed::new(n, shards);
            for record in soup.chunks(7) {
                feed.feed(record);
            }
            assert_eq!(feed.fed_edges(), soup.len());
            let mut uf = DenseUnionFind::new(n);
            let report = uf.union_segment_feed(feed, || 0);
            let spanning: usize = report.shards.iter().map(|t| t.spanning).sum();
            assert_eq!(
                report.contraction_edges,
                report.cross_edges + spanning,
                "feed ledger out of balance at {shards} shards"
            );
            assert_eq!(
                uf.into_groups(&interner),
                expected,
                "diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn segment_feed_empty_and_sequential_degenerates() {
        let mut uf = DenseUnionFind::new(0);
        let report = SegmentFeed::new(0, 8).finish(&mut uf, || 0);
        assert_eq!(report.shards.len(), 1);

        let mut feed = SegmentFeed::new(10, 1);
        feed.feed(&[(0, 9), (1, 2)]);
        let mut uf = DenseUnionFind::new(10);
        let report = feed.finish(&mut uf, || 0);
        assert_eq!(report.shards[0].edges, 2);
        assert_eq!(report.cross_edges, 0, "sequential path reports no cross");
        assert!(uf.same_set(0, 9));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn segment_feed_rejects_wrong_universe() {
        let mut uf = DenseUnionFind::new(5);
        SegmentFeed::new(6, 2).finish(&mut uf, || 0);
    }

    #[test]
    fn sharded_timings_use_the_injected_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ticks = AtomicU64::new(0);
        let soup = edge_soup(100, 200, 5);
        let lists: Vec<&[(u32, u32)]> = vec![&soup];
        let mut uf = DenseUnionFind::new(100);
        let report =
            uf.union_edge_lists_sharded(&lists, 4, || ticks.fetch_add(1, Ordering::Relaxed));
        for t in &report.shards {
            assert!(t.started_ms < t.started_ms + 1); // clock sampled
        }
        assert!(
            report.contraction_started_ms > 0,
            "contraction after shards"
        );
    }
}
