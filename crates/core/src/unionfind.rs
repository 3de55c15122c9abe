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
}
