//! Dense bitset over vertex ids.
//!
//! The bottleneck machinery manipulates many subsets of `V` (bottlenecks,
//! neighbor sets, alive masks during the decomposition recursion). A dense
//! `u64`-word bitset keeps those operations cache-friendly and branch-light,
//! and gives O(n/64) unions/intersections instead of hash-set overhead.

use crate::VertexId;
use std::fmt;

/// A subset of the vertices `0..capacity` of a graph (the default is the
/// empty set over no vertices).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct VertexSet {
    words: Vec<u64>,
    capacity: usize,
}

impl VertexSet {
    /// Empty set over `capacity` vertices.
    pub fn empty(capacity: usize) -> Self {
        VertexSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Full set `{0, …, capacity-1}`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::empty(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Set containing exactly the given vertices.
    pub fn from_iter_cap(capacity: usize, iter: impl IntoIterator<Item = VertexId>) -> Self {
        let mut s = Self::empty(capacity);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Number of vertex slots this set ranges over.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add a vertex. Panics if out of range.
    #[inline]
    pub fn insert(&mut self, v: VertexId) {
        assert!(v < self.capacity, "vertex {v} out of range");
        self.words[v / 64] |= 1 << (v % 64);
    }

    /// Remove a vertex.
    #[inline]
    pub fn remove(&mut self, v: VertexId) {
        if v < self.capacity {
            self.words[v / 64] &= !(1 << (v % 64));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        v < self.capacity && (self.words[v / 64] >> (v % 64)) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &VertexSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &VertexSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &VertexSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Fresh union.
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Fresh intersection.
    pub fn intersection(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Fresh difference.
    pub fn difference(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.subtract(other);
        s
    }

    /// True iff the sets share no member.
    pub fn is_disjoint(&self, other: &VertexSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True iff every member of `self` is in `other`.
    pub fn is_subset(&self, other: &VertexSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Collect members into a `Vec`.
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.iter().collect()
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<VertexId> for VertexSet {
    /// Builds a set whose capacity is `max + 1` of the items (or 0 if empty).
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        let items: Vec<VertexId> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        VertexSet::from_iter_cap(cap, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VertexSet::empty(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        // Removing a non-member or out-of-range id is a no-op.
        s.remove(64);
        s.remove(1000);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        VertexSet::empty(4).insert(4);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_iter_cap(100, [1, 2, 3, 70]);
        let b = VertexSet::from_iter_cap(100, [2, 3, 4, 99]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 70, 99]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 70]);
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b.difference(&a)));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn full_and_iter_order() {
        let s = VertexSet::full(67);
        assert_eq!(s.len(), 67);
        let v = s.to_vec();
        assert_eq!(v.first(), Some(&0));
        assert_eq!(v.last(), Some(&66));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn from_iterator_infers_capacity() {
        let s: VertexSet = [3usize, 9, 1].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.to_vec(), vec![1, 3, 9]);
        let e: VertexSet = std::iter::empty().collect();
        assert_eq!(e.capacity(), 0);
        assert!(e.is_empty());
    }
}
