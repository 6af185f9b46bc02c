//! A red-black tree implemented from scratch — the baseline set data
//! structure of the paper's Section 8.3 ("Red-black trees are typically
//! used to implement a set", citing Guibas & Sedgewick).
//!
//! The implementation is an index-based (arena) tree: nodes live in a
//! `Vec` and children/parents are indices, which keeps the rebalancing
//! logic free of raw pointers and `Rc<RefCell>` overhead. Insertion and
//! deletion implement the classic CLRS fixup algorithms; the invariants
//! (root black, no red-red edges, equal black heights) are checked by an
//! internal validator used heavily in tests.
//!
//! The tree also counts node visits so the application study can convert
//! traversal work into time with the `ambit-sys` CPU model.

use std::cell::Cell;
use std::cmp::Ordering;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    key: T,
    color: Color,
    parent: usize,
    left: usize,
    right: usize,
}

/// An ordered set implemented as a red-black tree.
///
/// # Examples
///
/// ```
/// use ambit_apps::RbTree;
///
/// let mut set = RbTree::new();
/// for k in [5, 1, 9, 3] {
///     set.insert(k);
/// }
/// assert!(set.contains(&3));
/// assert!(!set.contains(&4));
/// assert_eq!(set.iter().copied().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct RbTree<T> {
    nodes: Vec<Node<T>>,
    root: usize,
    len: usize,
    /// Free list of recycled node slots.
    free: Vec<usize>,
    /// Count of node visits (comparisons/links followed), for cost models.
    visits: Cell<u64>,
}

impl<T: Ord> RbTree<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        RbTree {
            nodes: Vec::new(),
            root: NIL,
            len: 0,
            free: Vec::new(),
            visits: Cell::new(0),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node visits performed so far (for traversal cost accounting).
    pub fn visits(&self) -> u64 {
        self.visits.get()
    }

    /// Resets the visit counter.
    pub fn reset_visits(&self) {
        self.visits.set(0);
    }

    fn visit(&self) {
        self.visits.set(self.visits.get() + 1);
    }

    /// Returns `true` if `key` is in the set.
    pub fn contains(&self, key: &T) -> bool {
        let mut x = self.root;
        while x != NIL {
            self.visit();
            match key.cmp(&self.nodes[x].key) {
                Ordering::Equal => return true,
                Ordering::Less => x = self.nodes[x].left,
                Ordering::Greater => x = self.nodes[x].right,
            }
        }
        false
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&mut self, key: T) -> bool {
        // Standard BST descent.
        let mut parent = NIL;
        let mut x = self.root;
        while x != NIL {
            self.visit();
            parent = x;
            match key.cmp(&self.nodes[x].key) {
                Ordering::Equal => return false,
                Ordering::Less => x = self.nodes[x].left,
                Ordering::Greater => x = self.nodes[x].right,
            }
        }
        let z = self.alloc(Node {
            key,
            color: Color::Red,
            parent,
            left: NIL,
            right: NIL,
        });
        if parent == NIL {
            self.root = z;
        } else if self.nodes[z].key < self.nodes[parent].key {
            self.nodes[parent].left = z;
        } else {
            self.nodes[parent].right = z;
        }
        self.len += 1;
        self.insert_fixup(z);
        true
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &T) -> bool {
        let mut z = self.root;
        while z != NIL {
            self.visit();
            match key.cmp(&self.nodes[z].key) {
                Ordering::Equal => break,
                Ordering::Less => z = self.nodes[z].left,
                Ordering::Greater => z = self.nodes[z].right,
            }
        }
        if z == NIL {
            return false;
        }
        self.delete_node(z);
        self.len -= 1;
        true
    }

    /// In-order iterator over the elements.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut stack = Vec::new();
        let mut x = self.root;
        while x != NIL {
            stack.push(x);
            x = self.nodes[x].left;
        }
        Iter { tree: self, stack }
    }

    /// Builds a set from the union of `self` and `other` (new tree).
    pub fn union(&self, other: &RbTree<T>) -> RbTree<T>
    where
        T: Clone,
    {
        let mut out = RbTree::new();
        for k in self.iter() {
            out.insert(k.clone());
        }
        for k in other.iter() {
            out.insert(k.clone());
        }
        out
    }

    /// Builds a set from the intersection of `self` and `other`.
    pub fn intersection(&self, other: &RbTree<T>) -> RbTree<T>
    where
        T: Clone,
    {
        let mut out = RbTree::new();
        for k in self.iter() {
            if other.contains(k) {
                out.insert(k.clone());
            }
        }
        out
    }

    /// Builds a set from the elements of `self` not in `other`.
    pub fn difference(&self, other: &RbTree<T>) -> RbTree<T>
    where
        T: Clone,
    {
        let mut out = RbTree::new();
        for k in self.iter() {
            if !other.contains(k) {
                out.insert(k.clone());
            }
        }
        out
    }

    /// Validates the red-black invariants; returns the black height.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any invariant is violated. Intended
    /// for tests.
    pub fn check_invariants(&self) -> usize {
        if self.root == NIL {
            return 0;
        }
        assert!(
            self.nodes[self.root].color == Color::Black,
            "root must be black"
        );
        assert_eq!(self.nodes[self.root].parent, NIL, "root has no parent");
        let (black_height, count) = self.check_subtree(self.root);
        assert_eq!(count, self.len, "node count mismatch");
        black_height
    }

    fn check_subtree(&self, x: usize) -> (usize, usize) {
        if x == NIL {
            return (1, 0);
        }
        let n = &self.nodes[x];
        if n.color == Color::Red {
            for child in [n.left, n.right] {
                assert!(
                    child == NIL || self.nodes[child].color == Color::Black,
                    "red node has red child"
                );
            }
        }
        for child in [n.left, n.right] {
            if child != NIL {
                assert_eq!(self.nodes[child].parent, x, "broken parent link");
            }
        }
        if n.left != NIL {
            assert!(self.nodes[n.left].key < n.key, "BST order violated");
        }
        if n.right != NIL {
            assert!(self.nodes[n.right].key > n.key, "BST order violated");
        }
        let (bl, cl) = self.check_subtree(n.left);
        let (br, cr) = self.check_subtree(n.right);
        assert_eq!(bl, br, "black heights differ");
        let this_black = if n.color == Color::Black { 1 } else { 0 };
        (bl + this_black, cl + cr + 1)
    }

    // ----- internal machinery -----

    fn alloc(&mut self, node: Node<T>) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn color(&self, x: usize) -> Color {
        if x == NIL {
            Color::Black
        } else {
            self.nodes[x].color
        }
    }

    fn set_color(&mut self, x: usize, c: Color) {
        if x != NIL {
            self.nodes[x].color = c;
        }
    }

    fn left_rotate(&mut self, x: usize) {
        let y = self.nodes[x].right;
        debug_assert_ne!(y, NIL);
        let y_left = self.nodes[y].left;
        self.nodes[x].right = y_left;
        if y_left != NIL {
            self.nodes[y_left].parent = x;
        }
        let xp = self.nodes[x].parent;
        self.nodes[y].parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.nodes[xp].left == x {
            self.nodes[xp].left = y;
        } else {
            self.nodes[xp].right = y;
        }
        self.nodes[y].left = x;
        self.nodes[x].parent = y;
    }

    fn right_rotate(&mut self, x: usize) {
        let y = self.nodes[x].left;
        debug_assert_ne!(y, NIL);
        let y_right = self.nodes[y].right;
        self.nodes[x].left = y_right;
        if y_right != NIL {
            self.nodes[y_right].parent = x;
        }
        let xp = self.nodes[x].parent;
        self.nodes[y].parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.nodes[xp].left == x {
            self.nodes[xp].left = y;
        } else {
            self.nodes[xp].right = y;
        }
        self.nodes[y].right = x;
        self.nodes[x].parent = y;
    }

    fn insert_fixup(&mut self, mut z: usize) {
        while self.color(self.nodes[z].parent) == Color::Red {
            let parent = self.nodes[z].parent;
            let grand = self.nodes[parent].parent;
            if grand == NIL {
                break;
            }
            if parent == self.nodes[grand].left {
                let uncle = self.nodes[grand].right;
                if self.color(uncle) == Color::Red {
                    self.set_color(parent, Color::Black);
                    self.set_color(uncle, Color::Black);
                    self.set_color(grand, Color::Red);
                    z = grand;
                } else {
                    if z == self.nodes[parent].right {
                        z = parent;
                        self.left_rotate(z);
                    }
                    let parent = self.nodes[z].parent;
                    let grand = self.nodes[parent].parent;
                    self.set_color(parent, Color::Black);
                    self.set_color(grand, Color::Red);
                    self.right_rotate(grand);
                }
            } else {
                let uncle = self.nodes[grand].left;
                if self.color(uncle) == Color::Red {
                    self.set_color(parent, Color::Black);
                    self.set_color(uncle, Color::Black);
                    self.set_color(grand, Color::Red);
                    z = grand;
                } else {
                    if z == self.nodes[parent].left {
                        z = parent;
                        self.right_rotate(z);
                    }
                    let parent = self.nodes[z].parent;
                    let grand = self.nodes[parent].parent;
                    self.set_color(parent, Color::Black);
                    self.set_color(grand, Color::Red);
                    self.left_rotate(grand);
                }
            }
        }
        let root = self.root;
        self.set_color(root, Color::Black);
    }

    fn minimum(&self, mut x: usize) -> usize {
        while self.nodes[x].left != NIL {
            self.visit();
            x = self.nodes[x].left;
        }
        x
    }

    /// Replaces the subtree rooted at `u` with the subtree rooted at `v`.
    fn transplant(&mut self, u: usize, v: usize) {
        let up = self.nodes[u].parent;
        if up == NIL {
            self.root = v;
        } else if self.nodes[up].left == u {
            self.nodes[up].left = v;
        } else {
            self.nodes[up].right = v;
        }
        if v != NIL {
            self.nodes[v].parent = up;
        }
    }

    fn delete_node(&mut self, z: usize) {
        // CLRS delete with a NIL-aware fixup: we track the fixup position
        // as (node, parent) because we have no sentinel node.
        let mut y = z;
        let mut y_original_color = self.nodes[y].color;
        let x;
        let x_parent;
        if self.nodes[z].left == NIL {
            x = self.nodes[z].right;
            x_parent = self.nodes[z].parent;
            self.transplant(z, x);
        } else if self.nodes[z].right == NIL {
            x = self.nodes[z].left;
            x_parent = self.nodes[z].parent;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.nodes[z].right);
            y_original_color = self.nodes[y].color;
            x = self.nodes[y].right;
            if self.nodes[y].parent == z {
                x_parent = y;
            } else {
                x_parent = self.nodes[y].parent;
                self.transplant(y, x);
                let zr = self.nodes[z].right;
                self.nodes[y].right = zr;
                self.nodes[zr].parent = y;
            }
            self.transplant(z, y);
            let zl = self.nodes[z].left;
            self.nodes[y].left = zl;
            self.nodes[zl].parent = y;
            self.nodes[y].color = self.nodes[z].color;
        }
        if y_original_color == Color::Black {
            self.delete_fixup(x, x_parent);
        }
        self.free.push(z);
    }

    fn delete_fixup(&mut self, mut x: usize, mut parent: usize) {
        while x != self.root && self.color(x) == Color::Black {
            if parent == NIL {
                break;
            }
            if x == self.nodes[parent].left {
                let mut w = self.nodes[parent].right;
                if self.color(w) == Color::Red {
                    self.set_color(w, Color::Black);
                    self.set_color(parent, Color::Red);
                    self.left_rotate(parent);
                    w = self.nodes[parent].right;
                }
                if self.color(self.nodes[w].left) == Color::Black
                    && self.color(self.nodes[w].right) == Color::Black
                {
                    self.set_color(w, Color::Red);
                    x = parent;
                    parent = self.nodes[x].parent;
                } else {
                    if self.color(self.nodes[w].right) == Color::Black {
                        let wl = self.nodes[w].left;
                        self.set_color(wl, Color::Black);
                        self.set_color(w, Color::Red);
                        self.right_rotate(w);
                        w = self.nodes[parent].right;
                    }
                    self.set_color(w, self.color(parent));
                    self.set_color(parent, Color::Black);
                    let wr = self.nodes[w].right;
                    self.set_color(wr, Color::Black);
                    self.left_rotate(parent);
                    x = self.root;
                    parent = NIL;
                }
            } else {
                let mut w = self.nodes[parent].left;
                if self.color(w) == Color::Red {
                    self.set_color(w, Color::Black);
                    self.set_color(parent, Color::Red);
                    self.right_rotate(parent);
                    w = self.nodes[parent].left;
                }
                if self.color(self.nodes[w].right) == Color::Black
                    && self.color(self.nodes[w].left) == Color::Black
                {
                    self.set_color(w, Color::Red);
                    x = parent;
                    parent = self.nodes[x].parent;
                } else {
                    if self.color(self.nodes[w].left) == Color::Black {
                        let wr = self.nodes[w].right;
                        self.set_color(wr, Color::Black);
                        self.set_color(w, Color::Red);
                        self.left_rotate(w);
                        w = self.nodes[parent].left;
                    }
                    self.set_color(w, self.color(parent));
                    self.set_color(parent, Color::Black);
                    let wl = self.nodes[w].left;
                    self.set_color(wl, Color::Black);
                    self.right_rotate(parent);
                    x = self.root;
                    parent = NIL;
                }
            }
        }
        self.set_color(x, Color::Black);
    }
}

impl<T: Ord> Default for RbTree<T> {
    fn default() -> Self {
        RbTree::new()
    }
}

impl<T: Ord> FromIterator<T> for RbTree<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut tree = RbTree::new();
        for k in iter {
            tree.insert(k);
        }
        tree
    }
}

impl<T: Ord> Extend<T> for RbTree<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

/// In-order iterator over an [`RbTree`], produced by [`RbTree::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    tree: &'a RbTree<T>,
    stack: Vec<usize>,
}

impl<'a, T: Ord> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let x = self.stack.pop()?;
        self.tree.visit();
        let mut r = self.tree.nodes[x].right;
        while r != NIL {
            self.stack.push(r);
            r = self.tree.nodes[r].left;
        }
        Some(&self.tree.nodes[x].key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    #[test]
    fn empty_tree() {
        let t: RbTree<i32> = RbTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(!t.contains(&5));
        assert_eq!(t.check_invariants(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let mut t = RbTree::new();
        for k in 0..1024 {
            assert!(t.insert(k));
            t.check_invariants();
        }
        assert_eq!(t.len(), 1024);
        // Height bound: 2·log2(n+1) ⇒ black height ≤ ~11 for 1024 nodes.
        assert!(t.check_invariants() <= 11);
        let got: Vec<i32> = t.iter().copied().collect();
        assert_eq!(got, (0..1024).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_inserts_rejected() {
        let mut t = RbTree::new();
        assert!(t.insert(7));
        assert!(!t.insert(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn random_insert_remove_matches_btreeset() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut t = RbTree::new();
        let mut reference = BTreeSet::new();
        for _ in 0..4000 {
            let k: u16 = rng.gen_range(0..500);
            if rng.gen_bool(0.6) {
                assert_eq!(t.insert(k), reference.insert(k), "insert {k}");
            } else {
                assert_eq!(t.remove(&k), reference.remove(&k), "remove {k}");
            }
            assert_eq!(t.len(), reference.len());
        }
        t.check_invariants();
        let got: Vec<u16> = t.iter().copied().collect();
        let expect: Vec<u16> = reference.iter().copied().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn remove_all_in_random_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut keys: Vec<u32> = (0..512).collect();
        keys.shuffle(&mut rng);
        let mut t: RbTree<u32> = keys.iter().copied().collect();
        keys.shuffle(&mut rng);
        for (i, k) in keys.iter().enumerate() {
            assert!(t.remove(k));
            if i % 37 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.check_invariants(), 0);
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut t = RbTree::new();
        for k in 0..100 {
            t.insert(k);
        }
        for k in 0..100 {
            t.remove(&k);
        }
        let baseline = t.nodes.len();
        for k in 100..150 {
            t.insert(k);
        }
        assert_eq!(t.nodes.len(), baseline, "freed slots reused");
        t.check_invariants();
    }

    #[test]
    fn set_operations_match_btreeset() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a_keys: BTreeSet<u16> = (0..200).map(|_| rng.gen_range(0..300)).collect();
        let b_keys: BTreeSet<u16> = (0..200).map(|_| rng.gen_range(0..300)).collect();
        let a: RbTree<u16> = a_keys.iter().copied().collect();
        let b: RbTree<u16> = b_keys.iter().copied().collect();

        let union: Vec<u16> = a.union(&b).iter().copied().collect();
        let expect: Vec<u16> = a_keys.union(&b_keys).copied().collect();
        assert_eq!(union, expect);

        let inter: Vec<u16> = a.intersection(&b).iter().copied().collect();
        let expect: Vec<u16> = a_keys.intersection(&b_keys).copied().collect();
        assert_eq!(inter, expect);

        let diff: Vec<u16> = a.difference(&b).iter().copied().collect();
        let expect: Vec<u16> = a_keys.difference(&b_keys).copied().collect();
        assert_eq!(diff, expect);
    }

    #[test]
    fn visits_count_traversal_work() {
        let mut t = RbTree::new();
        for k in 0..128 {
            t.insert(k);
        }
        t.reset_visits();
        t.contains(&64);
        let lookup_visits = t.visits();
        assert!((1..=16).contains(&lookup_visits), "{lookup_visits}");
        t.reset_visits();
        let _ = t.iter().count();
        assert!(t.visits() >= 128);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: RbTree<i32> = (0..10).collect();
        t.extend(10..20);
        assert_eq!(t.len(), 20);
        t.check_invariants();
    }
}
