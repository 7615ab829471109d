// Package btree implements an in-memory B-tree with user-supplied key
// ordering. It is the foundation for relational secondary indexes
// (internal/rel) and for the ordered key-value substrate (internal/kv)
// that backs the Titan-like baseline store.
//
// The tree is not safe for concurrent mutation; callers serialize access
// (the relational layer does so with striped locks, the KV layer with a
// store-level mutex, mirroring the coarse-grained locking of the systems
// they emulate).
package btree

// degree is the minimum degree of the B-tree. Every node other than the
// root holds between degree-1 and 2*degree-1 items.
const degree = 32

const (
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// Tree is an ordered map from K to V. The zero value is not usable; create
// trees with New.
type Tree[K, V any] struct {
	cmp  func(a, b K) int
	root *node[K, V]
	len  int
}

type item[K, V any] struct {
	key K
	val V
}

type node[K, V any] struct {
	items    []item[K, V]
	children []*node[K, V] // nil for leaves
}

// New returns an empty tree ordered by cmp, which must return a negative
// number, zero, or a positive number when a is less than, equal to, or
// greater than b.
func New[K, V any](cmp func(a, b K) int) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp}
}

// Len reports the number of keys stored in the tree.
func (t *Tree[K, V]) Len() int { return t.len }

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		i, found := n.search(t.cmp, key)
		if found {
			return n.items[i].val, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var zero V
	return zero, false
}

// Set stores val under key, replacing any existing value. It reports
// whether the key was newly inserted.
func (t *Tree[K, V]) Set(key K, val V) bool {
	if t.root == nil {
		t.root = &node[K, V]{items: []item[K, V]{{key, val}}}
		t.len = 1
		return true
	}
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node[K, V]{children: []*node[K, V]{old}}
		t.root.splitChild(0)
	}
	inserted := t.root.insert(t.cmp, key, val)
	if inserted {
		t.len++
	}
	return inserted
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	if t.root == nil {
		return false
	}
	deleted := t.root.delete(t.cmp, key)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if t.root != nil && len(t.root.items) == 0 && t.root.leaf() {
		t.root = nil
	}
	if deleted {
		t.len--
	}
	return deleted
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	it := n.items[0]
	return it.key, it.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	it := n.items[len(n.items)-1]
	return it.key, it.val, true
}

// Ascend calls fn for every key/value pair in ascending order until fn
// returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	if t.root != nil {
		t.root.ascend(fn)
	}
}

// AscendFrom calls fn for every pair with key >= from, in ascending order,
// until fn returns false.
func (t *Tree[K, V]) AscendFrom(from K, fn func(key K, val V) bool) {
	t.AscendSeek(func(k K) bool { return t.cmp(k, from) < 0 }, fn)
}

// AscendSeek calls fn for every pair from the first key for which before
// reports false, in ascending order, until fn returns false. before must
// be monotone: true for a (possibly empty) prefix of the key order, false
// from there on. The sought position never passes through the tree's
// comparator, so a caller can seek to a bound it holds in another form —
// a byte buffer on its stack — without building a key for it.
func (t *Tree[K, V]) AscendSeek(before func(key K) bool, fn func(key K, val V) bool) {
	if t.root != nil {
		t.root.ascendSeek(before, fn)
	}
}

// AscendRange calls fn for every pair with from <= key < to.
func (t *Tree[K, V]) AscendRange(from, to K, fn func(key K, val V) bool) {
	t.AscendFrom(from, func(k K, v V) bool {
		if t.cmp(k, to) >= 0 {
			return false
		}
		return fn(k, v)
	})
}

// Descend calls fn for every key/value pair in descending order until fn
// returns false.
func (t *Tree[K, V]) Descend(fn func(key K, val V) bool) {
	if t.root != nil {
		t.root.descend(fn)
	}
}

func (n *node[K, V]) leaf() bool { return len(n.children) == 0 }

// search returns the index of the first item whose key is >= key, and
// whether that item's key equals key.
func (n *node[K, V]) search(cmp func(a, b K) int, key K) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(n.items[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && cmp(n.items[lo].key, key) == 0 {
		return lo, true
	}
	return lo, false
}

// splitChild splits the full child at index i, lifting its median item
// into n.
func (n *node[K, V]) splitChild(i int) {
	child := n.children[i]
	mid := child.items[minItems]
	right := &node[K, V]{
		items: append([]item[K, V](nil), child.items[minItems+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node[K, V](nil), child.children[minItems+1:]...)
		child.children = child.children[:minItems+1]
	}
	child.items = child.items[:minItems]

	n.items = append(n.items, item[K, V]{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = mid
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node[K, V]) insert(cmp func(a, b K) int, key K, val V) bool {
	i, found := n.search(cmp, key)
	if found {
		n.items[i].val = val
		return false
	}
	if n.leaf() {
		n.items = append(n.items, item[K, V]{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item[K, V]{key, val}
		return true
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i)
		switch c := cmp(key, n.items[i].key); {
		case c > 0:
			i++
		case c == 0:
			n.items[i].val = val
			return false
		}
	}
	return n.children[i].insert(cmp, key, val)
}

func (n *node[K, V]) delete(cmp func(a, b K) int, key K) bool {
	i, found := n.search(cmp, key)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete the
		// predecessor from that subtree.
		left := n.children[i]
		if len(left.items) > minItems {
			pred := left.maxItem()
			n.items[i] = pred
			return left.delete(cmp, pred.key)
		}
		right := n.children[i+1]
		if len(right.items) > minItems {
			succ := right.minItem()
			n.items[i] = succ
			return right.delete(cmp, succ.key)
		}
		n.mergeChildren(i)
		return n.children[i].delete(cmp, key)
	}
	child := n.children[i]
	if len(child.items) == minItems {
		i = n.refill(cmp, i)
		child = n.children[i]
	}
	return child.delete(cmp, key)
}

// refill ensures child i has more than minItems items by borrowing from a
// sibling or merging. It returns the (possibly shifted) child index to
// continue descent through.
func (n *node[K, V]) refill(cmp func(a, b K) int, i int) int {
	if i > 0 && len(n.children[i-1].items) > minItems {
		// Rotate right: left sibling's max moves up, separator moves down.
		child, left := n.children[i], n.children[i-1]
		child.items = append(child.items, item[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = moved
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		// Rotate left.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !right.leaf() {
			moved := right.children[0]
			right.children = append(right.children[:0], right.children[1:]...)
			child.children = append(child.children, moved)
		}
		return i
	}
	if i > 0 {
		n.mergeChildren(i - 1)
		return i - 1
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren merges child i, separator item i, and child i+1 into one
// node at index i.
func (n *node[K, V]) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *node[K, V]) minItem() item[K, V] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (n *node[K, V]) maxItem() item[K, V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (n *node[K, V]) ascend(fn func(key K, val V) bool) bool {
	for i, it := range n.items {
		if !n.leaf() && !n.children[i].ascend(fn) {
			return false
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(fn)
	}
	return true
}

func (n *node[K, V]) ascendSeek(before func(key K) bool, fn func(key K, val V) bool) bool {
	// First item not before the sought position; everything from it on,
	// and the subtree just left of it, can hold qualifying keys.
	i, hi := 0, len(n.items)
	for i < hi {
		mid := (i + hi) / 2
		if before(n.items[mid].key) {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if !n.leaf() && !n.children[i].ascendSeek(before, fn) {
		return false
	}
	for ; i < len(n.items); i++ {
		if !fn(n.items[i].key, n.items[i].val) {
			return false
		}
		if !n.leaf() && !n.children[i+1].ascend(fn) {
			return false
		}
	}
	return true
}

func (n *node[K, V]) descend(fn func(key K, val V) bool) bool {
	if !n.leaf() && !n.children[len(n.children)-1].descend(fn) {
		return false
	}
	for i := len(n.items) - 1; i >= 0; i-- {
		if !fn(n.items[i].key, n.items[i].val) {
			return false
		}
		if !n.leaf() && !n.children[i].descend(fn) {
			return false
		}
	}
	return true
}
