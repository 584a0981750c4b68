// Package btree provides an in-memory B+tree keyed by byte strings, with
// ordered and prefix iteration and O(1) copy-on-write clones. Interior
// nodes hold only separator keys; all entries live in leaves, and range
// scans descend recursively with separator-bounded early termination.
// Its tests hold two reference containers (SortedSlice, LinearScan),
// the baselines of BenchmarkLookup and the models of its property tests.
package btree

import (
	"bytes"
	"sort"
)

const (
	// maxKeys is the maximum number of keys per node; nodes split above
	// it. minKeys is the underflow threshold for rebalancing on delete.
	maxKeys = 64
	minKeys = maxKeys / 2
)

// cowTag is a unique ownership marker for copy-on-write. Every node
// carries the tag of the tree that created it; a tree may mutate a node
// in place only while the node's tag is the tree's own. The struct must
// not be zero-sized: zero-size allocations can share an address, which
// would alias ownership across unrelated trees.
type cowTag struct{ _ byte }

// Tree is a B+tree mapping []byte keys to values of type V. Keys are
// compared with bytes.Compare and owned, not copied: Set and BulkLoad
// keep the caller's slice, so several trees (or a tree and its values)
// may share one key buffer, and callers must not modify a key after
// handing it over. The zero Tree is not usable; call New.
//
// Clone returns an O(1) snapshot: both trees share every node, and
// subsequent mutation on either side path-copies just the nodes it
// touches. Readers of a tree that is no longer mutated (a published
// snapshot) are safe against mutation of its clones; a tree that is
// itself being mutated still requires external synchronization between
// its own readers and writers.
type Tree[V any] struct {
	root node[V]
	size int
	cow  *cowTag
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	cow := &cowTag{}
	return &Tree[V]{root: &leaf[V]{tag: cow}, cow: cow}
}

// Clone returns a copy of the tree sharing every node with t. Both t
// and the clone receive fresh ownership tags, so the first mutation of
// any shared node — from either side — copies it instead of writing in
// place; unshared subtrees keep being mutated in place once copied.
func (t *Tree[V]) Clone() *Tree[V] {
	cp := *t
	t.cow = &cowTag{}
	cp.cow = &cowTag{}
	return &cp
}

type node[V any] interface{ isNode() }

type leaf[V any] struct {
	tag  *cowTag
	keys [][]byte
	vals []V
}

type inner[V any] struct {
	tag *cowTag
	// keys[i] is <= every key in children[i+1] and > every key in
	// children[i]; len(children) == len(keys)+1.
	keys     [][]byte
	children []node[V]
}

func (*leaf[V]) isNode()  {}
func (*inner[V]) isNode() {}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value stored under key.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner[V]:
			n = x.children[x.childIndex(key)]
		case *leaf[V]:
			i, ok := x.find(key)
			if !ok {
				var zero V
				return zero, false
			}
			return x.vals[i], true
		}
	}
}

// Set stores v under key, returning the previous value if one existed.
// A new key is filed as the caller's slice itself, not a copy: the tree
// owns it from then on and the caller must not modify it. Replacing an
// existing key keeps the slice filed first.
func (t *Tree[V]) Set(key []byte, v V) (prev V, replaced bool) {
	t.root = t.mutable(t.root)
	prev, replaced, split := t.insert(t.root, key, v)
	if split != nil {
		t.root = &inner[V]{
			tag:      t.cow,
			keys:     [][]byte{split.key},
			children: []node[V]{t.root, split.right},
		}
	}
	if !replaced {
		t.size++
	}
	return prev, replaced
}

// Delete removes key, returning the value it held.
func (t *Tree[V]) Delete(key []byte) (V, bool) {
	t.root = t.mutable(t.root)
	old, found := t.delete(t.root, key)
	if found {
		t.size--
	}
	if in, ok := t.root.(*inner[V]); ok && len(in.children) == 1 {
		t.root = in.children[0]
	}
	return old, found
}

// Min returns the smallest key and its value.
func (t *Tree[V]) Min() ([]byte, V, bool) {
	lf := t.firstLeaf()
	if len(lf.keys) == 0 {
		var zero V
		return nil, zero, false
	}
	return lf.keys[0], lf.vals[0], true
}

// Max returns the largest key and its value.
func (t *Tree[V]) Max() ([]byte, V, bool) {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner[V]:
			n = x.children[len(x.children)-1]
		case *leaf[V]:
			if len(x.keys) == 0 {
				var zero V
				return nil, zero, false
			}
			i := len(x.keys) - 1
			return x.keys[i], x.vals[i], true
		}
	}
}

// Ascend visits every entry in key order until fn returns false.
func (t *Tree[V]) Ascend(fn func(key []byte, v V) bool) {
	t.AscendRange(nil, nil, fn)
}

// AscendRange visits entries with lo <= key < hi in order, until fn
// returns false. A nil lo starts at the minimum; a nil hi runs to the end.
func (t *Tree[V]) AscendRange(lo, hi []byte, fn func(key []byte, v V) bool) {
	ascend(t.root, lo, hi, fn)
}

// ascend walks the subtree under n in key order, honoring the bounds.
// It returns false once iteration should stop — either fn said so or a
// separator proved every remaining key is >= hi.
func ascend[V any](n node[V], lo, hi []byte, fn func(key []byte, v V) bool) bool {
	switch x := n.(type) {
	case *leaf[V]:
		start := 0
		if lo != nil {
			start = sort.Search(len(x.keys), func(i int) bool {
				return bytes.Compare(x.keys[i], lo) >= 0
			})
		}
		for i := start; i < len(x.keys); i++ {
			if hi != nil && bytes.Compare(x.keys[i], hi) >= 0 {
				return false
			}
			if !fn(x.keys[i], x.vals[i]) {
				return false
			}
		}
		return true
	case *inner[V]:
		i := 0
		if lo != nil {
			i = x.childIndex(lo)
		}
		for ; i < len(x.children); i++ {
			// children[i] holds only keys >= keys[i-1]: once a separator
			// reaches hi the rest of the subtree is out of range.
			if hi != nil && i > 0 && bytes.Compare(x.keys[i-1], hi) >= 0 {
				return false
			}
			if !ascend(x.children[i], lo, hi, fn) {
				return false
			}
			// Only the first visited child can contain keys below lo.
			lo = nil
		}
		return true
	}
	panic("btree: unknown node type")
}

// AscendPrefix visits entries whose key begins with prefix, in order.
func (t *Tree[V]) AscendPrefix(prefix []byte, fn func(key []byte, v V) bool) {
	if len(prefix) == 0 {
		t.Ascend(fn)
		return
	}
	t.AscendRange(prefix, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest key greater than every key with the
// given prefix, or nil when the prefix is all 0xff (scan to the end).
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// ---- internals ----

// mutable returns a version of n this tree owns and may write to: n
// itself when the tags already match, otherwise a copy tagged with
// t.cow. Copies get capacity for one over-full slot so the transient
// pre-split state never reallocates mid-insert.
func (t *Tree[V]) mutable(n node[V]) node[V] {
	switch x := n.(type) {
	case *leaf[V]:
		return t.mutableLeaf(x)
	case *inner[V]:
		return t.mutableInner(x)
	}
	panic("btree: unknown node type")
}

func (t *Tree[V]) mutableLeaf(x *leaf[V]) *leaf[V] {
	if x.tag == t.cow {
		return x
	}
	cp := &leaf[V]{
		tag:  t.cow,
		keys: make([][]byte, len(x.keys), maxKeys+1),
		vals: make([]V, len(x.vals), maxKeys+1),
	}
	copy(cp.keys, x.keys)
	copy(cp.vals, x.vals)
	return cp
}

func (t *Tree[V]) mutableInner(x *inner[V]) *inner[V] {
	if x.tag == t.cow {
		return x
	}
	cp := &inner[V]{
		tag:      t.cow,
		keys:     make([][]byte, len(x.keys), maxKeys+1),
		children: make([]node[V], len(x.children), maxKeys+2),
	}
	copy(cp.keys, x.keys)
	copy(cp.children, x.children)
	return cp
}

type splitResult[V any] struct {
	key   []byte
	right node[V]
}

func (x *inner[V]) childIndex(key []byte) int {
	return sort.Search(len(x.keys), func(i int) bool {
		return bytes.Compare(key, x.keys[i]) < 0
	})
}

func (x *leaf[V]) find(key []byte) (int, bool) {
	i := sort.Search(len(x.keys), func(i int) bool {
		return bytes.Compare(x.keys[i], key) >= 0
	})
	return i, i < len(x.keys) && bytes.Equal(x.keys[i], key)
}

// insert descends into n, which the caller has already made mutable.
func (t *Tree[V]) insert(n node[V], key []byte, v V) (prev V, replaced bool, split *splitResult[V]) {
	switch x := n.(type) {
	case *leaf[V]:
		i, ok := x.find(key)
		if ok {
			prev, x.vals[i] = x.vals[i], v
			return prev, true, nil
		}
		x.keys = append(x.keys, nil)
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = key
		var zero V
		x.vals = append(x.vals, zero)
		copy(x.vals[i+1:], x.vals[i:])
		x.vals[i] = v
		if len(x.keys) > maxKeys {
			split = x.split(t.cow)
		}
		return prev, false, split
	case *inner[V]:
		i := x.childIndex(key)
		x.children[i] = t.mutable(x.children[i])
		prev, replaced, childSplit := t.insert(x.children[i], key, v)
		if childSplit != nil {
			x.keys = append(x.keys, nil)
			copy(x.keys[i+1:], x.keys[i:])
			x.keys[i] = childSplit.key
			x.children = append(x.children, nil)
			copy(x.children[i+2:], x.children[i+1:])
			x.children[i+1] = childSplit.right
			if len(x.keys) > maxKeys {
				split = x.split(t.cow)
			}
		}
		return prev, replaced, split
	}
	panic("btree: unknown node type")
}

func (x *leaf[V]) split(tag *cowTag) *splitResult[V] {
	mid := len(x.keys) / 2
	right := &leaf[V]{
		tag:  tag,
		keys: append([][]byte(nil), x.keys[mid:]...),
		vals: append([]V(nil), x.vals[mid:]...),
	}
	x.keys = x.keys[:mid:mid]
	x.vals = x.vals[:mid:mid]
	return &splitResult[V]{key: right.keys[0], right: right}
}

func (x *inner[V]) split(tag *cowTag) *splitResult[V] {
	mid := len(x.keys) / 2
	up := x.keys[mid]
	right := &inner[V]{
		tag:      tag,
		keys:     append([][]byte(nil), x.keys[mid+1:]...),
		children: append([]node[V](nil), x.children[mid+1:]...),
	}
	x.keys = x.keys[:mid:mid]
	x.children = x.children[: mid+1 : mid+1]
	return &splitResult[V]{key: up, right: right}
}

// delete descends into n, which the caller has already made mutable.
func (t *Tree[V]) delete(n node[V], key []byte) (V, bool) {
	switch x := n.(type) {
	case *leaf[V]:
		i, ok := x.find(key)
		if !ok {
			var zero V
			return zero, false
		}
		old := x.vals[i]
		x.keys = append(x.keys[:i], x.keys[i+1:]...)
		var zero V
		x.vals = append(x.vals[:i], x.vals[i+1:]...)
		// Help the GC: clear the duplicated tail slot.
		if n := len(x.vals); n < cap(x.vals) {
			x.vals[:cap(x.vals)][n] = zero
		}
		return old, true
	case *inner[V]:
		i := x.childIndex(key)
		x.children[i] = t.mutable(x.children[i])
		old, found := t.delete(x.children[i], key)
		if found && underfull[V](x.children[i]) {
			t.rebalance(x, i)
		}
		return old, found
	}
	panic("btree: unknown node type")
}

func underfull[V any](n node[V]) bool {
	switch x := n.(type) {
	case *leaf[V]:
		return len(x.keys) < minKeys
	case *inner[V]:
		return len(x.children) < minKeys
	}
	return false
}

// rebalance restores the size invariant of x.children[i] by borrowing
// from a sibling or merging with one. The child is already mutable;
// siblings are made mutable before they are written (a merged-away
// sibling is only read, so it may stay shared). Parent separator keys
// are updated in place — x is mutable too.
func (t *Tree[V]) rebalance(x *inner[V], i int) {
	switch child := x.children[i].(type) {
	case *leaf[V]:
		if i > 0 {
			left := x.children[i-1].(*leaf[V])
			if len(left.keys) > minKeys {
				// borrow tail of left sibling
				left = t.mutableLeaf(left)
				x.children[i-1] = left
				n := len(left.keys) - 1
				child.keys = append([][]byte{left.keys[n]}, child.keys...)
				child.vals = append([]V{left.vals[n]}, child.vals...)
				left.keys, left.vals = left.keys[:n:n], left.vals[:n:n]
				x.keys[i-1] = child.keys[0]
				return
			}
		}
		if i < len(x.children)-1 {
			right := x.children[i+1].(*leaf[V])
			if len(right.keys) > minKeys {
				// borrow head of right sibling
				right = t.mutableLeaf(right)
				x.children[i+1] = right
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				copy(right.keys, right.keys[1:])
				right.keys = right.keys[:len(right.keys)-1]
				copy(right.vals, right.vals[1:])
				var zero V
				right.vals[len(right.vals)-1] = zero
				right.vals = right.vals[:len(right.vals)-1]
				x.keys[i] = right.keys[0]
				return
			}
		}
		// merge with a sibling
		if i > 0 {
			left := t.mutableLeaf(x.children[i-1].(*leaf[V]))
			x.children[i-1] = left
			left.keys = append(left.keys, child.keys...)
			left.vals = append(left.vals, child.vals...)
			x.removeChild(i)
		} else {
			right := x.children[i+1].(*leaf[V])
			child.keys = append(child.keys, right.keys...)
			child.vals = append(child.vals, right.vals...)
			x.removeChild(i + 1)
		}
	case *inner[V]:
		if i > 0 {
			left := x.children[i-1].(*inner[V])
			if len(left.children) > minKeys {
				// rotate right through the parent separator
				left = t.mutableInner(left)
				x.children[i-1] = left
				n := len(left.keys) - 1
				child.keys = append([][]byte{x.keys[i-1]}, child.keys...)
				child.children = append([]node[V]{left.children[n+1]}, child.children...)
				x.keys[i-1] = left.keys[n]
				left.keys = left.keys[:n:n]
				left.children = left.children[: n+1 : n+1]
				return
			}
		}
		if i < len(x.children)-1 {
			right := x.children[i+1].(*inner[V])
			if len(right.children) > minKeys {
				// rotate left through the parent separator
				right = t.mutableInner(right)
				x.children[i+1] = right
				child.keys = append(child.keys, x.keys[i])
				child.children = append(child.children, right.children[0])
				x.keys[i] = right.keys[0]
				copy(right.keys, right.keys[1:])
				right.keys = right.keys[:len(right.keys)-1]
				copy(right.children, right.children[1:])
				right.children[len(right.children)-1] = nil
				right.children = right.children[:len(right.children)-1]
				return
			}
		}
		if i > 0 {
			left := t.mutableInner(x.children[i-1].(*inner[V]))
			x.children[i-1] = left
			left.keys = append(append(left.keys, x.keys[i-1]), child.keys...)
			left.children = append(left.children, child.children...)
			x.removeChild(i)
		} else {
			right := x.children[i+1].(*inner[V])
			child.keys = append(append(child.keys, x.keys[i]), right.keys...)
			child.children = append(child.children, right.children...)
			x.removeChild(i + 1)
		}
	}
}

// removeChild drops children[i] and the separator to its left (or, for
// i==0, the separator to its right — callers only use i>=1 except via the
// merge paths above, which pass the right-hand index).
func (x *inner[V]) removeChild(i int) {
	x.keys = append(x.keys[:i-1], x.keys[i:]...)
	n := len(x.children) - 1
	copy(x.children[i:], x.children[i+1:])
	x.children[n] = nil
	x.children = x.children[:n]
}

func (t *Tree[V]) firstLeaf() *leaf[V] {
	n := t.root
	for {
		switch x := n.(type) {
		case *inner[V]:
			n = x.children[0]
		case *leaf[V]:
			return x
		}
	}
}

// stats for tests: height and node counts.
func (t *Tree[V]) stats() (height, leaves, inners int) {
	n := t.root
	height = 1
	for {
		if in, ok := n.(*inner[V]); ok {
			height++
			n = in.children[0]
			continue
		}
		break
	}
	var walk func(node[V])
	walk = func(n node[V]) {
		switch x := n.(type) {
		case *leaf[V]:
			leaves++
		case *inner[V]:
			inners++
			for _, c := range x.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return height, leaves, inners
}
