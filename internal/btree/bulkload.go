package btree

import (
	"bytes"
	"fmt"
)

// Pair is one key/value item for BulkLoad.
type Pair[V any] struct {
	Key   []byte
	Value V
}

// BulkLoad builds a tree bottom-up from pairs that are already sorted
// ascending by Key with no duplicates: leaves are filled left to right
// and the interior levels are laid over them, so construction is O(n)
// with no per-key root-to-leaf descent and no node splits — the
// cold-start path for indexes whose whole corpus is known up front.
// Out-of-order or duplicate keys are rejected before any node is built.
//
// The resulting tree satisfies the same structural invariants as one
// grown by sequential Set calls (node fill between minKeys and maxKeys,
// uniform leaf depth) and iterates identically. Like Set, BulkLoad
// takes ownership of the key slices instead of copying them; callers
// must not modify them afterwards.
func BulkLoad[V any](pairs []Pair[V]) (*Tree[V], error) {
	if len(pairs) == 0 {
		return New[V](), nil
	}
	cow := &cowTag{}
	for i := 1; i < len(pairs); i++ {
		switch c := bytes.Compare(pairs[i-1].Key, pairs[i].Key); {
		case c == 0:
			return nil, fmt.Errorf("btree: bulk load: duplicate key %q at index %d", pairs[i].Key, i)
		case c > 0:
			return nil, fmt.Errorf("btree: bulk load: keys out of order at index %d", i)
		}
	}
	// Leaf level: full leaves left to right, with the final two
	// rebalanced so no leaf falls under minKeys.
	counts := chunkSizes(len(pairs), maxKeys)
	level := make([]node[V], 0, len(counts))
	mins := make([][]byte, 0, len(counts))
	next := 0
	for _, c := range counts {
		lf := &leaf[V]{tag: cow, keys: make([][]byte, c), vals: make([]V, c)}
		for j := 0; j < c; j++ {
			lf.keys[j] = pairs[next].Key
			lf.vals[j] = pairs[next].Value
			next++
		}
		level = append(level, lf)
		mins = append(mins, lf.keys[0])
	}
	// Interior levels: group children maxKeys+1 at a time until one node
	// remains. The separator left of child i is the smallest key in its
	// subtree, which is exactly the invariant node splits maintain.
	for len(level) > 1 {
		counts := chunkSizes(len(level), maxKeys+1)
		up := make([]node[V], 0, len(counts))
		upMins := make([][]byte, 0, len(counts))
		next := 0
		for _, c := range counts {
			in := &inner[V]{
				tag:      cow,
				keys:     append([][]byte(nil), mins[next+1:next+c]...),
				children: append([]node[V](nil), level[next:next+c]...),
			}
			up = append(up, in)
			upMins = append(upMins, mins[next])
			next += c
		}
		level, mins = up, upMins
	}
	return &Tree[V]{root: level[0], size: len(pairs), cow: cow}, nil
}

// chunkSizes partitions n items into runs of at most max, splitting the
// final overfull run in two when the remainder alone would underflow
// (max >= 2*minKeys+1, so both halves clear minKeys). A single
// undersized chunk is fine: it becomes the root.
func chunkSizes(n, max int) []int {
	if n <= max {
		return []int{n}
	}
	full, rem := n/max, n%max
	if rem == 0 {
		sizes := make([]int, full)
		for i := range sizes {
			sizes[i] = max
		}
		return sizes
	}
	sizes := make([]int, full+1)
	for i := 0; i < full; i++ {
		sizes[i] = max
	}
	sizes[full] = rem
	if rem < minKeys {
		combined := max + rem
		sizes[full-1] = (combined + 1) / 2
		sizes[full] = combined / 2
	}
	return sizes
}
