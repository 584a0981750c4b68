// Package topk selects the best k of a stream of items without sorting
// them all, so a ranked read costs its limit rather than a sort of the
// whole population.
package topk

import "slices"

// Top keeps the best k of the items pushed into it, where order(a, b)
// < 0 ranks a before b and must be a total order. The kept items form a
// heap with the worst at its root, so n pushes cost O(n log k) time and
// O(k) space however large n grows, and the result equals the first k
// of a full sort. k <= 0 keeps every item.
type Top[T any] struct {
	k     int
	order func(a, b T) int
	items []T
}

// New returns an empty selection of the best k of about n items.
func New[T any](k, n int, order func(a, b T) int) *Top[T] {
	if k > 0 && k < n {
		n = k
	}
	return &Top[T]{k: k, order: order, items: make([]T, 0, n)}
}

// Push offers x to the selection.
func (t *Top[T]) Push(x T) {
	switch {
	case t.k <= 0:
		t.items = append(t.items, x)
	case len(t.items) < t.k:
		t.items = append(t.items, x)
		for i := len(t.items) - 1; i > 0; {
			p := (i - 1) / 2
			if t.order(t.items[p], t.items[i]) >= 0 {
				break
			}
			t.items[p], t.items[i] = t.items[i], t.items[p]
			i = p
		}
	case t.order(x, t.items[0]) < 0:
		t.items[0] = x
		for i := 0; ; {
			w := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(t.items) && t.order(t.items[c], t.items[w]) > 0 {
					w = c
				}
			}
			if w == i {
				break
			}
			t.items[w], t.items[i] = t.items[i], t.items[w]
			i = w
		}
	}
}

// Sorted returns the kept items, best first.
func (t *Top[T]) Sorted() []T {
	slices.SortFunc(t.items, t.order)
	return t.items
}
