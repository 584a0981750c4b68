package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// OrderedMap is the contract shared by Tree and the baseline containers,
// so experiments and property tests can swap implementations.
type OrderedMap[V any] interface {
	Len() int
	Get(key []byte) (V, bool)
	Set(key []byte, v V) (prev V, replaced bool)
	Delete(key []byte) (V, bool)
	AscendRange(lo, hi []byte, fn func(key []byte, v V) bool)
}

var (
	_ OrderedMap[int] = (*Tree[int])(nil)
	_ OrderedMap[int] = (*SortedSlice[int])(nil)
	_ OrderedMap[int] = (*LinearScan[int])(nil)
)

// SortedSlice is the binary-search baseline: a single pair of parallel
// slices kept in key order. Lookup is O(log n); insert and delete are
// O(n) memmoves. It doubles as the reference model in property tests.
type SortedSlice[V any] struct {
	keys [][]byte
	vals []V
}

// NewSortedSlice returns an empty baseline container.
func NewSortedSlice[V any]() *SortedSlice[V] { return &SortedSlice[V]{} }

// Len returns the number of entries.
func (s *SortedSlice[V]) Len() int { return len(s.keys) }

func (s *SortedSlice[V]) search(key []byte) (int, bool) {
	i := sort.Search(len(s.keys), func(i int) bool {
		return bytes.Compare(s.keys[i], key) >= 0
	})
	return i, i < len(s.keys) && bytes.Equal(s.keys[i], key)
}

// Get returns the value stored under key.
func (s *SortedSlice[V]) Get(key []byte) (V, bool) {
	i, ok := s.search(key)
	if !ok {
		var zero V
		return zero, false
	}
	return s.vals[i], true
}

// Set stores v under key.
func (s *SortedSlice[V]) Set(key []byte, v V) (prev V, replaced bool) {
	i, ok := s.search(key)
	if ok {
		prev, s.vals[i] = s.vals[i], v
		return prev, true
	}
	s.keys = append(s.keys, nil)
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = append([]byte(nil), key...)
	var zero V
	s.vals = append(s.vals, zero)
	copy(s.vals[i+1:], s.vals[i:])
	s.vals[i] = v
	return prev, false
}

// Delete removes key.
func (s *SortedSlice[V]) Delete(key []byte) (V, bool) {
	i, ok := s.search(key)
	if !ok {
		var zero V
		return zero, false
	}
	old := s.vals[i]
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
	s.vals = append(s.vals[:i], s.vals[i+1:]...)
	return old, true
}

// AscendRange visits entries with lo <= key < hi in order.
func (s *SortedSlice[V]) AscendRange(lo, hi []byte, fn func(key []byte, v V) bool) {
	start := 0
	if lo != nil {
		start, _ = s.search(lo)
	}
	for i := start; i < len(s.keys); i++ {
		if hi != nil && bytes.Compare(s.keys[i], hi) >= 0 {
			return
		}
		if !fn(s.keys[i], s.vals[i]) {
			return
		}
	}
}

// LinearScan is the O(n)-everything baseline: an unordered slice scanned
// front to back. It exists so experiments can show what indexes buy.
type LinearScan[V any] struct {
	keys [][]byte
	vals []V
}

// NewLinearScan returns an empty baseline container.
func NewLinearScan[V any]() *LinearScan[V] { return &LinearScan[V]{} }

// Len returns the number of entries.
func (s *LinearScan[V]) Len() int { return len(s.keys) }

func (s *LinearScan[V]) index(key []byte) int {
	for i, k := range s.keys {
		if bytes.Equal(k, key) {
			return i
		}
	}
	return -1
}

// Get returns the value stored under key by scanning.
func (s *LinearScan[V]) Get(key []byte) (V, bool) {
	if i := s.index(key); i >= 0 {
		return s.vals[i], true
	}
	var zero V
	return zero, false
}

// Set stores v under key.
func (s *LinearScan[V]) Set(key []byte, v V) (prev V, replaced bool) {
	if i := s.index(key); i >= 0 {
		prev, s.vals[i] = s.vals[i], v
		return prev, true
	}
	s.keys = append(s.keys, append([]byte(nil), key...))
	s.vals = append(s.vals, v)
	var zero V
	return zero, false
}

// Delete removes key by scanning.
func (s *LinearScan[V]) Delete(key []byte) (V, bool) {
	i := s.index(key)
	if i < 0 {
		var zero V
		return zero, false
	}
	old := s.vals[i]
	last := len(s.keys) - 1
	s.keys[i], s.vals[i] = s.keys[last], s.vals[last]
	s.keys, s.vals = s.keys[:last], s.vals[:last]
	return old, true
}

// AscendRange visits matching entries in key order; the container is
// unordered, so this sorts a copy of the qualifying entries first.
func (s *LinearScan[V]) AscendRange(lo, hi []byte, fn func(key []byte, v V) bool) {
	type kv struct {
		k []byte
		v V
	}
	var hits []kv
	for i, k := range s.keys {
		if lo != nil && bytes.Compare(k, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			continue
		}
		hits = append(hits, kv{k, s.vals[i]})
	}
	sort.Slice(hits, func(i, j int) bool { return bytes.Compare(hits[i].k, hits[j].k) < 0 })
	for _, h := range hits {
		if !fn(h.k, h.v) {
			return
		}
	}
}

// BenchmarkLookup is experiment E2: ordered lookup in the B-tree
// against the two baselines.
func BenchmarkLookup(b *testing.B) {
	const n = 10_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%09d", i*7919%n*1000+i))
	}
	r := rand.New(rand.NewSource(2))
	probes := make([][]byte, 1024)
	for i := range probes {
		probes[i] = keys[r.Intn(n)]
	}
	impls := []struct {
		name string
		mk   func() OrderedMap[int]
	}{
		{"btree", func() OrderedMap[int] { return New[int]() }},
		{"sorted-slice", func() OrderedMap[int] { return NewSortedSlice[int]() }},
		{"linear-scan", func() OrderedMap[int] { return NewLinearScan[int]() }},
	}
	for _, impl := range impls {
		m := impl.mk()
		for i, k := range keys {
			m.Set(k, i)
		}
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Get(probes[i%len(probes)])
			}
		})
	}
}
