// Package shard coordinates N hash-partitioned query.Engine shards.
// Works are assigned by work ID, author cross-references by collation
// key, so every record has exactly one home shard. Each shard has its
// own write mutex, so writers touching different shards commit in
// parallel; batch writes spanning shards lock only the shards they
// touch, in ascending ID order.
//
// Every shard's current engine lives in one immutable Root behind a
// single atomic pointer. A read is one atomic load and sees every shard
// at the same instant; a writer publishes all the clones it built in
// one new root, so a batch spanning shards becomes visible everywhere
// at once. A replaced root is reclaimed by the garbage collector once
// the last reader holding it drops it; there is nothing to release.
//
// Global operations (Verify, Close, tracker rebuilds) exclude every
// writer by taking every shard lock (LockAll).
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/query"
)

// Root is one published snapshot of every shard. It is immutable:
// neither the slice nor the engines it holds change after publication.
type Root struct {
	// Seq increments per publication; traces record it so a slow read
	// can be correlated with the snapshot that served it.
	Seq uint64
	// Engs holds each shard's engine, in shard order.
	Engs []*query.Engine
	// live carries the finalizer that counts this root as collected.
	// The finalizer sits on this small sentinel rather than on the root
	// so the root's engines are freed in the same cycle that drops it.
	live *sentinel
}

// sentinel points at the map's live-root counter, which is allocated
// apart from the Map: a pointer into the Map would close a cycle from
// the current root back to its own sentinel, and a cycle holding a
// finalizer is never collected.
type sentinel struct{ alive *atomic.Int64 }

// Shard is one partition's writer mutex.
type Shard struct {
	id int
	m  *Map
	mu sync.Mutex
}

// ID returns the shard's index in the map.
func (s *Shard) ID() int { return s.id }

// Lock serializes writers on this shard. Multi-shard writers must
// acquire shard locks in ascending ID order.
func (s *Shard) Lock() { s.mu.Lock() }

// Unlock releases the shard's writer mutex.
func (s *Shard) Unlock() { s.mu.Unlock() }

// Head returns the shard's current engine — the base a writer clones.
// Only meaningful while holding the shard lock (or LockAll), since only
// a holder replaces it; readers use Map.Load.
func (s *Shard) Head() *query.Engine { return s.m.root.Load().Engs[s.id] }

// Map is the shard coordinator: the shard set, routing, and the one
// atomic root every read loads.
type Map struct {
	shards []*Shard
	root   atomic.Pointer[Root]
	alive  *atomic.Int64
}

// New builds a map of n shards (n < 1 is treated as 1), each seeded
// with the engine mk returns for its index, published as the first
// root.
func New(n int, mk func(i int) *query.Engine) *Map {
	if n < 1 {
		n = 1
	}
	m := &Map{shards: make([]*Shard, n), alive: new(atomic.Int64)}
	r := m.newRoot()
	r.Seq = 1
	for i := range m.shards {
		m.shards[i] = &Shard{id: i, m: m}
		r.Engs = append(r.Engs, mk(i))
	}
	m.root.Store(r)
	return m
}

func (m *Map) newRoot() *Root {
	s := &sentinel{alive: m.alive}
	m.alive.Add(1)
	runtime.SetFinalizer(s, func(s *sentinel) { s.alive.Add(-1) })
	return &Root{live: s}
}

// N returns the shard count.
func (m *Map) N() int { return len(m.shards) }

// Shard returns shard i.
func (m *Map) Shard(i int) *Shard { return m.shards[i] }

// Load returns the current root: a snapshot of every shard, valid for
// as long as the caller holds it.
func (m *Map) Load() *Root { return m.root.Load() }

// Publish makes engs[i] shard i's engine for every i in engs, in one
// new root that keeps every other shard's current engine. Callers hold
// the lock of each shard they replace; writers on other shards may
// publish concurrently, so a lost race rebuilds the root from the
// winner's and retries.
func (m *Map) Publish(engs map[int]*query.Engine) {
	next := m.newRoot()
	for {
		cur := m.root.Load()
		next.Seq = cur.Seq + 1
		next.Engs = append(next.Engs[:0], cur.Engs...)
		for i, eng := range engs {
			next.Engs[i] = eng
		}
		if m.root.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ForWork routes a work ID to its home shard: a fibonacci-style
// multiplicative scramble so sequentially assigned IDs spread evenly.
func (m *Map) ForWork(id model.WorkID) int {
	if len(m.shards) == 1 {
		return 0
	}
	return int((uint64(id) * 0x9E3779B97F4A7C15) % uint64(len(m.shards)))
}

// ForKey routes a collation key (an author heading) to its home shard
// via FNV-1a, so cross-references land deterministically across
// restarts.
func (m *Map) ForKey(key []byte) int {
	if len(m.shards) == 1 {
		return 0
	}
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return int(h % uint64(len(m.shards)))
}

// LockAll takes every shard lock in ascending order: it returns once no
// writer is in flight on any shard and blocks new ones until
// UnlockAll. Holders may read and replace every shard's head.
func (m *Map) LockAll() {
	for _, s := range m.shards {
		s.Lock()
	}
}

// UnlockAll releases the locks LockAll took.
func (m *Map) UnlockAll() {
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].Unlock()
	}
}

// EpochsAlive reports how many published roots the garbage collector
// has not yet collected: 1 when quiescent (the current root), more
// while readers hold replaced roots or before a collection cycle runs.
func (m *Map) EpochsAlive() int64 { return m.alive.Load() }

// Gather runs fn once per engine and returns the results in shard
// order. Concurrency is capped at GOMAXPROCS with the calling goroutine
// counted as a worker: per-shard work is ~1/N of the unsharded cost, so
// running shards beyond the core count in parallel buys nothing and a
// goroutine per shard per read melts down under load on small machines
// — at GOMAXPROCS=1 the whole gather runs inline with zero goroutines.
func Gather[T any](engs []*query.Engine, fn func(i int, eng *query.Engine) T) []T {
	out := make([]T, len(engs))
	workers := min(len(engs), runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i, eng := range engs {
			out[i] = fn(i, eng)
		}
		return out
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(engs) {
				return
			}
			out[i] = fn(i, engs[i])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
