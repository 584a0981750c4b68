// Sharding support: peer engines over disjoint corpus partitions that
// share one tracker view, order-independent corpus fingerprints that
// XOR-combine across shards, the work comparator the k-way shard merges
// use, and the arena compaction pass delete-heavy shards trigger.
package query

import (
	"strings"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inverted"
	"repro/internal/metrics"
	"repro/internal/model"
)

// NewPeer returns an empty engine that shares e's cross-shard state:
// the metrics tracker, the coauthorship graph, their lock, the
// read-path counters and the collation options. Shards hold disjoint
// corpus partitions, but bibliometrics and the coauthorship network are
// whole-corpus structures (an author's works span shards), so every
// peer feeds the one shared pair under the shared trkMu.
func (e *Engine) NewPeer() *Engine {
	return &Engine{
		idx:        core.New(e.coll),
		inv:        inverted.New(compareRefs),
		byID:       btree.New[*workEntry](),
		byYear:     btree.New[*workEntry](),
		byCitation: btree.New[*workEntry](),
		bySubject:  btree.New[*subjectPosting](),
		met:        e.met,
		gr:         e.gr,
		trkMu:      e.trkMu,
		coll:       e.coll,
		qs:         e.qs,
	}
}

// ReplaceTrackers swaps the shared tracker pair on this engine (one
// not-yet-published writer clone on the coordinator's rebuild path).
// The coordinator builds the replacements aside from the full corpus,
// then calls this on each shard's clone before publishing them all, so
// every shard flips to the fresh pair while concurrent tracker readers
// keep a consistent (old) view until the swap.
func (e *Engine) ReplaceTrackers(met metrics.Tracker, gr *graph.Graph) {
	e.trkMu.Lock()
	e.met = met
	e.gr = gr
	e.trkMu.Unlock()
}

// RebuildTrackers recomputes the shared metrics tracker and
// coauthorship graph from the full corpus, the two rebuilds running in
// parallel — the cold-start companion to LoadCorpus: every shard loads
// its partition without touching the trackers, and the coordinator
// calls this once with all works, beside the shard loads. Callers must
// hold write serialization over every peer; no tracker readers may be
// active. Like a bulk load, a large rebuild relaxes the GC pacer.
func (e *Engine) RebuildTrackers(works []*model.Work) {
	if len(works) >= 10_000 {
		defer relaxGC()()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer loadPhase("metrics").Since(time.Now())
		e.met.Rebuild(works)
	}()
	go func() {
		defer wg.Done()
		defer loadPhase("graph").Since(time.Now())
		e.gr.Rebuild(works)
	}()
	wg.Wait()
}

// CompareWorks orders works exactly as the precomputed citation keys
// do: Citation.Compare (volume, page, year), then title, then ID. The
// scatter-gather layer's k-way merges use it on per-shard results whose
// keys are no longer attached (the works are already clones).
func CompareWorks(a, b *model.Work) int {
	if c := a.Citation.Compare(b.Citation); c != 0 {
		return c
	}
	if c := strings.Compare(a.Title, b.Title); c != 0 {
		return c
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// WorkFingerprint hashes one work's indexed identity — its ID key and
// citation key — with FNV-1a. XOR over a corpus is order- and
// partition-independent, so per-shard XorFingerprints combine with ^
// into exactly the value an unsharded engine over the same corpus
// computes; Verify exploits that to check shards against the store
// without gathering the corpus in one place.
func WorkFingerprint(w *model.Work) uint64 {
	return fingerprintKeys(idKey(w.ID), citationKey(w))
}

func fingerprintKeys(idk, citk []byte) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, c := range idk {
		h ^= uint64(c)
		h *= prime64
	}
	for _, c := range citk {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// XorFingerprint XORs WorkFingerprint over every indexed work, reusing
// the precomputed keys. Two calls on the same frozen snapshot always
// agree; XOR across shards equals the whole-corpus value.
func (e *Engine) XorFingerprint() uint64 {
	var x uint64
	e.byID.Ascend(func(k []byte, we *workEntry) bool {
		x ^= fingerprintKeys(k, we.key)
		return true
	})
	return x
}

// KeyedSubject pairs a subject count with the collation key the
// bySubject tree filed it under, so cross-shard merges compare stored
// keys instead of recomputing one per subject per shard. The key
// aliases the tree's bytes; callers must not mutate it.
type KeyedSubject struct {
	Key []byte
	SubjectCount
}

// KeyedSubjects is Subjects with each heading's collation key attached.
func (e *Engine) KeyedSubjects() []KeyedSubject {
	out := make([]KeyedSubject, 0, e.bySubject.Len())
	e.bySubject.Ascend(func(k []byte, p *subjectPosting) bool {
		out = append(out, KeyedSubject{Key: k, SubjectCount: SubjectCount{Subject: p.display, Works: len(p.refs)}})
		return true
	})
	return out
}

// ArenaStats reports the bulk-load slab's occupancy: total slots and
// slots whose works have been removed but stay pinned by surviving
// siblings. (0, 0) when the engine carries no slab. The dead count may
// overcount by removals on discarded clones (failed commits), which
// only makes compaction run early.
func (e *Engine) ArenaStats() (total, dead int) {
	if e.arena == nil {
		return 0, 0
	}
	return e.arena.total, int(e.arena.dead.Load())
}

// CompactArena copies every surviving entry out of the shared
// bulk-load slab into a fresh, exactly-sized one and rebuilds the
// entry-holding trees around the copies, so the old slab — and the
// removed works it pins — becomes collectable once the last snapshot
// referencing it drains. It runs on a not-yet-published writer clone:
// published snapshots keep the old entries and are never touched.
// Incrementally-added (non-slab) entries are copied in too, so after
// compaction the whole corpus lives in one slab again.
func (e *Engine) CompactArena() {
	n := e.byID.Len()
	if n == 0 {
		e.arena = nil
		return
	}
	fresh := make([]workEntry, 0, n)
	remap := make(map[*workEntry]*workEntry, n)
	e.byID.Ascend(func(_ []byte, we *workEntry) bool {
		fresh = append(fresh, workEntry{w: we.w, key: we.key, subjKeys: we.subjKeys, inArena: true})
		remap[we] = &fresh[len(fresh)-1]
		return true
	})
	// Each tree is rebuilt bottom-up from its own ascent — keys arrive
	// sorted and unique, and the key bytes are allocated apart from the
	// tree nodes, so reusing them is safe.
	remapTree := func(t *btree.Tree[*workEntry]) (*btree.Tree[*workEntry], error) {
		pairs := make([]btree.Pair[*workEntry], 0, t.Len())
		t.Ascend(func(k []byte, we *workEntry) bool {
			pairs = append(pairs, btree.Pair[*workEntry]{Key: k, Value: remap[we]})
			return true
		})
		return btree.BulkLoad(pairs)
	}
	byID, err1 := remapTree(e.byID)
	byYear, err2 := remapTree(e.byYear)
	byCitation, err3 := remapTree(e.byCitation)
	spairs := make([]btree.Pair[*subjectPosting], 0, e.bySubject.Len())
	e.bySubject.Ascend(func(k []byte, p *subjectPosting) bool {
		refs := make([]*workEntry, len(p.refs))
		for i, we := range p.refs {
			refs[i] = remap[we]
		}
		spairs = append(spairs, btree.Pair[*subjectPosting]{Key: k, Value: &subjectPosting{display: p.display, refs: refs}})
		return true
	})
	bySubject, err4 := btree.BulkLoad(spairs)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		// Unreachable (ascents hand over unique sorted keys); keep the
		// old slab rather than publish half-rebuilt trees.
		return
	}
	e.inv = e.inv.Remap(func(we *workEntry) *workEntry { return remap[we] })
	e.byID, e.byYear, e.byCitation, e.bySubject = byID, byYear, byCitation, bySubject
	e.arena = &arenaInfo{total: len(fresh)}
}
