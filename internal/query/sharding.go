// Sharding support: peer engines over disjoint corpus partitions that
// share one tracker, order-independent corpus fingerprints that
// XOR-combine across shards, and the work comparator the k-way shard
// merges use.
package query

import (
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/inverted"
	"repro/internal/metrics"
	"repro/internal/model"
)

// NewPeer returns an empty engine that shares e's cross-shard state:
// the tracker (with its coauthorship graph), its lock, the read-path
// counters and the collation options. Shards hold disjoint corpus
// partitions, but bibliometrics and the coauthorship network are
// whole-corpus structures (an author's works span shards), so every
// peer feeds the one shared tracker under the shared trkMu.
func (e *Engine) NewPeer() *Engine {
	return &Engine{
		idx:        core.New(e.coll),
		inv:        inverted.New(compareRefs),
		byID:       btree.New[*workEntry](),
		byYear:     btree.New[*workEntry](),
		byCitation: btree.New[*workEntry](),
		bySubject:  btree.New[*subjectPosting](),
		met:        e.met,
		trkMu:      e.trkMu,
		coll:       e.coll,
		qs:         e.qs,
	}
}

// ReplaceTrackers swaps the shared tracker on this engine (one
// not-yet-published writer clone on the coordinator's rebuild path).
// The coordinator builds the replacement aside from the full corpus,
// then calls this on each shard's clone before publishing them all, so
// every shard flips to the fresh tracker while concurrent tracker
// readers keep a consistent (old) view until the swap.
func (e *Engine) ReplaceTrackers(met *metrics.Engine) {
	e.trkMu.Lock()
	e.met = met
	e.trkMu.Unlock()
}

// RebuildTrackers recomputes the shared tracker, graph included, from
// the full corpus — the cold-start companion to LoadCorpus: every shard
// loads its partition without touching the tracker, and the coordinator
// runs this once with all works on one goroutine beside the shard
// loads. Callers must hold write serialization over every peer; no
// tracker readers may be active. Like a bulk load, a large rebuild
// relaxes the GC pacer.
func (e *Engine) RebuildTrackers(works []*model.Work) {
	if len(works) >= 10_000 {
		defer relaxGC()()
	}
	defer loadPhase("metrics").Since(time.Now())
	e.met.Rebuild(works)
}

// CompareWorks orders works exactly as the precomputed citation keys
// do: Citation.Compare (volume, page, year), then title, then ID. The
// shard merge orders per-shard work views with it: a view carries the
// works, not their keys.
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
		x ^= fingerprintKeys(k, we.citKey())
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
