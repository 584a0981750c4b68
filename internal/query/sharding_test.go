// Engine-level tests for the sharding primitives: XOR fingerprints
// that combine across partitions and peer engines sharing one
// tracker.
package query

import (
	"testing"

	"repro/internal/collate"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
)

// TestMergeXorFingerprintPartitionInvariant: the XOR of per-partition
// fingerprints must equal the whole-corpus fingerprint no matter how
// the corpus is split — the property Verify's per-shard fold rests on.
func TestMergeXorFingerprintPartitionInvariant(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 11, Works: 400, ZipfS: 1.1})
	whole := New(collate.Default())
	for _, w := range works {
		if err := whole.Add(w.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	want := whole.XorFingerprint()
	if want == 0 {
		t.Fatal("whole-corpus fingerprint is zero; test corpus too trivial")
	}

	for _, nParts := range []int{2, 3, 7} {
		engines := make([]*Engine, nParts)
		engines[0] = New(collate.Default())
		for i := 1; i < nParts; i++ {
			engines[i] = engines[0].NewPeer()
		}
		for i, w := range works {
			if err := engines[i%nParts].Add(w.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		var x uint64
		for _, e := range engines {
			x ^= e.XorFingerprint()
		}
		if x != want {
			t.Errorf("%d-way partition fingerprints fold to %016x, want %016x", nParts, x, want)
		}
	}

	// The fold also matches a per-work XOR straight off the models —
	// what Verify computes from the store side.
	var storeSide uint64
	for _, w := range works {
		storeSide ^= WorkFingerprint(w)
	}
	if storeSide != want {
		t.Errorf("store-side fold %016x, want %016x", storeSide, want)
	}
}

// TestShardPeerSharesTrackers: a peer engine must observe the metrics
// and graph mutations of its sibling — they are whole-corpus
// structures shared across shards.
func TestShardPeerSharesTrackers(t *testing.T) {
	a := New(collate.Default())
	b := a.NewPeer()
	w := &model.Work{
		ID:       1,
		Title:    "Shared Tracker Proof",
		Citation: model.Citation{Volume: 70, Page: 1, Year: 1968},
		Authors:  []model.Author{{Family: "Peer", Given: "P."}},
	}
	if err := a.Add(w); err != nil {
		t.Fatal(err)
	}
	if got := len(b.TopAuthors(metrics.ByWorks, 10)); got != 1 {
		t.Fatalf("peer sees %d tracked authors, want 1", got)
	}
	if b.Len() != 0 {
		t.Fatal("peer corpus must stay disjoint")
	}
}
