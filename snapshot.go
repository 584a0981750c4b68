package authorindex

import (
	"time"

	"repro/internal/query"
)

// Copy-on-write snapshot reads through one atomic root.
//
// Every committed write publishes fresh immutable engine snapshots of
// the shards it touched: the writer (serialized per shard by the
// shard's mutex) clones each shard's current engine in O(1), mutates
// the clone — path-copying only the index nodes it touches — and
// publishes every clone in one new root with one atomic pointer swap.
// Readers never take a lock: they load the current root, run against
// its frozen engines, and drop it. A loaded root is a consistent
// snapshot of every shard at one instant, so a batch spanning shards is
// visible to a reader entirely or not at all. Replaced roots are
// reclaimed by the garbage collector once no reader holds them.
//
// The root itself lives in internal/shard; this file keeps the
// facade-side glue: publication with the per-shard swap-latency
// histogram, and the roots-alive surface the gauge and the reclamation
// tests read.

// publish makes each clone in engs its shard's current engine, all in
// one root. Callers hold the lock of every shard they replace; start
// marks when the writer began the copy-on-write turnover (clone + index
// mutation), so the recorded swap latency is the full snapshot overhead
// a write pays on top of its store commit.
func (ix *Index) publish(start time.Time, engs map[int]*query.Engine) {
	ix.shards.Publish(engs)
	if hs := ix.swapHists.Load(); hs != nil {
		for si := range engs {
			(*hs)[si].Since(start)
		}
	}
}

// EpochsAlive reports how many published snapshot roots the garbage
// collector has not yet collected. Quiescent value is 1 (the current
// root); anything above that is roots held by in-flight readers or
// awaiting the next collection cycle.
func (ix *Index) EpochsAlive() int64 { return ix.shards.EpochsAlive() }
