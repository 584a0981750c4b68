// Facade-level sharding tests: cross-shard batch atomicity, writer
// independence across shards (runs under -race in CI), cross-shard
// batches becoming visible to readers all at once, sharded reads
// matching the unsharded engine byte for byte, and arena compaction
// actually releasing deleted works once the old roots are collected.
package authorindex

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

func openShards(t *testing.T, dir string, n int) *Index {
	t.Helper()
	ix, err := Open(dir, &Options{NoSync: true, Shards: n})
	if err != nil {
		t.Fatalf("Open(shards=%d): %v", n, err)
	}
	return ix
}

// TestShardOptionValidation: the shard count is bounded and 0 means 1.
func TestShardOptionValidation(t *testing.T) {
	for _, bad := range []int{-1, MaxShards + 1} {
		if _, err := Open("", &Options{Shards: bad}); err == nil {
			t.Errorf("Open accepted Shards=%d", bad)
		}
	}
	ix, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if got := ix.Stats().Shards; got != 1 {
		t.Errorf("default Stats.Shards = %d, want 1", got)
	}
}

// TestShardBatchAtomicityCrossShard: every rejected write, including a
// batch spanning several shards whose bad work sits on the highest one
// (the shard locked last), leaves every shard and the store unchanged.
func TestShardBatchAtomicityCrossShard(t *testing.T) { checkRejectionsAtomic(t, 4) }

// TestShardSameIDWritersConverge: concurrent writers colliding on the
// SAME explicit IDs — a batch against single Adds — must leave store
// and index identical. Regression: AddBatch once captured prior
// versions and committed the store before taking the touched shards'
// locks, so two writers on one ID could commit to the store in one
// order and publish to the shard engines in the other, leaving them
// permanently divergent (Verify failed). Each round contends on fresh
// IDs written exactly twice, so one bad interleaving anywhere sticks
// to the end instead of being papered over by a later rewrite. Runs
// under -race in CI.
func TestShardSameIDWritersConverge(t *testing.T) {
	ix := openShards(t, t.TempDir(), 4)
	defer ix.Close()

	const pairs, rounds, perRound = 2, 120, 4
	mkBatch := func(pair, round, writer int) []Work {
		base := WorkID(1 + (pair*rounds+round)*perRound)
		batch := make([]Work, perRound)
		for i := range batch {
			w := sampleWork(
				fmt.Sprintf("Contended Work %d Pair %d Writer %d", base+WorkID(i), pair, writer),
				fmt.Sprintf("%d:%d (1999)", pair+1, round+1),
				fmt.Sprintf("Writer%d, W.", writer),
			)
			w.ID = base + WorkID(i)
			batch[i] = w
		}
		return batch
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		// Writer 0 commits each round's IDs as one batch; writer 1
		// rewrites the same IDs one Add at a time, concurrently.
		for writer := 0; writer < 2; writer++ {
			wg.Add(1)
			go func(p, writer int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if writer == 0 {
						if _, err := ix.AddBatch(mkBatch(p, r, writer)); err != nil {
							errs <- err
							return
						}
						continue
					}
					for _, w := range mkBatch(p, r, writer) {
						if _, err := ix.Add(w); err != nil {
							errs <- err
							return
						}
					}
				}
			}(p, writer)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := ix.Len(), pairs*rounds*perRound; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after contended same-ID writes: %v", err)
	}
}

// TestShardCrossShardReadsAtomic: writers commit batches whose works
// share one marker title term and span several shards, while readers
// search the marker of each writer's in-flight batch. Every search must
// return none of the batch or all of it: a batch publishes every
// shard's portion in one snapshot root, so no reader can see it on some
// shards and not yet on others. Runs under -race in CI.
func TestShardCrossShardReadsAtomic(t *testing.T) {
	ix := openShards(t, t.TempDir(), 4)
	defer ix.Close()

	const writers, readers, batches, size = 2, 4, 150, 8
	marker := func(g, b int) string { return fmt.Sprintf("xmark%dv%d", g, b) }
	var inflight [writers]atomic.Int64
	stop := make(chan struct{})
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := (r + i) % writers
				m := marker(g, int(inflight[g].Load()))
				if got := len(ix.Search(m, 0)); got != 0 && got != size {
					t.Errorf("Search(%q) saw %d of a %d-work cross-shard batch", m, got, size)
					return
				}
			}
		}(r)
	}
	for g := 0; g < writers; g++ {
		wwg.Add(1)
		go func(g int) {
			defer wwg.Done()
			for b := 0; b < batches; b++ {
				inflight[g].Store(int64(b))
				batch := make([]Work, size)
				for i := range batch {
					batch[i] = sampleWork(
						fmt.Sprintf("Visibility Study %s Part %d", marker(g, b), i),
						fmt.Sprintf("%d:%d (1990)", 10+g, b*size+i+1),
						fmt.Sprintf("Reader%d, R.", i%3))
				}
				ids, err := ix.AddBatch(batch)
				if err != nil {
					t.Errorf("AddBatch: %v", err)
					return
				}
				homes := map[int]bool{}
				for _, id := range ids {
					homes[ix.shards.ForWork(id)] = true
				}
				if len(homes) < 2 {
					t.Errorf("batch %d landed on %d shard, want a cross-shard batch", b, len(homes))
					return
				}
			}
		}(g)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestShardWritersIndependent: a writer stalled inside its home shard's
// critical section must not delay a writer on a different shard. Runs
// under -race in CI with real concurrency.
func TestShardWritersIndependent(t *testing.T) {
	ix := openShards(t, t.TempDir(), 4)
	defer ix.Close()

	// Two explicit IDs with different home shards.
	idA := WorkID(1)
	idB := WorkID(0)
	for id := WorkID(2); id < 200; id++ {
		if ix.shards.ForWork(id) != ix.shards.ForWork(idA) {
			idB = id
			break
		}
	}
	if idB == 0 {
		t.Fatal("no second shard reachable")
	}

	// Park shard A by holding its writer lock, as a writer stalled
	// inside its critical section would; a writer queued on it waits.
	sa := ix.shards.Shard(ix.shards.ForWork(idA))
	sa.Lock()
	slowDone := make(chan error, 1)
	go func() {
		w := sampleWork("Slow Shard Work", "90:1 (1988)", "Stall, Writer A.")
		w.ID = idA
		_, err := ix.Add(w)
		slowDone <- err
	}()

	// A writer on shard B must commit without waiting for shard A.
	fastDone := make(chan error, 1)
	go func() {
		w := sampleWork("Fast Shard Work", "90:2 (1988)", "Free, Writer B.")
		w.ID = idB
		_, err := ix.Add(w)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast Add: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer on shard B blocked behind a stalled writer on shard A")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("Add on a held shard returned early: %v", err)
	default:
	}

	// Reads must also proceed while the writer is parked.
	if got := ix.Len(); got != 1 {
		t.Errorf("Len during stalled write = %d, want 1", got)
	}

	sa.Unlock()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow Add: %v", err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestShardedReadsMatchUnsharded: the same corpus opened at shards=1
// and shards=4 must be observably identical — renders byte for byte,
// plus author, search, subject, pagination, duplicate-suggestion and
// stats agreement. This pins down every k-way merge at once.
func TestShardedReadsMatchUnsharded(t *testing.T) {
	dir := t.TempDir()
	ix1 := openT(t, dir)
	if _, err := ix1.AddBatch(batchOf(40, 7)); err != nil {
		t.Fatal(err)
	}
	// A spelling-variant pair and a student/professional pair, each
	// split across shards at shards=4 (checked below), and the
	// professional heading filed on two works.
	variants := []Work{
		sampleWork("Variant Spelling", "90:1 (1988)", "Müller, Karl"),
		sampleWork("Plain Spelling", "90:2 (1988)", "Muller, Karl"),
		sampleWork("Student Note", "90:3 (1988)", "Barrett, Joshua I.*"),
		sampleWork("Professional Article", "90:4 (1988)", "Barrett, Joshua I."),
		sampleWork("Professional Sequel", "90:5 (1988)", "Barrett, Joshua I."),
	}
	variantIDs, err := ix1.AddBatch(variants)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix1.AddSeeAlso("Batch, Author 0.", "Batch, Author 1."); err != nil {
		t.Fatal(err)
	}

	render := func(ix *Index, f Format) string {
		var buf bytes.Buffer
		if err := ix.Render(&buf, RenderOptions{Format: f}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	titleIdx := func(ix *Index) string {
		var buf bytes.Buffer
		if err := ix.RenderTitleIndex(&buf, RenderOptions{Format: Text}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// Authors returns pointers; format element-wise so the comparison
	// sees values, not addresses.
	fmtEntries := func(entries []*Entry) string {
		var sb strings.Builder
		for _, e := range entries {
			fmt.Fprintf(&sb, "%+v\n", *e)
		}
		return sb.String()
	}

	wantText, wantTSV, wantJSON := render(ix1, Text), render(ix1, TSV), render(ix1, JSON)
	wantTitles := titleIdx(ix1)
	wantAuthors := fmtEntries(ix1.Authors("", 0))
	wantPage := fmtEntries(ix1.AuthorsPage("", 7))
	wantSearch := fmt.Sprintf("%+v", ix1.Search("batch", 0))
	wantYears := fmt.Sprintf("%+v", ix1.YearRange(1960, 1999, 0))
	wantSubjects := fmt.Sprintf("%+v", ix1.Subjects())
	dups1 := ix1.DuplicateSuggestions()
	var spelling, student bool
	for _, d := range dups1 {
		spelling = spelling || d.Reason == SpellingVariant
		student = student || d.Reason == StudentVariant
	}
	if !spelling || !student {
		t.Fatalf("DuplicateSuggestions at shards=1 lacks a spelling or student pair: %+v", dups1)
	}
	wantDups := fmt.Sprintf("%+v", dups1)
	st1 := ix1.Stats()
	if st1.StudentNotes == 0 {
		t.Fatal("corpus has no student notes")
	}
	if err := ix1.Close(); err != nil {
		t.Fatal(err)
	}

	ix4 := openShards(t, dir, 4)
	defer ix4.Close()
	if err := ix4.Verify(); err != nil {
		t.Fatalf("Verify at shards=4: %v", err)
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		a, b := variantIDs[pair[0]], variantIDs[pair[1]]
		if ix4.shards.ForWork(a) == ix4.shards.ForWork(b) {
			t.Fatalf("works %d and %d share a shard; the pair must be split", a, b)
		}
	}
	if got := render(ix4, Text); got != wantText {
		t.Error("text render differs between shards=1 and shards=4")
	}
	if got := render(ix4, TSV); got != wantTSV {
		t.Error("tsv render differs between shards=1 and shards=4")
	}
	if got := render(ix4, JSON); got != wantJSON {
		t.Error("json render differs between shards=1 and shards=4")
	}
	if got := titleIdx(ix4); got != wantTitles {
		t.Error("title index differs between shards=1 and shards=4")
	}
	if got := fmtEntries(ix4.Authors("", 0)); got != wantAuthors {
		t.Error("Authors differ between shards=1 and shards=4")
	}
	if got := fmtEntries(ix4.AuthorsPage("", 7)); got != wantPage {
		t.Error("AuthorsPage differs between shards=1 and shards=4")
	}
	if got := fmt.Sprintf("%+v", ix4.Search("batch", 0)); got != wantSearch {
		t.Error("Search differs between shards=1 and shards=4")
	}
	if got := fmt.Sprintf("%+v", ix4.YearRange(1960, 1999, 0)); got != wantYears {
		t.Error("YearRange differs between shards=1 and shards=4")
	}
	if got := fmt.Sprintf("%+v", ix4.Subjects()); got != wantSubjects {
		t.Error("Subjects differ between shards=1 and shards=4")
	}
	if got := fmt.Sprintf("%+v", ix4.DuplicateSuggestions()); got != wantDups {
		t.Errorf("DuplicateSuggestions differ:\nshards=1 %s\nshards=4 %s", wantDups, got)
	}
	st4 := ix4.Stats()
	if st4.Works != st1.Works || st4.Authors != st1.Authors ||
		st4.Postings != st1.Postings || st4.CrossRefs != st1.CrossRefs ||
		st4.StudentNotes != st1.StudentNotes {
		t.Errorf("core stats differ: shards=1 %+v, shards=4 %+v", st1, st4)
	}
	if st4.Shards != 4 {
		t.Errorf("Stats.Shards = %d, want 4", st4.Shards)
	}
	waitQuiescent(t, ix4)
	if got := ix4.EpochsAlive(); got != 1 {
		t.Errorf("EpochsAlive at shards=4 quiescence = %d, want 1 (one root for every shard)", got)
	}
}

// TestArenaCompactionReclaimsMemory: after a bulk delete crosses the
// dead-slot threshold, the writer compacts the bulk-load arena; once
// the pre-compaction roots are collected, the deleted works become
// garbage — observed directly with a finalizer.
func TestArenaCompactionReclaimsMemory(t *testing.T) {
	dir := t.TempDir()
	ix := openT(t, dir)
	ids, err := ix.AddBatch(batchOf(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Reopen: the cold start bulk-loads the corpus into the arena slab,
	// which is what pins deleted works until compaction.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix = openT(t, dir)
	defer ix.Close()

	freed := make(chan struct{})
	func() {
		eng := ix.shards.Load().Engs[0]
		if total, dead := eng.ArenaStats(); total != 40 || dead != 0 {
			t.Fatalf("arena after reopen = (%d, %d), want (40, 0)", total, dead)
		}
		victim, ok := eng.WorkView(ids[0])
		if !ok {
			t.Fatal("work 0 missing after reopen")
		}
		runtime.SetFinalizer(victim, func(*model.Work) { close(freed) })
	}()

	// Delete 30 of 40: the dead ratio crosses the 0.5 threshold inside
	// the batch, so the published engine carries a compacted arena.
	if err := ix.DeleteBatch(ids[:30]); err != nil {
		t.Fatal(err)
	}
	if total, dead := ix.shards.Load().Engs[0].ArenaStats(); total != 10 || dead != 0 {
		t.Errorf("arena after compacting delete = (%d, %d), want (10, 0)", total, dead)
	}

	// Wait for the pre-compaction roots to be collected, then force GC
	// until the finalizer proves the deleted work was actually released.
	waitQuiescent(t, ix)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if err := ix.Verify(); err != nil {
				t.Fatalf("Verify after compaction: %v", err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("deleted arena work never became collectible after compaction + root collection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Satellite regression: render appendix limits route through the shared
// clamp — zero and negative limits mean the documented default of 10,
// and absurd explicit limits clamp to MaxLimit instead of passing
// through raw.
func TestRenderAppendixLimitClamped(t *testing.T) {
	for _, n := range []int{-5, 0} {
		if got := appendixLimit(n); got != 10 {
			t.Errorf("appendixLimit(%d) = %d, want 10", n, got)
		}
	}
	if got := appendixLimit(7); got != 7 {
		t.Errorf("appendixLimit(7) = %d, want 7", got)
	}
	if got := appendixLimit(MaxLimit + 1); got != MaxLimit {
		t.Errorf("appendixLimit(MaxLimit+1) = %d, want %d", got, MaxLimit)
	}

	// End to end: a render asked for a negative appendix limit behaves
	// exactly like the default top-10 render.
	ix := openT(t, t.TempDir())
	defer ix.Close()
	if _, err := ix.AddBatch(batchOf(15, 4)); err != nil {
		t.Fatal(err)
	}
	render := func(statsLimit, netLimit int) string {
		var buf bytes.Buffer
		err := ix.Render(&buf, RenderOptions{
			Format: JSON, Statistics: true, Network: true,
			StatsLimit: statsLimit, NetworkLimit: netLimit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(10, 10)
	for _, n := range []int{-3, 0} {
		if got := render(n, n); got != want {
			t.Errorf("render with appendix limit %d differs from explicit 10", n)
		}
	}
}
