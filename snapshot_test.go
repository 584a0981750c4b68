// Tests for snapshot reads: a held snapshot root must stay internally
// consistent for as long as it is held no matter how many commits land
// meanwhile, and replaced roots must actually be reclaimed by the
// garbage collector — the epochs-alive gauge returns to 1 once nothing
// holds an old root, with no reader goroutines left behind. These run
// under -race in CI.
package authorindex

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
)

// storm runs w writer goroutines, each firing iters alternating
// AddBatch / DeleteBatch commits, and returns after all have landed.
func storm(t *testing.T, ix *Index, writers, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				batch := make([]Work, 3)
				for j := range batch {
					batch[j] = sampleWork(
						fmt.Sprintf("Storm Work %d-%d-%d", g, i, j),
						fmt.Sprintf("8%d:%d (198%d)", g, 1+(i*3+j)%1400, g%10),
						fmt.Sprintf("Storm, Writer %d.", g))
				}
				ids, err := ix.AddBatch(batch)
				if err != nil {
					t.Errorf("storm AddBatch: %v", err)
					return
				}
				if i%2 == 1 {
					if err := ix.DeleteBatch(ids); err != nil {
						t.Errorf("storm DeleteBatch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSnapshotPinnedFingerprintStable: readers load a snapshot root,
// hold it across a concurrent write storm, and assert the held engine's
// corpus fingerprint never moves while they hold it. This is the
// isolation guarantee in one bit: commits replace the published root,
// they never mutate a held one.
func TestSnapshotPinnedFingerprintStable(t *testing.T) {
	ix := openT(t, t.TempDir())
	defer ix.Close()
	for i := 0; i < 20; i++ {
		if _, err := ix.Add(sampleWork(
			fmt.Sprintf("Seed Work %d", i),
			fmt.Sprintf("90:%d (1988)", i+1),
			"Seed, Author A.")); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 4
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng := ix.engine()
				want := eng.CorpusFingerprint()
				// Hold the root across real reads while writers commit.
				eng.TitleSearchView("storm", 8)
				eng.AuthorPrefix("s", 8)
				time.Sleep(100 * time.Microsecond)
				if got := eng.CorpusFingerprint(); got != want {
					t.Errorf("held snapshot fingerprint moved: %x -> %x", want, got)
					return
				}
			}
		}()
	}
	storm(t, ix, 2, 25)
	close(stop)
	wg.Wait()

	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify after storm: %v", err)
	}
}

// TestEpochReclamation: after a write storm with concurrent readers,
// every replaced root is collected — the epochs-alive gauge returns to
// exactly 1 (the current root) under forced collections — and no
// reader goroutines leak.
func TestEpochReclamation(t *testing.T) {
	before := runtime.NumGoroutine()
	ix := openT(t, t.TempDir())
	defer ix.Close()
	if got := ix.EpochsAlive(); got != 1 {
		t.Fatalf("EpochsAlive at open = %d, want 1", got)
	}

	for i := 0; i < 10; i++ {
		if _, err := ix.Add(sampleWork(
			fmt.Sprintf("Reclaim Work %d", i),
			fmt.Sprintf("91:%d (1989)", i+1),
			"Reclaim, Author B.")); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix.Search("storm", 8)
				ix.Authors("s", 8)
				ix.Len()
			}
		}()
	}
	storm(t, ix, 2, 20)
	close(stop)
	wg.Wait()

	waitQuiescent(t, ix)
	if got := ix.EpochsAlive(); got != 1 {
		t.Errorf("EpochsAlive after storm = %d, want 1 (replaced roots leaked)", got)
	}

	// A held root keeps exactly itself alive across commits and
	// collections, its engine included...
	held := ix.root.Load()
	heldLen := held.Eng.Len()
	if _, err := ix.Add(sampleWork("After Pin", "92:1 (1990)", "Late, Writer C.")); err != nil {
		t.Fatal(err)
	}
	collect()
	if got := ix.EpochsAlive(); got != 2 {
		t.Errorf("EpochsAlive with one held replaced root = %d, want 2", got)
	}
	if got := held.Eng.Len(); got != heldLen {
		t.Errorf("held root's engine changed: Len %d -> %d", heldLen, got)
	}
	// ...and dropping the last reference lets the collector take it.
	runtime.KeepAlive(held)
	waitQuiescent(t, ix)
	if got := ix.EpochsAlive(); got != 1 {
		t.Errorf("EpochsAlive after dropping the held root = %d, want 1", got)
	}

	// No goroutines left behind by the snapshot machinery.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew %d -> %d across snapshot storm", before, after)
	}
}

// TestRootPinPublishReclaim: a commit publishes a new root one Seq step
// on with a new engine, and leaves a root a reader holds untouched; the
// held root keeps itself alive across collections, and once dropped the
// collector takes it and the count of live roots returns to 1.
func TestRootPinPublishReclaim(t *testing.T) {
	ix := openT(t, "")
	defer ix.Close()
	if got := ix.EpochsAlive(); got != 1 {
		t.Fatalf("EpochsAlive at open = %d, want 1", got)
	}
	held := ix.root.Load()
	heldEng := held.Eng
	if _, err := ix.Add(sampleWork("Pinned Work", "94:1 (1992)", "Pin, Holder D.")); err != nil {
		t.Fatal(err)
	}
	fresh := ix.root.Load()
	if fresh.Seq != held.Seq+1 {
		t.Errorf("Seq %d -> %d, want one step", held.Seq, fresh.Seq)
	}
	if fresh.Eng == heldEng {
		t.Fatal("a commit did not publish a new engine")
	}
	if held.Eng != heldEng || held.Eng.Len() != 0 {
		t.Fatal("a commit mutated a held root")
	}
	for i := 0; i < 3; i++ {
		collect()
	}
	if got := ix.EpochsAlive(); got != 2 {
		t.Fatalf("EpochsAlive with a held replaced root = %d, want 2", got)
	}
	runtime.KeepAlive(held)
	waitQuiescent(t, ix)
	if got := ix.EpochsAlive(); got != 1 {
		t.Fatalf("EpochsAlive after dropping the held root = %d, want 1", got)
	}
}

// TestEpochPinnedAcrossSlowRender: a render holds one snapshot root for
// its whole (slow) duration; commits landing meanwhile neither block on
// it nor mutate what it renders, and once it finishes its root is
// collected. The writer below yields between section writes to stretch
// the render across many commits.
func TestEpochPinnedAcrossSlowRender(t *testing.T) {
	ix := openT(t, t.TempDir())
	defer ix.Close()
	for i := 0; i < 30; i++ {
		if _, err := ix.Add(sampleWork(
			fmt.Sprintf("Render Work %d", i),
			fmt.Sprintf("93:%d (1991)", i+1),
			fmt.Sprintf("Render, Author %c.", 'A'+i%20))); err != nil {
			t.Fatal(err)
		}
	}
	renderDone := make(chan error, 1)
	var out strings.Builder
	sw := &slowWriter{w: &out, started: make(chan struct{})}
	go func() {
		renderDone <- ix.Render(sw, RenderOptions{Format: Text})
	}()

	// The first section write proves the render has loaded its root;
	// only then do the storm commits start, so every storm work is
	// strictly post-load and must be invisible to the render.
	<-sw.started
	storm(t, ix, 2, 10)
	if err := <-renderDone; err != nil {
		t.Fatalf("Render: %v", err)
	}
	if strings.Contains(out.String(), "Storm Work") {
		t.Error("render output contains storm works committed after its pin")
	}

	waitQuiescent(t, ix)
	if got := ix.EpochsAlive(); got != 1 {
		t.Errorf("EpochsAlive after slow render = %d, want 1", got)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestRootDroppedIndexCollected: an index nothing references any more
// is collected, engine included, with nothing opened after it — neither
// the current root's sentinel nor a metrics registry may keep it
// reachable.
func TestRootDroppedIndexCollected(t *testing.T) {
	freed := make(chan struct{})
	func() {
		ix := openT(t, "")
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(ix.engine(), func(*query.Engine) { close(freed) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		collect()
		select {
		case <-freed:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped index's engine was never collected")
		}
	}
}

// waitQuiescent forces collections until every replaced root has been
// collected or a deadline passes; callers then assert the count.
func waitQuiescent(t *testing.T, ix *Index) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ix.EpochsAlive() > 1 && time.Now().Before(deadline) {
		collect()
	}
}

// collect runs a collection cycle and gives the finalizer goroutine a
// moment to count the roots it freed.
func collect() {
	runtime.GC()
	time.Sleep(5 * time.Millisecond)
}

// slowWriter stretches a render out by yielding on every write, and
// closes started on the first one.
type slowWriter struct {
	w       io.Writer
	started chan struct{}
	once    sync.Once
}

func (s *slowWriter) Write(p []byte) (int, error) {
	s.once.Do(func() { close(s.started) })
	time.Sleep(200 * time.Microsecond)
	return s.w.Write(p)
}
