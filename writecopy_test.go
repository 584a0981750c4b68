package authorindex

import (
	"errors"
	"reflect"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/fault"
)

// overwriteWork overwrites every string a caller could still reach in w.
func overwriteWork(w *Work) {
	w.Title = "Overwritten"
	for i := range w.Authors {
		w.Authors[i].Family = "Overwritten"
	}
	for i := range w.Subjects {
		w.Subjects[i] = "Overwritten"
	}
}

// TestWritesCopyCallerWorks pins the facade's inbound copy, the only
// copy a written work gets: once Add or AddBatch returns, the caller's
// works are the caller's again, and overwriting them changes nothing
// the index serves, in memory or after a reopen. A failed batch leaves
// them as they were.
func TestWritesCopyCallerWorks(t *testing.T) {
	for _, c := range []struct {
		name string
		dir  string
	}{{"memory", ""}, {"durable", t.TempDir()}} {
		t.Run(c.name, func(t *testing.T) {
			ix := openT(t, c.dir)
			one := sampleWork("Original Single", "90:1 (1988)", "Original, Ada B.")
			one.Subjects = []string{"Original Subject"}
			batch := []Work{
				sampleWork("Original First", "90:20 (1988)", "Original, Ada B.", "Keeper, Bo C."),
				sampleWork("Original Second", "90:40 (1988)", "Keeper, Bo C."),
			}
			batch[0].Subjects = []string{"Original Subject"}
			batch[1].Subjects = []string{"Original Subject", "Second Subject"}
			id, err := ix.Add(one)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := ix.AddBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			overwriteWork(&one)
			for i := range batch {
				overwriteWork(&batch[i])
			}
			check := func(ix *Index, when string) {
				t.Helper()
				for want, id := range map[string]WorkID{"Original Single": id, "Original First": ids[0], "Original Second": ids[1]} {
					if w, ok := ix.Get(id); !ok || w.Title != want {
						t.Errorf("%s: Get(%d) = %v,%v, want %q", when, id, w, ok, want)
					}
				}
				for heading, n := range map[string]int{"Original, Ada B.": 2, "Keeper, Bo C.": 2} {
					if e, ok := ix.Author(heading); !ok || len(e.Works) != n {
						t.Errorf("%s: Author(%q) = %+v,%v, want %d works", when, heading, e, ok, n)
					}
				}
				if got := ix.Search("original", 0); len(got) != 3 {
					t.Errorf("%s: Search(original) found %d works, want 3", when, len(got))
				}
				if got := ix.BySubject("Original Subject", 0); len(got) != 3 {
					t.Errorf("%s: BySubject(Original Subject) found %d works, want 3", when, len(got))
				}
				if got := ix.BySubject("Second Subject", 0); len(got) != 1 {
					t.Errorf("%s: BySubject(Second Subject) found %d works, want 1", when, len(got))
				}
				if got := ix.Search("overwritten", 0); len(got) != 0 {
					t.Errorf("%s: Search(overwritten) found %d works", when, len(got))
				}
				if got := ix.BySubject("Overwritten", 0); len(got) != 0 {
					t.Errorf("%s: BySubject(Overwritten) found %d works", when, len(got))
				}
				if err := ix.Verify(); err != nil {
					t.Errorf("%s: Verify: %v", when, err)
				}
			}
			check(ix, "after the writes")
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if c.dir != "" {
				ix = openT(t, c.dir)
				defer ix.Close()
				check(ix, "after reopen")
			}
		})
	}
	t.Run("failed batches", testFailedWritesLeaveCallerWorks)
}

// testFailedWritesLeaveCallerWorks: a batch that fails — on an invalid
// work, on a failing fsync after the store assigned IDs to its copies,
// or on a degraded store — leaves the caller's works as they were,
// zero IDs included.
func testFailedWritesLeaveCallerWorks(t *testing.T) {
	in := fault.NewInjector(nil)
	ix, err := Open(t.TempDir(), &Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	doomed := func() []Work {
		return []Work{
			sampleWork("Doomed A", "99:1 (1999)", "Nobody, At All"),
			sampleWork("Doomed B", "99:50 (1999)", "Nobody, At All", "Lewin, Jeff L."),
		}
	}
	invalid := doomed()
	invalid[1].Title = ""
	for _, c := range []struct {
		name  string
		works []Work
		arm   func()
		want  error
	}{
		{"invalid work", invalid, func() {}, nil},
		{"failing fsync", doomed(), func() {
			in.Arm()
			in.Fail(fault.Rule{Op: fault.OpSync, Nth: 1, Err: syscall.EIO})
		}, syscall.EIO},
		{"degraded store", doomed(), in.Disarm, ErrDegraded},
	} {
		want := make([]Work, len(c.works))
		for i := range c.works {
			want[i] = *c.works[i].Clone()
		}
		c.arm()
		if _, err := ix.AddBatch(c.works); err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Fatalf("%s: AddBatch = %v, want %v", c.name, err, c.want)
		}
		if !reflect.DeepEqual(c.works, want) {
			t.Errorf("%s: failed AddBatch changed the caller's works:\n got %+v\nwant %+v", c.name, c.works, want)
		}
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d after only failed batches", ix.Len())
	}
}

// TestWrittenWorksOneCopy pins the heap a work written through the
// facade costs: its one deep copy, filed by the store's delta and
// indexed by the engine, plus the engine's entry and postings. A second
// copy of each work (the store's or the engine's) breaks the bounds.
func TestWrittenWorksOneCopy(t *testing.T) {
	t.Run("memory", func(t *testing.T) { measureWrittenWorks(t, false) })
	t.Run("durable", func(t *testing.T) { measureWrittenWorks(t, true) })
}

// measureWrittenWorks adds 20k generated works, IDs zeroed, through
// AddBatch in 256-work batches to an in-memory or an unsynced durable
// index that never compacts, and bounds the heap they leave behind.
// 7.80 objects and 1,100 bytes per work; the store and the engine that
// each filed a clone of every work held 10.80 and 1,327.
func measureWrittenWorks(t *testing.T, durable bool) {
	const n, batch = 20_000, 256
	works := GenerateCorpus(CorpusConfig{Seed: 5, Works: n})
	in := make([]Work, n)
	for i, w := range works {
		in[i] = *w
		in[i].ID = 0
	}
	dir := ""
	if durable {
		dir = t.TempDir()
	}
	ix := openT(t, dir)
	defer ix.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i += batch {
		if _, err := ix.AddBatch(in[i:min(i+batch, n)]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)
	objs := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
	size := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%d works: %.2f heap objects and %.0f bytes per written work", n, objs, size)
	if objs > 8.5 || size > 1200 {
		t.Errorf("index holds %.2f heap objects and %.0f bytes per written work, want <= 8.50 and <= 1200", objs, size)
	}
}
