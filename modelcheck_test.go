package authorindex

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestFacadeModelCheck drives the full public API with a randomized
// operation stream mirrored against plain in-memory reference state,
// with periodic compaction and crash-free reopens. Batched mutations
// (AddBatch, DeleteBatch, and deliberately failing batches) interleave
// with single-work ops, and every batched mutation is followed by a
// full Verify — the metrics- and graph-fingerprint cross-check — so a
// batch that diverges from N sequential ops dies immediately, not at
// the epoch boundary. After every epoch the index must agree with the
// model on membership, author filing, title search and year ranges.
func TestFacadeModelCheck(t *testing.T) { runModelCheck(t, 0) }

// TestFacadeModelCheckSharded runs the identical randomized stream
// against an index opened with Options.Shards: 3, which Open validates
// and then ignores: the observable behavior must be indistinguishable
// from the default run. In both runs a concurrent reader searches each
// batch's marker term while the batch commits or fails, and must see
// none of the batch or all of it.
func TestFacadeModelCheckSharded(t *testing.T) { runModelCheck(t, 3) }

func runModelCheck(t *testing.T, shards int) {
	dir := t.TempDir()
	open := func() *Index {
		t.Helper()
		ix, err := Open(dir, &Options{NoSync: true, Shards: shards})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return ix
	}
	ix := open()
	r := rand.New(rand.NewSource(1993))
	model := map[WorkID]Work{} // reference state

	families := []string{"Smith", "Jones", "Müller", "McAdam", "Van Dyke", "O'Brien", "Lee", "Garcia"}
	topics := []string{"mining", "taxation", "evidence", "zoning", "bankruptcy", "negligence"}

	randomWork := func() Work {
		nTitle := 1 + r.Intn(3)
		words := make([]string, nTitle)
		for i := range words {
			words[i] = topics[r.Intn(len(topics))]
		}
		for i, word := range words {
			words[i] = strings.ToUpper(word[:1]) + word[1:]
		}
		w := Work{
			Title: strings.Join(words, " ") + fmt.Sprintf(" No. %d", r.Intn(10_000)),
			Citation: Citation{
				Volume: 60 + r.Intn(40),
				Page:   1 + r.Intn(1500),
				Year:   1960 + r.Intn(40),
			},
		}
		for i := 0; i <= r.Intn(2); i++ {
			w.Authors = append(w.Authors, Author{
				Family:  families[r.Intn(len(families))],
				Given:   fmt.Sprintf("%c.", 'A'+r.Intn(8)),
				Student: r.Intn(4) == 0,
			})
		}
		// Occasional duplicate author in the byline would be legal but
		// confuses posting counts in the reference; dedupe.
		if len(w.Authors) == 2 && w.Authors[0] == w.Authors[1] {
			w.Authors = w.Authors[:1]
		}
		if r.Intn(2) == 0 {
			w.Subjects = []string{topics[r.Intn(len(topics))]}
		}
		return w
	}

	checkEpoch := func(epoch int) {
		t.Helper()
		if ix.Len() != len(model) {
			t.Fatalf("epoch %d: Len %d != model %d", epoch, ix.Len(), len(model))
		}
		if err := ix.Verify(); err != nil {
			t.Fatalf("epoch %d: Verify: %v", epoch, err)
		}
		// Author filing: recompute per-heading work sets from the model.
		wantByAuthor := map[string][]WorkID{}
		for id, w := range model {
			for _, a := range w.Authors {
				k := FormatAuthor(a)
				wantByAuthor[k] = append(wantByAuthor[k], id)
			}
		}
		for heading, wantIDs := range wantByAuthor {
			entry, ok := ix.Author(heading)
			if !ok {
				t.Fatalf("epoch %d: heading %q missing", epoch, heading)
			}
			gotIDs := make([]WorkID, len(entry.Works))
			for i, w := range entry.Works {
				gotIDs[i] = w.ID
			}
			sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
			sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("epoch %d: heading %q has %d works, want %d", epoch, heading, len(gotIDs), len(wantIDs))
			}
			for i := range wantIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("epoch %d: heading %q ids %v want %v", epoch, heading, gotIDs, wantIDs)
				}
			}
		}
		// Title search vs brute force for each topic word.
		for _, topic := range topics {
			want := 0
			for _, w := range model {
				if strings.Contains(strings.ToLower(w.Title), topic) {
					want++
				}
			}
			if got := len(ix.Search(topic, 0)); got != want {
				t.Fatalf("epoch %d: Search(%q) = %d, want %d", epoch, topic, got, want)
			}
		}
		// Year range vs brute force.
		for _, span := range [][2]int{{1960, 1999}, {1970, 1979}, {1995, 1995}} {
			want := 0
			for _, w := range model {
				if w.Citation.Year >= span[0] && w.Citation.Year <= span[1] {
					want++
				}
			}
			if got := len(ix.YearRange(span[0], span[1], 0)); got != want {
				t.Fatalf("epoch %d: YearRange%v = %d, want %d", epoch, span, got, want)
			}
		}
	}

	// duringBatch tags every work of a batch with a fresh marker title
	// term and runs commit while a concurrent reader searches for the
	// marker: each search must find none of the batch or all want of
	// its works (want is 0 for a batch that must fail). The reader is
	// idle again when duringBatch returns.
	type inflight struct {
		ix     *Index
		marker string
		want   int
		done   chan struct{}
	}
	checks, idle := make(chan inflight), make(chan struct{})
	defer close(checks)
	go func() {
		for f := range checks {
			for finished := false; !finished; {
				select {
				case <-f.done:
					finished = true
				default:
				}
				if got := len(f.ix.Search(f.marker, 0)); got != 0 && got != f.want {
					t.Errorf("Search(%q) during a batch saw %d works, want 0 or %d", f.marker, got, f.want)
				}
			}
			idle <- struct{}{}
		}
	}()
	markers := 0
	duringBatch := func(batch []Work, want int, commit func() error) error {
		markers++
		f := inflight{ix: ix, marker: fmt.Sprintf("zqbatch%d", markers), want: want, done: make(chan struct{})}
		for i := range batch {
			if batch[i].Title != "" { // an invalid empty title stays invalid
				batch[i].Title += " " + f.marker
			}
		}
		checks <- f
		err := commit()
		close(f.done)
		<-idle
		return err
	}

	// verifyBatched runs after every batched mutation: the full invariant
	// sweep, including the metrics and graph fingerprint cross-checks.
	verifyBatched := func(what string) {
		t.Helper()
		if ix.Len() != len(model) {
			t.Fatalf("after %s: Len %d != model %d", what, ix.Len(), len(model))
		}
		if err := ix.Verify(); err != nil {
			t.Fatalf("after %s: Verify: %v", what, err)
		}
	}

	for epoch := 0; epoch < 6; epoch++ {
		for op := 0; op < 120; op++ {
			switch r.Intn(14) {
			case 0, 1, 2, 3, 4, 5: // add
				w := randomWork()
				id, err := ix.Add(w)
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				w.ID = id
				model[id] = w
			case 6, 7: // delete a random live work
				for id := range model {
					if err := ix.Delete(id); err != nil {
						t.Fatalf("Delete(%d): %v", id, err)
					}
					delete(model, id)
					break
				}
			case 8: // replace an existing work under the same ID
				for id, old := range model {
					w := randomWork()
					w.ID = id
					if _, err := ix.Add(w); err != nil {
						t.Fatalf("replace %d: %v", id, err)
					}
					model[id] = w
					_ = old
					break
				}
			case 9: // compact occasionally
				if op%3 == 0 {
					if err := ix.Compact(); err != nil {
						t.Fatalf("Compact: %v", err)
					}
				}
			case 10, 11: // add a batch, sometimes replacing live works in-flight
				n := 1 + r.Intn(8)
				batch := make([]Work, n)
				for i := range batch {
					batch[i] = randomWork()
				}
				if r.Intn(3) == 0 {
					// Give one batch member an explicit live ID: the batch
					// must replace it exactly as a sequential re-Add would.
					for id := range model {
						batch[r.Intn(n)].ID = id
						break
					}
				}
				var ids []WorkID
				err := duringBatch(batch, n, func() (err error) {
					ids, err = ix.AddBatch(batch)
					return err
				})
				if err != nil {
					t.Fatalf("AddBatch(%d): %v", n, err)
				}
				if len(ids) != n {
					t.Fatalf("AddBatch returned %d ids for %d works", len(ids), n)
				}
				for i, id := range ids {
					w := batch[i]
					w.ID = id
					model[id] = w
				}
				verifyBatched(fmt.Sprintf("AddBatch(%d)", n))
			case 12: // delete a batch of random live works
				var ids []WorkID
				want := 1 + r.Intn(6)
				for id := range model {
					ids = append(ids, id)
					if len(ids) >= want {
						break
					}
				}
				if len(ids) == 0 {
					continue
				}
				if err := ix.DeleteBatch(ids); err != nil {
					t.Fatalf("DeleteBatch(%v): %v", ids, err)
				}
				for _, id := range ids {
					delete(model, id)
				}
				verifyBatched(fmt.Sprintf("DeleteBatch(%d)", len(ids)))
			case 13: // failing batch: one invalid member, nothing may change
				n := 2 + r.Intn(5)
				batch := make([]Work, n)
				for i := range batch {
					batch[i] = randomWork()
				}
				batch[r.Intn(n)].Title = "" // invalid
				err := duringBatch(batch, 0, func() error {
					_, err := ix.AddBatch(batch)
					return err
				})
				if err == nil {
					t.Fatal("AddBatch accepted an invalid work")
				}
				verifyBatched("failed AddBatch")
			}
		}
		checkEpoch(epoch)
		// Reopen between epochs: recovery must reproduce the model.
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		ix = open()
		checkEpoch(epoch)
	}
	ix.Close()
}
