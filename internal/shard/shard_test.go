package shard

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/query"
)

func mkMap(n int) *Map {
	return New(n, func(i int) *query.Engine { return query.New(collate.Default()) })
}

func TestShardRoutingDeterministic(t *testing.T) {
	m1, m2 := mkMap(8), mkMap(8)
	hit := make(map[int]int)
	for id := model.WorkID(1); id <= 1000; id++ {
		si := m1.ForWork(id)
		if si < 0 || si >= 8 {
			t.Fatalf("ForWork(%d) = %d out of range", id, si)
		}
		if got := m2.ForWork(id); got != si {
			t.Fatalf("ForWork(%d) differs across maps: %d vs %d", id, si, got)
		}
		hit[si]++
	}
	// The multiplicative scramble must spread sequential IDs: every
	// shard sees a reasonable share of 1000 sequential IDs.
	for si := 0; si < 8; si++ {
		if hit[si] < 50 {
			t.Errorf("shard %d received only %d of 1000 sequential IDs", si, hit[si])
		}
	}

	keys := [][]byte{[]byte("smith, a."), []byte("jones, b."), []byte(""), []byte("müller, c.")}
	for _, k := range keys {
		si := m1.ForKey(k)
		if si < 0 || si >= 8 {
			t.Fatalf("ForKey(%q) = %d out of range", k, si)
		}
		if got := m2.ForKey(k); got != si {
			t.Fatalf("ForKey(%q) differs across maps", k)
		}
	}

	// A single-shard map routes everything to shard 0.
	s1 := mkMap(1)
	for id := model.WorkID(1); id <= 50; id++ {
		if s1.ForWork(id) != 0 {
			t.Fatal("single-shard ForWork != 0")
		}
	}
	if s1.ForKey([]byte("anything")) != 0 {
		t.Fatal("single-shard ForKey != 0")
	}
}

// TestShardPinPublishReclaim: a held root is a frozen snapshot that
// keeps itself (and its engines) alive across publications and
// collections; once dropped, the collector takes it and the count of
// live roots returns to 1.
func TestShardPinPublishReclaim(t *testing.T) {
	m := mkMap(2)
	if got := m.EpochsAlive(); got != 1 {
		t.Fatalf("EpochsAlive after New = %d, want 1", got)
	}
	held := m.Load()
	old0, old1 := held.Engs[0], held.Engs[1]
	// Publishing while a reader holds the old root replaces only the
	// published slot and leaves the held root untouched.
	s := m.Shard(0)
	s.Lock()
	m.Publish(map[int]*query.Engine{0: query.New(collate.Default())})
	s.Unlock()
	fresh := m.Load()
	if fresh.Seq <= held.Seq {
		t.Errorf("Seq not increasing: %d -> %d", held.Seq, fresh.Seq)
	}
	if fresh.Engs[0] == old0 || fresh.Engs[1] != old1 {
		t.Fatal("Publish did not replace exactly its slot in the current root")
	}
	if held.Engs[0] != old0 || held.Engs[1] != old1 {
		t.Fatal("Publish mutated a held root")
	}
	for i := 0; i < 3; i++ {
		collect()
	}
	if got := m.EpochsAlive(); got != 2 {
		t.Fatalf("EpochsAlive with a held replaced root = %d, want 2", got)
	}
	runtime.KeepAlive(held)
	deadline := time.Now().Add(5 * time.Second)
	for m.EpochsAlive() > 1 && time.Now().Before(deadline) {
		collect()
	}
	if got := m.EpochsAlive(); got != 1 {
		t.Fatalf("EpochsAlive after dropping the held root = %d, want 1", got)
	}
}

// TestShardPublishConcurrentSlots: writers on different shards publish
// concurrently; each lost compare-and-swap retries on the winner's root,
// so no publication is lost and every slot ends up holding its own
// writer's last engine.
func TestShardPublishConcurrentSlots(t *testing.T) {
	const n, rounds = 4, 200
	m := mkMap(n)
	last := make([]*query.Engine, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := m.Shard(i)
			for r := 0; r < rounds; r++ {
				eng := query.New(collate.Default())
				s.Lock()
				m.Publish(map[int]*query.Engine{i: eng})
				s.Unlock()
				last[i] = eng
			}
		}(i)
	}
	wg.Wait()
	r := m.Load()
	if want := uint64(1 + n*rounds); r.Seq != want {
		t.Errorf("final Seq = %d, want %d (a publication was lost)", r.Seq, want)
	}
	for i, eng := range r.Engs {
		if eng != last[i] {
			t.Errorf("shard %d holds a stale engine", i)
		}
	}
}

// TestShardDroppedMapCollected: a map nothing references any more is
// collected, engines included — the current root's sentinel must not
// keep its own map reachable.
func TestShardDroppedMapCollected(t *testing.T) {
	freed := make(chan struct{})
	func() {
		m := mkMap(2)
		runtime.SetFinalizer(m.Load().Engs[1], func(*query.Engine) { close(freed) })
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
			t.Fatal("a dropped map's engines were never collected")
		}
	}
}

// collect runs a collection cycle and gives the finalizer goroutine a
// moment to count the roots it freed.
func collect() {
	runtime.GC()
	time.Sleep(5 * time.Millisecond)
}

func TestShardGatherOrder(t *testing.T) {
	engs := mkMap(5).Load().Engs
	got := Gather(engs, func(i int, eng *query.Engine) int {
		if eng != engs[i] {
			return -1
		}
		return i * 10
	})
	for i, g := range got {
		if g != i*10 {
			t.Fatalf("Gather order broken: %v", got)
		}
	}
}

func work(id int, vol, page, year int, title string) *model.Work {
	return &model.Work{
		ID:       model.WorkID(id),
		Title:    title,
		Citation: model.Citation{Volume: vol, Page: page, Year: year},
		Authors:  []model.Author{{Family: "Author", Given: "A."}},
	}
}

// TestMergeAgainstStableSort: the one k-way merge yields exactly the
// runs of "concatenate the parts, stable-sort by key, group equal
// keys", for 0–5 parts with empty parts and keys tied within and
// across parts; it computes each element's key once and stops at the
// first run yield refuses.
func TestMergeAgainstStableSort(t *testing.T) {
	type elem struct{ key, part, pos int }
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 3000; iter++ {
		parts := make([][]elem, r.Intn(6))
		var all []elem
		for p := range parts {
			keys := make([]int, r.Intn(6))
			for i := range keys {
				keys[i] = r.Intn(8)
			}
			sort.Ints(keys)
			for i, k := range keys {
				parts[p] = append(parts[p], elem{k, p, i})
			}
			all = append(all, parts[p]...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
		var want [][]elem
		for i, e := range all {
			if i == 0 || all[i-1].key != e.key {
				want = append(want, nil)
			}
			want[len(want)-1] = append(want[len(want)-1], e)
		}
		// yield refuses its stop-th run; stop > len(want) never stops.
		stop := 1 + r.Intn(len(want)+1)
		keyed := 0
		var got [][]elem
		merge(parts, func(e elem) int { keyed++; return e.key }, cmp.Compare[int], func(run []elem) bool {
			got = append(got, slices.Clone(run))
			return len(got) < stop
		})
		if want = want[:min(stop, len(want))]; !reflect.DeepEqual(got, want) {
			t.Fatalf("parts %v, stop %d: merged %v, want %v", parts, stop, got, want)
		}
		if stop > len(want) && keyed != len(all) || keyed > len(all) {
			t.Fatalf("parts %v, stop %d: %d key calls for %d elements", parts, stop, keyed, len(all))
		}
	}
}

func TestMergeWorksAgainstSort(t *testing.T) {
	parts := [][]*model.Work{
		{work(1, 70, 10, 1968, "Alpha"), work(4, 80, 5, 1978, "Delta"), work(7, 95, 300, 1993, "Golf")},
		{work(2, 70, 10, 1968, "Bravo"), work(5, 80, 5, 1978, "Delta")},
		nil,
		{work(3, 60, 1, 1958, "Charlie"), work(6, 99, 1, 1997, "Foxtrot")},
	}
	// Reference: concatenate in shard order, stable-sort by the same
	// comparator — exactly the tie-to-lower-shard contract.
	var all []*model.Work
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return query.CompareWorks(all[i], all[j]) < 0 })

	got := MergeWorks([][]*model.Work{
		append([]*model.Work(nil), parts[0]...),
		append([]*model.Work(nil), parts[1]...),
		nil,
		append([]*model.Work(nil), parts[3]...),
	}, 0)
	if len(got) != len(all) {
		t.Fatalf("merged %d works, want %d", len(got), len(all))
	}
	for i := range all {
		if got[i].ID != all[i].ID {
			t.Fatalf("position %d: got work %d, want %d", i, got[i].ID, all[i].ID)
		}
	}

	// Limit caps the merge without disturbing the prefix.
	capped := MergeWorks([][]*model.Work{
		append([]*model.Work(nil), parts[0]...),
		append([]*model.Work(nil), parts[1]...),
		nil,
		append([]*model.Work(nil), parts[3]...),
	}, 3)
	if len(capped) != 3 {
		t.Fatalf("limit=3 returned %d works", len(capped))
	}
	for i := 0; i < 3; i++ {
		if capped[i].ID != all[i].ID {
			t.Fatalf("capped position %d: got %d, want %d", i, capped[i].ID, all[i].ID)
		}
	}

	// Single non-empty input comes back as-is (the shards=1 fast path).
	solo := []*model.Work{work(9, 1, 1, 1960, "Solo")}
	if got := MergeWorks([][]*model.Work{nil, solo, nil}, 0); len(got) != 1 || got[0] != solo[0] {
		t.Fatal("single-input fast path did not pass through")
	}
}

func entry(family, given string, works ...model.Work) *core.Entry {
	return &core.Entry{Author: model.Author{Family: family, Given: given}, Works: works}
}

func TestMergeEntriesCrossShardAuthor(t *testing.T) {
	coll := collate.Default()
	// "Shared, S." has works on both shards with interleaved citations;
	// each shard also carries authors the other lacks.
	sharedA := entry("Shared", "S.",
		*work(1, 70, 10, 1968, "On Shard Zero"),
		*work(3, 90, 5, 1988, "Late Work"))
	sharedA.SeeAlso = []model.Author{{Family: "Jones", Given: "B."}, {Family: "Smith", Given: "A."}}
	sharedB := entry("Shared", "S.",
		*work(2, 80, 2, 1978, "On Shard One"))
	sharedB.SeeAlso = []model.Author{{Family: "Smith", Given: "A."}, {Family: "Young", Given: "Z."}}

	parts := [][]*core.Entry{
		{entry("Adams", "A.", *work(10, 60, 1, 1958, "First")), sharedA},
		{entry("Brown", "B.", *work(11, 61, 2, 1959, "Second")), sharedB},
	}
	got := MergeEntries(parts, coll, 0)
	if len(got) != 3 {
		t.Fatalf("merged %d entries, want 3 (Adams, Brown, Shared)", len(got))
	}
	// Print order by collation key.
	for i := 1; i < len(got); i++ {
		if bytes.Compare(collate.KeyAuthor(got[i-1].Author, coll), collate.KeyAuthor(got[i].Author, coll)) >= 0 {
			t.Fatalf("entries out of print order at %d", i)
		}
	}
	var shared *core.Entry
	for _, e := range got {
		if e.Author.Family == "Shared" {
			shared = e
		}
	}
	if shared == nil {
		t.Fatal("cross-shard author missing from merge")
	}
	if len(shared.Works) != 3 {
		t.Fatalf("cross-shard author has %d works, want 3", len(shared.Works))
	}
	for i, wantID := range []model.WorkID{1, 2, 3} {
		if shared.Works[i].ID != wantID {
			t.Fatalf("cross-shard works out of citation order: %v", shared.Works)
		}
	}
	// SeeAlso is the deduplicated union in collation order.
	if len(shared.SeeAlso) != 3 {
		t.Fatalf("SeeAlso union has %d refs, want 3: %v", len(shared.SeeAlso), shared.SeeAlso)
	}
	for i, want := range []string{"Jones", "Smith", "Young"} {
		if shared.SeeAlso[i].Family != want {
			t.Fatalf("SeeAlso[%d] = %v, want family %s", i, shared.SeeAlso[i], want)
		}
	}

	// Limit counts merged entries, not input occurrences.
	if capped := MergeEntries([][]*core.Entry{
		{entry("Adams", "A.", *work(10, 60, 1, 1958, "First")), sharedA},
		{entry("Brown", "B.", *work(11, 61, 2, 1959, "Second")), sharedB},
	}, coll, 2); len(capped) != 2 {
		t.Fatalf("limit=2 returned %d entries", len(capped))
	}
}

func TestMergeSubjectsSumsCounts(t *testing.T) {
	coll := collate.Default()
	keyed := func(subject string, works int) query.KeyedSubject {
		return query.KeyedSubject{
			Key:          collate.KeyString(subject, coll),
			SubjectCount: query.SubjectCount{Subject: subject, Works: works},
		}
	}
	parts := [][]query.KeyedSubject{
		{keyed("mining", 3), keyed("zoning", 1)},
		{keyed("mining", 2), keyed("taxation", 4)},
		nil,
	}
	got := MergeSubjects(parts)
	want := map[string]int{"mining": 5, "taxation": 4, "zoning": 1}
	if len(got) != len(want) {
		t.Fatalf("merged %d subjects, want %d: %v", len(got), len(want), got)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(collate.KeyString(got[i-1].Subject, coll), collate.KeyString(got[i].Subject, coll)) >= 0 {
			t.Fatalf("subjects out of collation order: %v", got)
		}
	}
	for _, sc := range got {
		if want[sc.Subject] != sc.Works {
			t.Errorf("subject %q has %d works, want %d", sc.Subject, sc.Works, want[sc.Subject])
		}
	}
}

func TestMergeSectionsRegroupsLetters(t *testing.T) {
	coll := collate.Default()
	secA := core.Section{Letter: 'A', Entries: []*core.Entry{
		entry("Abbott", "A.", *work(1, 60, 1, 1958, "One")),
	}}
	secC0 := core.Section{Letter: 'C', Entries: []*core.Entry{
		entry("Cole", "C.", *work(2, 61, 2, 1959, "Two")),
	}}
	secB := core.Section{Letter: 'B', Entries: []*core.Entry{
		entry("Baker", "B.", *work(3, 62, 3, 1960, "Three")),
	}}
	secC1 := core.Section{Letter: 'C', Entries: []*core.Entry{
		entry("Carr", "C.", *work(4, 63, 4, 1961, "Four")),
	}}
	got := MergeSections([][]core.Section{{secA, secC0}, {secB, secC1}}, coll)
	var shape []string
	for _, s := range got {
		shape = append(shape, fmt.Sprintf("%c:%d", s.Letter, len(s.Entries)))
	}
	want := []string{"A:1", "B:1", "C:2"}
	if len(shape) != len(want) {
		t.Fatalf("section shape %v, want %v", shape, want)
	}
	for i := range want {
		if shape[i] != want[i] {
			t.Fatalf("section shape %v, want %v", shape, want)
		}
	}
	// Within the merged C section: Carr files before Cole.
	c := got[2]
	if c.Entries[0].Author.Family != "Carr" || c.Entries[1].Author.Family != "Cole" {
		t.Fatalf("C section out of order: %v, %v", c.Entries[0].Author, c.Entries[1].Author)
	}

	// Single non-empty input passes through untouched.
	solo := [][]core.Section{nil, {secA}}
	if got := MergeSections(solo, coll); len(got) != 1 || got[0].Letter != 'A' {
		t.Fatal("single-input fast path did not pass through")
	}
}

func TestHeadingsDistinctInPrintOrder(t *testing.T) {
	coll := collate.Default()
	eng := func(authors ...string) *query.Engine {
		e := query.New(coll)
		for i, a := range authors {
			w := work(len(authors)*100+i+1, 70, i+1, 1968, "Work "+a)
			w.Authors = []model.Author{{Family: a, Given: "A."}}
			if err := e.Add(w); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	engs := []*query.Engine{
		eng("Shared", "Delta", "Alpha"),
		eng(),
		eng("Bravo", "Shared", "Echo"),
		eng("Alpha", "Charlie", "Shared", "Muller", "Müller"),
	}
	// Reference: every heading of every shard, deduplicated by
	// collation key and sorted by it.
	byKey := map[string]string{}
	for _, e := range engs {
		e.Index().Ascend(func(_ []byte, en *core.Entry) bool {
			byKey[string(collate.KeyAuthor(en.Author, coll))] = en.Author.Display()
			return true
		})
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var want []string
	for _, k := range keys {
		want = append(want, byKey[k])
	}

	var got []string
	n := Headings(engs, func(a model.Author) { got = append(got, a.Display()) })
	if fmt.Sprint(got) != fmt.Sprint(want) || n != len(want) {
		t.Errorf("Headings = %d %v, want %d %v", n, got, len(want), want)
	}
	if n := Headings(engs, nil); n != len(want) {
		t.Errorf("Headings count = %d, want %d", n, len(want))
	}

	// One non-empty shard is walked directly; none counts zero.
	got = nil
	if n := Headings([]*query.Engine{engs[1], engs[2]}, func(a model.Author) { got = append(got, a.Display()) }); n != 3 ||
		fmt.Sprint(got) != "[Bravo, A. Echo, A. Shared, A.]" {
		t.Errorf("single shard: Headings = %d %v", n, got)
	}
	if n := Headings([]*query.Engine{engs[1]}, nil); n != 0 {
		t.Errorf("empty shards: Headings = %d, want 0", n)
	}
}
