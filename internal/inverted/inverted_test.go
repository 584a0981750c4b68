package inverted

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// byID orders the work-ID instantiation every test here uses.
var byID = cmp.Compare[model.WorkID]

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"The Law of Coal, Oil and Gas", []string{"law", "coal", "oil", "gas"}},
		{"Drugs, Ideology, and the Deconstitutionalization of Criminal Procedure",
			[]string{"drugs", "ideology", "deconstitutionalization", "criminal", "procedure"}},
		{"Rule 10b-5 and Santa Fe", []string{"rule", "10b", "5", "santa", "fe"}},
		{"Écologie Générale", []string{"ecologie", "generale"}},
		{"", nil},
		{"of the and", nil},
		{"United States v. Law", []string{"united", "states", "law"}},
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAddRemovePostings(t *testing.T) {
	ix := New(byID)
	ix.Add(1, "Surface Mining Control")
	ix.Add(2, "Surface Rights in West Virginia")
	ix.Add(3, "Deep Coal Mines")
	if ix.Docs() != 3 {
		t.Errorf("Docs = %d, want 3", ix.Docs())
	}
	if got := ix.Postings("surface"); !reflect.DeepEqual(got, []model.WorkID{1, 2}) {
		t.Errorf("Postings(surface) = %v", got)
	}
	// Case and diacritics fold on lookup.
	if got := ix.Postings("SÚRFACE"); !reflect.DeepEqual(got, []model.WorkID{1, 2}) {
		t.Errorf("Postings(folded) = %v", got)
	}
	ix.Remove(1, "Surface Mining Control")
	if got := ix.Postings("surface"); !reflect.DeepEqual(got, []model.WorkID{2}) {
		t.Errorf("after remove, Postings(surface) = %v", got)
	}
	if got := ix.Postings("control"); got != nil {
		t.Errorf("empty term not deleted: %v", got)
	}
	if ix.Docs() != 2 {
		t.Errorf("Docs after remove = %d, want 2", ix.Docs())
	}
}

func TestAddIdempotent(t *testing.T) {
	ix := New(byID)
	ix.Add(5, "Coal Coal Coal")
	ix.Add(5, "Coal Coal Coal")
	if got := ix.Postings("coal"); !reflect.DeepEqual(got, []model.WorkID{5}) {
		t.Errorf("duplicate add produced %v", got)
	}
	if ix.Docs() != 1 {
		t.Errorf("Docs = %d, want 1", ix.Docs())
	}
}

func TestParseQuery(t *testing.T) {
	tests := []struct {
		in   string
		want Query
	}{
		{"surface mining", Query{All: []Atom{{Term: "surface"}, {Term: "mining"}}}},
		{"coal or gas", Query{Any: []Atom{{Term: "coal"}, {Term: "gas"}}}},
		{"mining -surface", Query{All: []Atom{{Term: "mining"}}, None: []Atom{{Term: "surface"}}}},
		{"reclam*", Query{All: []Atom{{Term: "reclam", Prefix: true}}}},
		{"coal or gas or oil", Query{Any: []Atom{{Term: "coal"}, {Term: "gas"}, {Term: "oil"}}}},
		{"tax coal or gas", Query{All: []Atom{{Term: "tax"}}, Any: []Atom{{Term: "coal"}, {Term: "gas"}}}},
		{"", Query{}},
		{"the of", Query{}}, // stopwords vanish
	}
	for _, tt := range tests {
		got := ParseQuery(tt.in)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func buildCorpus() (*Index[model.WorkID], map[model.WorkID]string) {
	ix := New(byID)
	docs := map[model.WorkID]string{
		1: "Surface Mining Control and Reclamation",
		2: "Reclamation of Orphaned Mined Lands",
		3: "Coal Mining Machinery Cases",
		4: "Ownership of Coalbed Methane Gas",
		5: "The Federal Coal Leasing Waltz",
		6: "Acid Rain and the Clean Air Act",
	}
	for id, title := range docs {
		ix.Add(id, title)
	}
	return ix, docs
}

func TestSearch(t *testing.T) {
	ix, _ := buildCorpus()
	tests := []struct {
		q    string
		want []model.WorkID
	}{
		{"mining", []model.WorkID{1, 3}},
		{"mining reclamation", []model.WorkID{1}},
		{"coal or coalbed", []model.WorkID{3, 4, 5}},
		{"mining -coal", []model.WorkID{1}},
		{"reclam*", []model.WorkID{1, 2}},
		{"min* coal", []model.WorkID{3}},
		{"nonexistent", nil},
		{"-coal", nil}, // NOT-only has no universe
		{"", nil},
		// "coal" ANDs with (leasing OR methane); doc 4 has "coalbed",
		// not "coal", so only doc 5 qualifies.
		{"coal leasing or methane", []model.WorkID{5}},
		{"coal* leasing or methane", []model.WorkID{4, 5}},
	}
	for _, tt := range tests {
		got := ix.Search(tt.q)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Search(%q) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

// bruteForce evaluates a query by scanning every document, as the ground
// truth for property testing.
func bruteForce(docs map[model.WorkID]string, q Query) []model.WorkID {
	tokensOf := func(title string) map[string]bool {
		m := map[string]bool{}
		for _, tok := range Tokenize(title) {
			m[tok] = true
		}
		return m
	}
	match := func(toks map[string]bool, a Atom) bool {
		if !a.Prefix {
			return toks[a.Term]
		}
		for tok := range toks {
			if strings.HasPrefix(tok, a.Term) {
				return true
			}
		}
		return false
	}
	var out []model.WorkID
	if q.IsEmpty() {
		return nil
	}
	for id, title := range docs {
		toks := tokensOf(title)
		ok := len(q.All) > 0 || len(q.Any) > 0
		for _, a := range q.All {
			if !match(toks, a) {
				ok = false
				break
			}
		}
		if ok && len(q.Any) > 0 {
			anyOK := false
			for _, a := range q.Any {
				if match(toks, a) {
					anyOK = true
					break
				}
			}
			ok = anyOK
		}
		if ok {
			for _, a := range q.None {
				if match(toks, a) {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var vocab = []string{"coal", "mine", "mining", "surface", "gas", "oil", "tax",
	"law", "act", "reform", "safety", "water", "clean", "rights", "virginia"}

func randomDocs(r *rand.Rand, n int) map[model.WorkID]string {
	docs := make(map[model.WorkID]string, n)
	for i := 0; i < n; i++ {
		words := make([]string, 1+r.Intn(6))
		for j := range words {
			words[j] = vocab[r.Intn(len(vocab))]
		}
		docs[model.WorkID(i+1)] = strings.Join(words, " ")
	}
	return docs
}

func randomQuery(r *rand.Rand) Query {
	var q Query
	atom := func() Atom {
		term := vocab[r.Intn(len(vocab))]
		if r.Intn(4) == 0 {
			term = term[:1+r.Intn(len(term))]
			return Atom{Term: term, Prefix: true}
		}
		return Atom{Term: term}
	}
	for i := 0; i < r.Intn(3); i++ {
		q.All = append(q.All, atom())
	}
	for i := 0; i < r.Intn(3); i++ {
		q.Any = append(q.Any, atom())
	}
	for i := 0; i < r.Intn(2); i++ {
		q.None = append(q.None, atom())
	}
	return q
}

func TestEvalMatchesBruteForceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		docs := randomDocs(r, 1+r.Intn(60))
		ix := New(byID)
		for id, title := range docs {
			ix.Add(id, title)
		}
		for trial := 0; trial < 10; trial++ {
			q := randomQuery(r)
			got := ix.Eval(q)
			want := bruteForce(docs, q)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d query %+v: got %v want %v", seed, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRemoveEverythingEmptiesIndex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := randomDocs(r, 50)
	ix := New(byID)
	for id, title := range docs {
		ix.Add(id, title)
	}
	for id, title := range docs {
		ix.Remove(id, title)
	}
	if ix.Docs() != 0 || ix.Terms() != 0 {
		t.Errorf("after removing all: docs=%d terms=%d", ix.Docs(), ix.Terms())
	}
}

func TestExpandPrefixLimit(t *testing.T) {
	ix := New(byID)
	for i := 0; i < 10; i++ {
		ix.Add(model.WorkID(i+1), fmt.Sprintf("term%02d unique", i))
	}
	all := ix.ExpandPrefix("term", 0)
	if len(all) != 10 {
		t.Errorf("unlimited expansion = %d ids", len(all))
	}
	capped := ix.ExpandPrefix("term", 3)
	if len(capped) != 3 {
		t.Errorf("capped expansion = %d ids, want 3", len(capped))
	}
}

func TestSetOps(t *testing.T) {
	a := []model.WorkID{1, 3, 5, 7}
	b := []model.WorkID{3, 4, 5, 8}
	if got := intersectInto(nil, a, b, byID); !reflect.DeepEqual(got, []model.WorkID{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	if got := union(a, b, byID); !reflect.DeepEqual(got, []model.WorkID{1, 3, 4, 5, 7, 8}) {
		t.Errorf("union = %v", got)
	}
	if got := subtractInto(nil, a, b, byID); !reflect.DeepEqual(got, []model.WorkID{1, 7}) {
		t.Errorf("subtract = %v", got)
	}
	if got := union(nil, nil, byID); len(got) != 0 {
		t.Errorf("union(nil,nil) = %v", got)
	}
}

// TestSeek pins down the galloping search: smallest index >= from whose
// element is >= x, across window edges and overshoots.
func TestSeek(t *testing.T) {
	b := []model.WorkID{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	tests := []struct {
		from int
		x    model.WorkID
		want int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {0, 11, 5}, {0, 20, 9},
		{0, 21, 10}, {3, 8, 3}, {3, 7, 3}, {5, 13, 6}, {9, 20, 9},
		{10, 5, 10}, {0, 19, 9},
	}
	for _, tt := range tests {
		if got := seek(b, tt.from, tt.x, byID); got != tt.want {
			t.Errorf("seek(b, %d, %d) = %d, want %d", tt.from, tt.x, got, tt.want)
		}
	}
	if got := seek(nil, 0, 1, byID); got != 0 {
		t.Errorf("seek(nil) = %d", got)
	}
}

// TestIntersectGallopEquivalence drives intersectInto through both the
// linear and galloping regimes against a map-based reference, including
// heavily skewed list sizes.
func TestIntersectGallopEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	randList := func(n, max int) []model.WorkID {
		seen := map[model.WorkID]bool{}
		for len(seen) < n {
			seen[model.WorkID(1+r.Intn(max))] = true
		}
		out := make([]model.WorkID, 0, n)
		for id := range seen {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for round := 0; round < 200; round++ {
		na, nb := 1+r.Intn(40), 1+r.Intn(2000)
		a, b := randList(na, 500), randList(nb, 5000)
		want := []model.WorkID{}
		inB := map[model.WorkID]bool{}
		for _, x := range b {
			inB[x] = true
		}
		for _, x := range a {
			if inB[x] {
				want = append(want, x)
			}
		}
		got := intersectInto(nil, a, b, byID)
		if !reflect.DeepEqual(append([]model.WorkID{}, got...), want) {
			t.Fatalf("round %d: intersect(|%d|,|%d|) = %v, want %v", round, na, nb, got, want)
		}
		// In-place over the owned accumulator, both argument orders.
		acc := append([]model.WorkID(nil), a...)
		if got := intersectInto(acc, acc, b, byID); !reflect.DeepEqual(append([]model.WorkID{}, got...), want) {
			t.Fatalf("round %d: in-place intersect diverged", round)
		}
		acc = append([]model.WorkID(nil), b...)
		if got := intersectInto(acc, acc, a, byID); !reflect.DeepEqual(append([]model.WorkID{}, got...), want) {
			t.Fatalf("round %d: in-place swapped intersect diverged", round)
		}
		// Subtract against the same reference.
		wantSub := []model.WorkID{}
		for _, x := range a {
			if !inB[x] {
				wantSub = append(wantSub, x)
			}
		}
		if got := subtractInto(nil, a, b, byID); !reflect.DeepEqual(append([]model.WorkID{}, got...), wantSub) {
			t.Fatalf("round %d: subtract diverged", round)
		}
	}
}

// TestEvalMatchesNaive replays random boolean queries against a
// tokenize-and-scan reference over a random corpus.
func TestEvalMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vocab := []string{"surface", "mining", "coal", "gas", "water", "law", "tax", "mine", "mineral", "rights"}
	ix := New(byID)
	docs := map[model.WorkID][]string{}
	for i := 1; i <= 300; i++ {
		n := 1 + r.Intn(5)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[r.Intn(len(vocab))]
		}
		docs[model.WorkID(i)] = toks
		ix.Add(model.WorkID(i), strings.Join(toks, " "))
	}
	queries := []string{
		"surface mining", "coal", "mining -surface", "coal or gas",
		"min* rights", "surface mining coal gas water", "law tax mine",
		"coal or gas -water", "surface surface", "nosuchterm",
		"nosuchterm mining", "-coal",
	}
	for _, qs := range queries {
		q := ParseQuery(qs)
		got, st := ix.EvalWithStats(q, 0)
		var want []model.WorkID
		for id := model.WorkID(1); id <= 300; id++ {
			if matchNaive(docs[id], q) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Eval(%q) = %d ids, want %d", qs, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Eval(%q)[%d] = %d, want %d", qs, i, got[i], want[i])
			}
		}
		// An empty AND operand short-circuits before touching the other
		// lists, so only non-empty results must report scan volume.
		if len(got) > 0 && st.PostingsBytes == 0 {
			t.Errorf("Eval(%q) matched %d ids but reported zero postings scanned", qs, len(got))
		}
	}
}

func matchNaive(toks []string, q Query) bool {
	has := func(a Atom) bool {
		for _, tok := range toks {
			if a.Prefix && strings.HasPrefix(tok, a.Term) || !a.Prefix && tok == a.Term {
				return true
			}
		}
		return false
	}
	if len(q.All) == 0 && len(q.Any) == 0 {
		return false
	}
	for _, a := range q.All {
		if !has(a) {
			return false
		}
	}
	if len(q.Any) > 0 {
		ok := false
		for _, a := range q.Any {
			if has(a) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, a := range q.None {
		if has(a) {
			return false
		}
	}
	return true
}

// TestEvalDoesNotAliasPostings: mutating a result must never corrupt the
// index's internal postings.
func TestEvalDoesNotAliasPostings(t *testing.T) {
	ix := New(byID)
	ix.Add(1, "coal mining")
	ix.Add(2, "coal washing")
	got := ix.Eval(ParseQuery("coal"))
	if len(got) != 2 {
		t.Fatalf("Eval = %v", got)
	}
	got[0] = 999
	if again := ix.Eval(ParseQuery("coal")); !reflect.DeepEqual(again, []model.WorkID{1, 2}) {
		t.Fatalf("postings corrupted by caller mutation: %v", again)
	}
}
