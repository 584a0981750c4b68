// Package inverted implements a small inverted index over work titles:
// folded tokens map to ordered postings lists, with boolean AND/OR/NOT
// evaluation and trailing-* prefix expansion. Terms live in a B+tree so
// prefix queries are ordered scans. The index is generic over the
// posting ref and its order: work IDs in ID order, or the query
// engine's work entries in citation order.
package inverted

import (
	"bytes"
	"slices"
	"strings"

	"repro/internal/btree"
	"repro/internal/names"
)

// stopwords are dropped at tokenization time; they carry no selectivity
// in bibliographic titles.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "as": true, "at": true,
	"by": true, "for": true, "from": true, "in": true, "into": true,
	"is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "the": true, "to": true, "under": true, "upon": true,
	"with": true, "v": true, "vs": true,
}

// Tokenize folds text and splits it into index terms: lower-cased,
// diacritic-free, punctuation-separated, stopwords removed, duplicates
// preserved (callers dedupe if needed).
func Tokenize(text string) []string { return appendTokens(nil, text) }

// appendTokens is Tokenize into a caller-supplied buffer, so bulk
// passes can reuse one slice across a whole corpus.
func appendTokens(toks []string, text string) []string {
	folded := names.Fold(text)
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := folded[start:end]
		start = -1
		if !stopwords[tok] {
			toks = append(toks, tok)
		}
	}
	for i, r := range folded {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(folded))
	return toks
}

// Index maps terms to postings of refs of type T, each list kept
// ascending under the comparator given to New or Load. It is not safe
// for concurrent mutation.
//
// The comparator decides the order every evaluation streams out in: a
// plain work-ID index orders numerically, while the query engine files
// its work entries in citation-key order, so a search answer is the
// first limit refs of the evaluation, with no lookup and no sort.
// cmp(a, b) == 0 must mean a and b are the same document.
//
// Mutations are copy-on-write at postings granularity: a filed
// *postings value is never edited in place — the mutating method builds
// a fresh list and replaces the tree value — so a Clone taken before
// the mutation keeps a frozen view that readers may borrow from
// without coordination.
type Index[T comparable] struct {
	terms *btree.Tree[*postings[T]]
	docs  int
	cmp   func(a, b T) int
}

type postings[T any] struct {
	refs []T // ascending under the index's cmp, unique, immutable once filed
}

// New returns an empty index whose postings ascend under cmp.
func New[T comparable](cmp func(a, b T) int) *Index[T] {
	return &Index[T]{terms: btree.New[*postings[T]](), cmp: cmp}
}

// Clone returns an O(1) copy-on-write snapshot sharing every term node
// and postings list until one side mutates.
func (ix *Index[T]) Clone() *Index[T] {
	cp := *ix
	cp.terms = ix.terms.Clone()
	return &cp
}

// Doc is one (ref, text) item for Load and AddBatch.
type Doc[T any] struct {
	Ref  T
	Text string
}

// Load bulk-builds an index over a complete corpus of distinct refs:
// postings accumulate in a map in doc order and the term tree is
// constructed bottom-up — no per-term tree descent, no per-ref
// binary-search insertion, no per-list sort. Docs must already ascend
// under cmp (the engine hands over its citation-sorted corpus); Load
// checks that once and panics otherwise. The result is identical to
// Add-ing every doc to an empty index.
func Load[T comparable](cmp func(a, b T) int, docs []Doc[T]) *Index[T] {
	if !slices.IsSortedFunc(docs, func(a, b Doc[T]) int { return cmp(a.Ref, b.Ref) }) {
		panic("inverted: Load docs do not ascend under cmp")
	}
	terms := make(map[string][]T)
	n := 0
	var scratch []string // one token buffer for the whole corpus
	for _, d := range docs {
		scratch = uniq(appendTokens(scratch[:0], d.Text))
		if len(scratch) == 0 {
			continue
		}
		n++
		for _, tok := range scratch {
			refs := terms[tok]
			// Adjacent duplicates are the only possible ones (ascending
			// refs), mirroring Add's re-add idempotence.
			if len(refs) > 0 && refs[len(refs)-1] == d.Ref {
				continue
			}
			terms[tok] = append(refs, d.Ref)
		}
	}
	pairs := make([]btree.Pair[*postings[T]], 0, len(terms))
	for tok, refs := range terms {
		pairs = append(pairs, btree.Pair[*postings[T]]{Key: []byte(tok), Value: &postings[T]{refs: refs}})
	}
	slices.SortFunc(pairs, func(a, b btree.Pair[*postings[T]]) int { return bytes.Compare(a.Key, b.Key) })
	tree, err := btree.BulkLoad(pairs)
	if err != nil {
		// Unreachable: map keys are unique and just sorted.
		panic(err)
	}
	return &Index[T]{terms: tree, docs: n, cmp: cmp}
}

// Docs returns the number of documents added (and not yet removed).
func (ix *Index[T]) Docs() int { return ix.docs }

// Terms returns the number of distinct terms currently indexed.
func (ix *Index[T]) Terms() int { return ix.terms.Len() }

// Add indexes text under ref: AddBatch of one doc. Adding the same ref
// twice with the same text is idempotent.
func (ix *Index[T]) Add(ref T, text string) { ix.AddBatch([]Doc[T]{{Ref: ref, Text: text}}) }

// AddBatch indexes every doc as Adding them in turn would, but files
// each touched term once: the batch's refs under a term are gathered
// into one run and merged into the filed postings in a single pass
// (MergeRun), so a common term's list is copied once per batch rather
// than once per doc. The refs of one batch must be distinct, except
// that a doc repeated with the same text files once, like a repeated
// Add.
func (ix *Index[T]) AddBatch(docs []Doc[T]) {
	runs := make(map[string][]T)
	var toks []string
	for _, d := range docs {
		toks = uniq(appendTokens(toks[:0], d.Text))
		for _, tok := range toks {
			runs[tok] = append(runs[tok], d.Ref)
		}
	}
	added := make(map[T]struct{})
	for tok, run := range runs {
		key := []byte(tok)
		var filed []T
		if p, ok := ix.terms.Get(key); ok {
			filed = p.refs
		}
		refs := MergeRun(filed, run, ix.cmp, func(ref T) { added[ref] = struct{}{} })
		if len(refs) > len(filed) {
			ix.terms.Set(key, &postings[T]{refs: refs})
		}
	}
	ix.docs += len(added)
}

// Remove un-indexes text for ref; text must be the same string that
// was added. Terms whose postings become empty are deleted.
func (ix *Index[T]) Remove(ref T, text string) {
	removed := false
	for _, tok := range uniq(Tokenize(text)) {
		key := []byte(tok)
		p, ok := ix.terms.Get(key)
		if !ok {
			continue
		}
		refs, changed := Without(p.refs, ref, ix.cmp)
		if !changed {
			continue
		}
		removed = true
		if len(refs) == 0 {
			ix.terms.Delete(key)
		} else {
			ix.terms.Set(key, &postings[T]{refs: refs})
		}
	}
	if removed {
		ix.docs--
	}
}

// Postings returns a copy of the postings list for an exact term.
func (ix *Index[T]) Postings(term string) []T {
	p, ok := ix.terms.Get([]byte(names.Fold(term)))
	if !ok {
		return nil
	}
	return append([]T(nil), p.refs...)
}

// ExpandPrefix returns the union of postings for every term starting
// with prefix, capped at limit terms (0 = no cap). Matching lists are
// gathered first and merged in one sort+compact pass, instead of paying
// a reallocating pairwise union per term.
func (ix *Index[T]) ExpandPrefix(prefix string, limit int) []T {
	var lists [][]T
	total, n := 0, 0
	ix.terms.AscendPrefix([]byte(names.Fold(prefix)), func(_ []byte, p *postings[T]) bool {
		lists = append(lists, p.refs)
		total += len(p.refs)
		n++
		return limit == 0 || n < limit
	})
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return append([]T(nil), lists[0]...)
	}
	acc := make([]T, 0, total)
	for _, l := range lists {
		acc = append(acc, l...)
	}
	slices.SortFunc(acc, ix.cmp)
	return slices.CompactFunc(acc, func(a, b T) bool { return ix.cmp(a, b) == 0 })
}

// MergeRun returns a fresh list holding filed and run in cmp order.
// filed must ascend and hold distinct refs; it may be shared with
// snapshot readers and is never written. run is sorted in place, then
// each run ref finds its place in filed by one binary search and the
// filed span before it is copied whole. Refs comparing equal are the
// same document, kept once: a run ref already filed, or repeated in the
// run, is dropped. inserted, if non-nil, is called with each run ref
// the merge adds.
//
// This is the one ordered-list merge the engine files postings with:
// title terms here and subject headings in the query engine.
func MergeRun[T any](filed, run []T, cmp func(a, b T) int, inserted func(T)) []T {
	if len(run) > 1 {
		slices.SortFunc(run, cmp)
	}
	out := make([]T, 0, len(filed)+len(run))
	for _, ref := range run {
		i, found := slices.BinarySearchFunc(filed, ref, cmp)
		out = append(out, filed[:i]...)
		filed = filed[i:]
		if found {
			continue
		}
		if n := len(out); n > 0 && cmp(out[n-1], ref) == 0 {
			continue
		}
		out = append(out, ref)
		if inserted != nil {
			inserted(ref)
		}
	}
	return append(out, filed...)
}

// Without returns a fresh copy of list with ref removed, or (list,
// false) when ref is not filed there. The slot is found by cmp and must
// then hold ref itself, so a stale ref that merely compares equal is
// never mistaken for the filed one. list is never modified: borrowed
// views of it stay valid.
func Without[T comparable](list []T, ref T, cmp func(a, b T) int) ([]T, bool) {
	i, found := slices.BinarySearchFunc(list, ref, cmp)
	if !found || list[i] != ref {
		return list, false
	}
	out := make([]T, 0, len(list)-1)
	out = append(out, list[:i]...)
	return append(out, list[i+1:]...), true
}

// Query is a parsed boolean title query.
type Query struct {
	All  []Atom // every atom must match (AND)
	Any  []Atom // at least one must match, if non-empty (OR)
	None []Atom // none may match (NOT)
}

// Atom is one query term, optionally a prefix pattern.
type Atom struct {
	Term   string
	Prefix bool
}

// IsEmpty reports whether the query constrains nothing.
func (q Query) IsEmpty() bool { return len(q.All) == 0 && len(q.Any) == 0 && len(q.None) == 0 }

// ParseQuery reads a query string: whitespace-separated terms are ANDed;
// terms prefixed "-" are excluded; "or" between terms moves both into the
// OR group; a trailing "*" makes a term a prefix pattern. Terms are
// folded like indexed text.
//
//	"surface mining"      → All: surface, mining
//	"coal or gas"         → Any: coal, gas
//	"mining -surface"     → All: mining; None: surface
//	"reclam*"             → All: reclam* (prefix)
func ParseQuery(s string) Query {
	fields := strings.Fields(s)
	var q Query
	// First pass: find OR groups (a or b or c).
	used := make([]bool, len(fields))
	for i, f := range fields {
		if strings.EqualFold(f, "or") && i > 0 && i < len(fields)-1 {
			used[i] = true
			for _, j := range [2]int{i - 1, i + 1} {
				if !used[j] {
					if a, ok := makeAtom(fields[j]); ok && !strings.HasPrefix(fields[j], "-") {
						q.Any = append(q.Any, a)
						used[j] = true
					}
				}
			}
		}
	}
	for i, f := range fields {
		if used[i] {
			continue
		}
		neg := strings.HasPrefix(f, "-")
		f = strings.TrimPrefix(f, "-")
		a, ok := makeAtom(f)
		if !ok {
			continue
		}
		if neg {
			q.None = append(q.None, a)
		} else {
			q.All = append(q.All, a)
		}
	}
	return q
}

func makeAtom(f string) (Atom, bool) {
	prefix := strings.HasSuffix(f, "*")
	f = strings.TrimSuffix(f, "*")
	toks := Tokenize(f)
	if len(toks) == 0 {
		return Atom{}, false
	}
	// Multi-token atoms ("o'brien") keep only the first token; the rest
	// would have been separate fields anyway.
	return Atom{Term: toks[0], Prefix: prefix}, true
}

// ScanStats reports how much postings data one evaluation examined.
type ScanStats struct {
	// PostingsBytes counts 8 bytes per posting entry in every list the
	// evaluator materialized or intersected against.
	PostingsBytes int
	// Matches counts every ref the query matched, before any limit.
	Matches int
}

// Eval runs the query and returns every matching ref in ascending
// order. An empty query returns nil.
func (ix *Index[T]) Eval(q Query) []T {
	refs, _ := ix.EvalWithStats(q, 0)
	return refs
}

// EvalWithStats returns the first limit matching refs (<=0: all), in
// ascending order, plus a report of the postings volume scanned. Only
// the returned refs are copied out of the index, so a one-term query
// costs its limit, not its match count.
//
// Positive lists are intersected smallest-first: exact-term postings are
// borrowed from the index (zero copy), the running intersection lives in
// one scratch buffer reused across terms, and when one list is much
// longer than the accumulator the merge gallops (exponential search)
// through it instead of stepping linearly.
func (ix *Index[T]) EvalWithStats(q Query, limit int) ([]T, ScanStats) {
	var st ScanStats
	if q.IsEmpty() {
		return nil, st
	}
	matchAtom := func(a Atom) []T {
		var refs []T
		if a.Prefix {
			refs = ix.ExpandPrefix(a.Term, 0)
		} else if p, ok := ix.terms.Get([]byte(names.Fold(a.Term))); ok {
			refs = p.refs // borrowed: read-only until copied below
		}
		st.PostingsBytes += 8 * len(refs)
		return refs
	}
	lists := make([][]T, 0, len(q.All)+1)
	for _, a := range q.All {
		refs := matchAtom(a)
		if len(refs) == 0 {
			return nil, st
		}
		lists = append(lists, refs)
	}
	if len(q.Any) > 0 {
		var anyRefs []T
		for _, a := range q.Any {
			anyRefs = union(anyRefs, matchAtom(a), ix.cmp)
		}
		// The OR group behaves as one more AND operand, like the classic
		// evaluator's trailing acc ∩ anyRefs step.
		lists = append(lists, anyRefs)
	}
	if len(lists) == 0 {
		// NOT-only queries match nothing: there is no universe to subtract
		// from without a positive term.
		return nil, st
	}
	// Smallest-first insertion sort: query atom counts are tiny, and a
	// sort call's closure would be the hot path's only allocations.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	acc := lists[0]
	owned := false // whether acc is a scratch buffer we may overwrite
	for _, l := range lists[1:] {
		if len(acc) == 0 {
			break
		}
		if !owned {
			acc = intersectInto(make([]T, 0, len(acc)), acc, l, ix.cmp)
			owned = true
		} else {
			acc = intersectInto(acc, acc, l, ix.cmp)
		}
	}
	for _, a := range q.None {
		if len(acc) == 0 {
			break
		}
		ex := matchAtom(a)
		if len(ex) == 0 {
			continue
		}
		if !owned {
			acc = subtractInto(make([]T, 0, len(acc)), acc, ex, ix.cmp)
			owned = true
		} else {
			acc = subtractInto(acc, acc, ex, ix.cmp)
		}
	}
	st.Matches = len(acc)
	if limit > 0 && len(acc) > limit {
		acc = acc[:limit]
	}
	if !owned {
		// Single positive term: hand out a copy, never the live postings.
		acc = append([]T(nil), acc...)
	}
	return acc, st
}

// Search parses and evaluates q in one step.
func (ix *Index[T]) Search(q string) []T { return ix.Eval(ParseQuery(q)) }

// gallopRatio is the size skew at which the intersection switches from
// a linear merge to galloping through the longer list; near-equal lists
// merge faster linearly.
const gallopRatio = 8

// intersectInto writes a ∩ b into dst[:0] and returns it. dst may alias
// a or b: the write index never catches up with either read frontier.
func intersectInto[T any](dst, a, b []T, cmp func(a, b T) int) []T {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := dst[:0]
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, x := range a {
			j = seek(b, j, x, cmp)
			if j >= len(b) {
				break
			}
			if cmp(b[j], x) == 0 {
				out = append(out, x)
				j++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmp(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// seek returns the smallest index >= from with b[index] >= x, galloping
// forward exponentially and then binary-searching the final window.
func seek[T any](b []T, from int, x T, cmp func(a, b T) int) int {
	if from >= len(b) || cmp(b[from], x) >= 0 {
		return from
	}
	step := 1
	for from+step < len(b) && cmp(b[from+step], x) < 0 {
		step <<= 1
	}
	hi := min(from+step, len(b))
	lo := from + step>>1 // b[lo] < x: either b[from] or the last passed probe
	i, _ := slices.BinarySearchFunc(b[lo:hi], x, cmp)
	return lo + i
}

func union[T any](a, b []T, cmp func(a, b T) int) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmp(a[i], b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// subtractInto writes a \ b into dst[:0] and returns it. dst may alias
// a; b is galloped through like the intersection path.
func subtractInto[T any](dst, a, b []T, cmp func(a, b T) int) []T {
	out := dst[:0]
	j := 0
	for _, x := range a {
		j = seek(b, j, x, cmp)
		if j < len(b) && cmp(b[j], x) == 0 {
			continue
		}
		out = append(out, x)
	}
	return out
}

func uniq(toks []string) []string {
	if len(toks) < 2 {
		return toks
	}
	// Titles carry a handful of terms; a linear scan dedupes without the
	// per-call map a longer input would want.
	if len(toks) <= 16 {
		out := toks[:1]
		for _, t := range toks[1:] {
			dup := false
			for _, x := range out {
				if x == t {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, t)
			}
		}
		return out
	}
	seen := make(map[string]bool, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
