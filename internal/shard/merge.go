package shard

import (
	"bytes"
	"strings"

	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/query"
)

// The k-way merges below all share one shape: per-shard inputs arrive
// already ordered (the engines stream results pre-sorted), so merging
// is a min-pick over one cursor per shard. Ties break toward the lower
// shard index, which makes every merge deterministic. With one
// non-empty input — always the case at shards=1 — the input is
// returned as-is, so the unsharded configuration pays nothing. This
// pass-through is the only place the read path looks at the shard
// count.

// MergeWorks merges per-shard citation-ordered work lists into one
// citation-ordered list, capped at limit (<=0: no cap). Inputs are
// consumed as-is; callers must not reuse them.
func MergeWorks(parts [][]*model.Work, limit int) []*model.Work {
	if only, ok := single(parts); ok {
		return capped(only, limit)
	}
	idx := make([]int, len(parts))
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if limit > 0 && limit < total {
		total = limit
	}
	out := make([]*model.Work, 0, total)
	for {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || query.CompareWorks(p[idx[i]], parts[best][idx[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// single reports whether at most one part is non-empty and returns
// that part (nil when every part is empty): the pass-through case.
func single[T any](parts [][]T) ([]T, bool) {
	var only []T
	for _, p := range parts {
		if len(p) > 0 {
			if only != nil {
				return nil, false
			}
			only = p
		}
	}
	return only, true
}

// capped truncates s to limit elements (<=0: no cap) without copying.
func capped[T any](s []T, limit int) []T {
	if limit > 0 && len(s) > limit {
		return s[:limit]
	}
	return s
}

// MergeEntries merges per-shard print-ordered author entries into one
// print-ordered list, capped at limit (<=0: no cap). An author whose
// works span shards appears once per shard in the inputs; the merged
// entry carries the works of every occurrence in citation order and the
// union of their cross-references, with the display form taken from the
// lowest shard. Inputs are consumed as-is; callers must not reuse them.
func MergeEntries(parts [][]*core.Entry, coll collate.Options, limit int) []*core.Entry {
	if only, ok := single(parts); ok {
		return capped(only, limit)
	}
	idx := make([]int, len(parts))
	keys := make([][]byte, len(parts))
	load := func(i int) {
		if idx[i] < len(parts[i]) {
			keys[i] = collate.KeyAuthor(parts[i][idx[i]].Author, coll)
		} else {
			keys[i] = nil
		}
	}
	for i := range parts {
		load(i)
	}
	var out []*core.Entry
	for {
		best := -1
		for i := range parts {
			if keys[i] == nil {
				continue
			}
			if best < 0 || bytes.Compare(keys[i], keys[best]) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		merged := parts[best][idx[best]]
		bk := keys[best]
		idx[best]++
		load(best)
		for i := best + 1; i < len(parts); i++ {
			if keys[i] != nil && bytes.Equal(keys[i], bk) {
				merged = mergeEntry(merged, parts[i][idx[i]], coll)
				idx[i]++
				load(i)
			}
		}
		out = append(out, merged)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Headings visits every distinct author heading of a root once, in
// print order, and returns how many there are. It k-way merges the
// per-shard heading trees by the collation key each index files its
// entries under, so no key is rebuilt. A heading filed on several
// shards is visited with the lowest shard's Author, the display form
// MergeEntries keeps. A nil fn only counts. With one non-empty shard
// the count is its Len and fn walks it directly.
func Headings(engs []*query.Engine, fn func(model.Author)) int {
	idxs := make([]*core.Index, 0, len(engs))
	for _, eng := range engs {
		if idx := eng.Index(); idx.Len() > 0 {
			idxs = append(idxs, idx)
		}
	}
	if len(idxs) == 0 {
		return 0
	}
	if len(idxs) == 1 {
		if fn != nil {
			idxs[0].Ascend(func(_ []byte, e *core.Entry) bool {
				fn(e.Author)
				return true
			})
		}
		return idxs[0].Len()
	}
	// A root is immutable, so its stored keys and entries stay valid
	// for the whole merge.
	type heading struct {
		key []byte
		e   *core.Entry
	}
	parts := make([][]heading, len(idxs))
	for i, idx := range idxs {
		parts[i] = make([]heading, 0, idx.Len())
		idx.Ascend(func(key []byte, e *core.Entry) bool {
			parts[i] = append(parts[i], heading{key, e})
			return true
		})
	}
	for n := 0; ; n++ {
		best := -1
		for i, p := range parts {
			if len(p) > 0 && (best < 0 || bytes.Compare(p[0].key, parts[best][0].key) < 0) {
				best = i
			}
		}
		if best < 0 {
			return n
		}
		h := parts[best][0]
		for i := best; i < len(parts); i++ {
			if len(parts[i]) > 0 && bytes.Equal(parts[i][0].key, h.key) {
				parts[i] = parts[i][1:]
			}
		}
		if fn != nil {
			fn(h.e.Author)
		}
	}
}

// mergeEntry combines two same-heading entries from different shards:
// works merge in (citation, title) order with a's kept first on equal
// keys, cross-references union in collation order.
func mergeEntry(a, b *core.Entry, coll collate.Options) *core.Entry {
	out := &core.Entry{Author: a.Author}
	out.Works = make([]model.Work, 0, len(a.Works)+len(b.Works))
	i, j := 0, 0
	for i < len(a.Works) && j < len(b.Works) {
		if compareEntryWorks(&a.Works[i], &b.Works[j]) <= 0 {
			out.Works = append(out.Works, a.Works[i])
			i++
		} else {
			out.Works = append(out.Works, b.Works[j])
			j++
		}
	}
	out.Works = append(out.Works, a.Works[i:]...)
	out.Works = append(out.Works, b.Works[j:]...)
	out.SeeAlso = mergeSeeAlso(a.SeeAlso, b.SeeAlso, coll)
	return out
}

// compareEntryWorks orders entry postings exactly as core.insertWork
// files them: citation, then title.
func compareEntryWorks(a, b *model.Work) int {
	if c := a.Citation.Compare(b.Citation); c != 0 {
		return c
	}
	return strings.Compare(a.Title, b.Title)
}

// mergeSeeAlso unions two collation-ordered cross-reference lists,
// dropping exact duplicates.
func mergeSeeAlso(a, b []model.Author, coll collate.Options) []model.Author {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]model.Author, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		c := bytes.Compare(collate.KeyAuthor(a[i], coll), collate.KeyAuthor(b[j], coll))
		switch {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			if a[i] == b[j] {
				j++
			}
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// MergeSubjects merges per-shard collation-ordered subject counts,
// summing the work counts of headings present on several shards. The
// display form comes from the lowest shard. Inputs carry the collation
// keys their engines filed them under (KeyedSubjects), so the merge
// never computes a key. The output drops the keys, so one non-empty
// input is copied by the same loop rather than passed through.
func MergeSubjects(parts [][]query.KeyedSubject) []query.SubjectCount {
	idx := make([]int, len(parts))
	var out []query.SubjectCount
	for {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || bytes.Compare(p[idx[i]].Key, parts[best][idx[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		sc := parts[best][idx[best]].SubjectCount
		bk := parts[best][idx[best]].Key
		idx[best]++
		for i := best + 1; i < len(parts); i++ {
			if idx[i] < len(parts[i]) && bytes.Equal(parts[i][idx[i]].Key, bk) {
				sc.Works += parts[i][idx[i]].Works
				idx[i]++
			}
		}
		out = append(out, sc)
	}
	return out
}

// MergeSections merges per-shard letter-grouped sections: entries are
// flattened, merged in print order, and regrouped by first letter —
// the same grouping core.Index.Sections applies.
func MergeSections(parts [][]core.Section, coll collate.Options) []core.Section {
	if only, ok := single(parts); ok {
		return only
	}
	entryParts := make([][]*core.Entry, len(parts))
	for i, secs := range parts {
		for _, s := range secs {
			entryParts[i] = append(entryParts[i], s.Entries...)
		}
	}
	merged := MergeEntries(entryParts, coll, 0)
	var out []core.Section
	for _, e := range merged {
		letter := collate.FirstLetter(e.Author, coll)
		if n := len(out); n == 0 || out[n-1].Letter != letter {
			out = append(out, core.Section{Letter: letter})
		}
		s := &out[len(out)-1]
		s.Entries = append(s.Entries, e)
	}
	return out
}
