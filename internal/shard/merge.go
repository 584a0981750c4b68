package shard

import (
	"bytes"
	"slices"

	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/query"
)

// Every cross-shard read is one k-way merge (merge below): per-shard
// inputs arrive already ordered (the engines stream results pre-sorted),
// so merging is a min-pick over one cursor per shard. Its invariants:
//
//   - The result is "concatenate the parts, stable-sort by key, group
//     equal keys": each run of equal keys comes out lowest shard first,
//     in input order within a shard, so every merge is deterministic.
//   - Each element's key is computed once, when its cursor reaches it.
//   - The caller can stop the merge early (a limit).
//
// With one non-empty input — always the case at shards=1 — the exported
// merges return the input as-is, so the unsharded configuration pays
// nothing. This pass-through is the only place the read path looks at
// the shard count. Inputs are consumed as-is; callers must not reuse
// them. Entries come out live (see core.Index.Lookup): a merged entry
// is a new value, but it shares its works with the shards' filed ones,
// so only the facade copies, once, what it returns.

// merge k-way merges parts, each ascending under cmp over the keys key
// extracts, and calls yield once per distinct key, in ascending order,
// with every element holding that key: lowest part first, in input
// order within a part. yield returns false to stop. The run slice is
// reused between calls.
func merge[T, K any](parts [][]T, key func(T) K, cmp func(a, b K) int, yield func(run []T) bool) {
	rest := make([][]T, len(parts))
	heads := make([]K, len(parts)) // key of rest[i][0]
	for i, p := range parts {
		if len(p) > 0 {
			rest[i], heads[i] = p, key(p[0])
		}
	}
	var run []T
	for {
		best := -1
		for i := range rest {
			if len(rest[i]) > 0 && (best < 0 || cmp(heads[i], heads[best]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		// Parts before best hold only larger keys: best is the first
		// part with the least one.
		lo := heads[best]
		run = run[:0]
		for i := best; i < len(rest); i++ {
			for len(rest[i]) > 0 && cmp(heads[i], lo) == 0 {
				run = append(run, rest[i][0])
				if rest[i] = rest[i][1:]; len(rest[i]) > 0 {
					heads[i] = key(rest[i][0])
				}
			}
		}
		if !yield(run) {
			return
		}
	}
}

// self is the key of elements that compare themselves.
func self[T any](v T) T { return v }

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

// MergeWorks merges per-shard citation-ordered work lists into one
// citation-ordered list, capped at limit (<=0: no cap).
func MergeWorks(parts [][]*model.Work, limit int) []*model.Work {
	if only, ok := single(parts); ok {
		return capped(only, limit)
	}
	var out []*model.Work
	merge(parts, self[*model.Work], query.CompareWorks, func(run []*model.Work) bool {
		out = append(out, run...)
		return limit <= 0 || len(out) < limit
	})
	return capped(out, limit)
}

// MergeEntries merges per-shard print-ordered author entries into one
// print-ordered list, capped at limit (<=0: no cap). An author whose
// works span shards appears once per shard in the inputs; the merged
// entry carries the works of every occurrence in citation order and the
// union of their cross-references, with the display form taken from the
// lowest shard.
func MergeEntries(parts [][]*core.Entry, coll collate.Options, limit int) []*core.Entry {
	if only, ok := single(parts); ok {
		return capped(only, limit)
	}
	var out []*core.Entry
	key := func(e *core.Entry) []byte { return collate.KeyAuthor(e.Author, coll) }
	merge(parts, key, bytes.Compare, func(run []*core.Entry) bool {
		if len(run) == 1 {
			out = append(out, run[0])
		} else {
			out = append(out, foldEntries(run, coll))
		}
		return limit <= 0 || len(out) < limit
	})
	return out
}

// foldEntries combines one heading's entries from different shards,
// lowest shard first: works merge in (citation, title) order, keeping
// the lower shard's first on equal keys, and cross-references union in
// collation order, exact duplicates dropped.
func foldEntries(run []*core.Entry, coll collate.Options) *core.Entry {
	out := &core.Entry{Author: run[0].Author}
	works := make([][]model.Work, len(run))
	refs := make([][]model.Author, len(run))
	n := 0
	for i, e := range run {
		works[i], refs[i] = e.Works, e.SeeAlso
		n += len(e.Works)
	}
	out.Works = make([]model.Work, 0, n)
	merge(works, self[model.Work], func(a, b model.Work) int { return core.ComparePostings(&a, &b) },
		func(ws []model.Work) bool {
			out.Works = append(out.Works, ws...)
			return true
		})
	key := func(a model.Author) []byte { return collate.KeyAuthor(a, coll) }
	merge(refs, key, bytes.Compare, func(as []model.Author) bool {
		for i, a := range as {
			if !slices.Contains(as[:i], a) {
				out.SeeAlso = append(out.SeeAlso, a)
			}
		}
		return true
	})
	return out
}

// Headings visits every distinct author heading of a root once, in
// print order, and returns how many there are. It merges the per-shard
// heading trees by the collation key each index files its entries
// under, so no key is rebuilt. A heading filed on several shards is
// visited with the lowest shard's Author, the display form MergeEntries
// keeps. A nil fn only counts. With one non-empty shard the count is
// its Len and fn walks it directly.
func Headings(engs []*query.Engine, fn func(model.Author)) int {
	idxs := make([]*core.Index, 0, len(engs))
	for _, eng := range engs {
		if idx := eng.Index(); idx.Len() > 0 {
			idxs = append(idxs, idx)
		}
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
	n := 0
	merge(parts, func(h heading) []byte { return h.key }, bytes.Compare, func(run []heading) bool {
		n++
		if fn != nil {
			fn(run[0].e.Author)
		}
		return true
	})
	return n
}

// MergeSubjects merges per-shard collation-ordered subject counts,
// summing the work counts of headings present on several shards. The
// display form comes from the lowest shard. Inputs carry the collation
// keys their engines filed them under (KeyedSubjects), so the merge
// never computes a key. The output drops the keys, so one non-empty
// input is copied by the same merge rather than passed through.
func MergeSubjects(parts [][]query.KeyedSubject) []query.SubjectCount {
	var out []query.SubjectCount
	key := func(s query.KeyedSubject) []byte { return s.Key }
	merge(parts, key, bytes.Compare, func(run []query.KeyedSubject) bool {
		sc := run[0].SubjectCount
		for _, s := range run[1:] {
			sc.Works += s.Works
		}
		out = append(out, sc)
		return true
	})
	return out
}

// MergeSections merges per-shard letter-grouped sections: entries are
// flattened, merged in print order, and regrouped by first letter with
// core.AppendGrouped, the grouping core.Index.Sections applies.
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
	var out []core.Section
	for _, e := range MergeEntries(entryParts, coll, 0) {
		out = core.AppendGrouped(out, e, coll)
	}
	return out
}
