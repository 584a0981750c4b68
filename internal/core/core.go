// Package core implements the author index itself: an alphabetized,
// incrementally maintained mapping from authors to the works they wrote,
// with per-letter sections and "see also" cross-references — the data
// structure whose printed form is the front-matter artifact.
//
// Entries are keyed by collation key in a B+tree, so iteration order is
// print order. The index is not safe for concurrent mutation; the public
// facade serializes access.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/btree"
	"repro/internal/collate"
	"repro/internal/model"
	"repro/internal/parallel"
)

// Entry is one author heading and the works filed under it. A heading
// with no works may still exist to carry cross-references.
type Entry struct {
	Author model.Author
	// Works are sorted by citation (volume, page, year), then title.
	Works []model.Work
	// SeeAlso lists alternate headings the reader should consult,
	// maintained in collation order.
	SeeAlso []model.Author
}

// Clone returns a deep copy of a live entry (see Lookup), for callers
// that hand the entry out or modify it.
func (e *Entry) Clone() *Entry {
	c := &Entry{Author: e.Author}
	c.Works = make([]model.Work, len(e.Works))
	for i := range e.Works {
		c.Works[i] = *e.Works[i].Clone()
	}
	c.SeeAlso = append([]model.Author(nil), e.SeeAlso...)
	return c
}

// Section is one letter group of the printed index.
type Section struct {
	Letter  byte // 'A'..'Z', or '#' for headings that file under none
	Entries []*Entry
}

// Stats summarizes index contents. The index does not count distinct
// works: query.Engine reports them from its ID tree.
type Stats struct {
	Authors      int // distinct headings (entries)
	Postings     int // author–work pairs
	StudentNotes int // postings under student headings
	CrossRefs    int // see-also references
}

// Index is the author index over a corpus of works.
//
// Mutations follow a copy-on-write discipline: a filed *Entry is never
// modified in place — the mutating method copies it, edits the copy, and
// replaces the tree value — so a Clone taken before the mutation keeps a
// frozen, internally consistent view with zero coordination.
type Index struct {
	opts     collate.Options
	entries  *btree.Tree[*Entry]
	postings int
	students int
	crossRef int
}

// New returns an empty index using the given collation options.
func New(opts collate.Options) *Index {
	return &Index{opts: opts, entries: btree.New[*Entry]()}
}

// Clone returns an O(1) copy-on-write snapshot: the heading tree shares
// every node until one side mutates, and entries are immutable values
// replaced wholesale, so the clone's view is frozen.
func (ix *Index) Clone() *Index {
	cp := *ix
	cp.entries = ix.entries.Clone()
	return &cp
}

// mutableCopy returns a copy of e safe to edit while the original stays
// visible to snapshot readers. Works and SeeAlso get fresh backing
// arrays; the work values inside still share their author/subject
// slices, which nothing ever mutates in place.
func (e *Entry) mutableCopy() *Entry {
	cp := &Entry{Author: e.Author}
	if len(e.Works) > 0 {
		cp.Works = append(make([]model.Work, 0, len(e.Works)+1), e.Works...)
	}
	if len(e.SeeAlso) > 0 {
		cp.SeeAlso = append(make([]model.Author, 0, len(e.SeeAlso)+1), e.SeeAlso...)
	}
	return cp
}

// Options returns the collation options the index was built with.
func (ix *Index) Options() collate.Options { return ix.opts }

// Add files w under each of its authors. Works must carry distinct IDs;
// re-adding an ID that is already filed under the same author replaces
// that posting.
//
// Like Load, Add files w by value and retains its author and subject
// slices read-only rather than deep-copying them per author: callers
// hand w over (query.Engine passes the work it was handed, which the
// facade cloned from its caller's) and must not modify it afterwards.
func (ix *Index) Add(w *model.Work) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if w.ID == 0 {
		return fmt.Errorf("core: work %q has no ID", w.Title)
	}
	for _, a := range w.Authors {
		key := collate.KeyAuthor(a, ix.opts)
		e, ok := ix.entries.Get(key)
		if ok {
			e = e.mutableCopy()
		} else {
			e = &Entry{Author: a}
		}
		if e.insertWork(w) {
			ix.postings++
			if a.Student {
				ix.students++
			}
		}
		ix.entries.Set(key, e)
	}
	return nil
}

// Remove unfiles w from each of its authors; headings left with neither
// works nor cross-references are deleted. Removing a work that is not
// present is a no-op.
func (ix *Index) Remove(w *model.Work) {
	for _, a := range w.Authors {
		key := collate.KeyAuthor(a, ix.opts)
		e, ok := ix.entries.Get(key)
		if !ok {
			continue
		}
		cp := e.mutableCopy()
		if !cp.removeWork(w.ID) {
			continue
		}
		ix.postings--
		if a.Student {
			ix.students--
		}
		if len(cp.Works) == 0 && len(cp.SeeAlso) == 0 {
			ix.entries.Delete(key)
		} else {
			ix.entries.Set(key, cp)
		}
	}
}

// AddSeeAlso records a cross-reference from one heading to another,
// creating the source heading if needed: AddSeeAlsoBatch of one.
// Duplicate references are ignored; a self-reference is an error.
func (ix *Index) AddSeeAlso(from, to model.Author) error {
	return ix.AddSeeAlsoBatch([]SeeAlsoRef{{From: from, To: to}})
}

// RemoveSeeAlso deletes a cross-reference; the source heading is removed
// too if it has no works left. It reports whether the reference existed.
func (ix *Index) RemoveSeeAlso(from, to model.Author) bool {
	key := collate.KeyAuthor(from, ix.opts)
	e, ok := ix.entries.Get(key)
	if !ok {
		return false
	}
	for i, existing := range e.SeeAlso {
		if existing == to {
			cp := e.mutableCopy()
			cp.SeeAlso = append(cp.SeeAlso[:i], cp.SeeAlso[i+1:]...)
			ix.crossRef--
			if len(cp.Works) == 0 && len(cp.SeeAlso) == 0 {
				ix.entries.Delete(key)
			} else {
				ix.entries.Set(key, cp)
			}
			return true
		}
	}
	return false
}

// Lookup returns the entry filed for an exact author heading. The
// entry is live and frozen: a mutation files a copy and never edits it,
// so it stays safe to read for as long as the caller holds it, but the
// caller must not modify it and must Clone what it hands out.
func (ix *Index) Lookup(a model.Author) (*Entry, bool) {
	return ix.entries.Get(collate.KeyAuthor(a, ix.opts))
}

// Ascend visits every entry in print order, with the collation key it
// is filed under, until fn returns false. Keys and entries passed to fn
// are live; fn must not mutate them, and may hold them only while the
// index is no longer mutated (a published snapshot) — use Lookup for a
// stable copy.
func (ix *Index) Ascend(fn func(key []byte, e *Entry) bool) {
	ix.entries.Ascend(fn)
}

// AscendPrefix visits entries whose primary collation text starts with
// the folded prefix (e.g. "ab" matches Abdalla and Abrams), in order.
func (ix *Index) AscendPrefix(prefix string, fn func(*Entry) bool) {
	p := collate.PrimaryPrefix(prefix, ix.opts)
	ix.entries.AscendPrefix(p, func(_ []byte, e *Entry) bool { return fn(e) })
}

// AscendAfter visits entries strictly after the given author heading in
// print order, until fn returns false. Use the zero Author to start from
// the beginning. The heading itself need not exist.
func (ix *Index) AscendAfter(after model.Author, fn func(*Entry) bool) {
	// The smallest possible key strictly greater than after's key is the
	// key with a zero byte appended; a nil lo starts at the beginning.
	var lo []byte
	if !after.IsZero() {
		lo = append(collate.KeyAuthor(after, ix.opts), 0)
	}
	ix.entries.AscendRange(lo, nil, func(_ []byte, e *Entry) bool { return fn(e) })
}

// Sections groups entries by first letter for rendering. The section
// slices are the caller's; the entries are live and frozen, as Lookup's.
func (ix *Index) Sections() []Section {
	var sections []Section
	ix.entries.Ascend(func(_ []byte, e *Entry) bool {
		letter := collate.FirstLetter(e.Author, ix.opts)
		if n := len(sections); n == 0 || sections[n-1].Letter != letter {
			sections = append(sections, Section{Letter: letter})
		}
		s := &sections[len(sections)-1]
		s.Entries = append(s.Entries, e)
		return true
	})
	return sections
}

// Stats returns current counters.
func (ix *Index) Stats() Stats {
	return Stats{
		Authors:      ix.entries.Len(),
		Postings:     ix.postings,
		StudentNotes: ix.students,
		CrossRefs:    ix.crossRef,
	}
}

// Len returns the number of headings.
func (ix *Index) Len() int { return ix.entries.Len() }

// Rebuild constructs a fresh index from a corpus in one pass. It is the
// "full rebuild" baseline that incremental maintenance is measured
// against in experiment E3. Like Add, it retains the works read-only.
func Rebuild(opts collate.Options, works []*model.Work) (*Index, error) {
	ix := New(opts)
	for _, w := range works {
		if err := ix.Add(w); err != nil {
			return nil, fmt.Errorf("core: rebuild work %d: %w", w.ID, err)
		}
	}
	return ix, nil
}

// Load bulk-constructs an index over a complete corpus, bottom-up: the
// works filed under each heading accumulate in a map, each entry's
// postings are ordered with one stable pointer sort and materialized
// with one allocation (entries sort and materialize on parallel
// goroutines), and the heading tree is built with btree.BulkLoad from
// one sorted pass — no per-posting tree descent, no binary-search
// insertion, no node splits. For works with unique IDs the result is
// identical to New followed by Add for every work, down to the order of
// equal citation keys within an entry.
//
// Unlike Add, Load retains the given works read-only: entry postings
// share their author and subject arrays rather than deep-copying one
// clone per posting (nothing in the index ever mutates a filed work in
// place — insertWork replaces whole elements). Callers hand the corpus
// over and must not modify it afterwards.
func Load(opts collate.Options, works []*model.Work) (*Index, error) {
	ix := New(opts)
	type accum struct {
		e    *Entry
		refs []*model.Work
	}
	entries := make(map[string]*accum)
	keys := make([]string, 0, len(works))
	// keyMemo caches each distinct author's collation key: in a whole
	// corpus the same author recurs once per work, and key construction
	// (folding, tiering) would otherwise dominate the accumulation pass.
	keyMemo := make(map[model.Author]string)
	var scratch []*accum // headings filed by the current work
	for _, w := range works {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("core: load work %d: %w", w.ID, err)
		}
		if w.ID == 0 {
			return nil, fmt.Errorf("core: work %q has no ID", w.Title)
		}
		scratch = scratch[:0]
		for _, a := range w.Authors {
			key, ok := keyMemo[a]
			if !ok {
				key = string(collate.KeyAuthor(a, opts))
				keyMemo[a] = key
			}
			ac, ok := entries[key]
			if !ok {
				ac = &accum{e: &Entry{Author: a}}
				entries[key] = ac
				keys = append(keys, key)
			}
			// A second listing of the same heading on one work is the
			// in-place replacement case for Add: the posting is filed once.
			dup := false
			for _, seen := range scratch {
				if seen == ac {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			scratch = append(scratch, ac)
			ac.refs = append(ac.refs, w)
			ix.postings++
			if a.Student {
				ix.students++
			}
		}
	}
	sort.Strings(keys)
	// Order and materialize each entry: reverse then stable-sort the
	// refs — insertWork files a new work before existing works with an
	// equal (citation, title) key, so sequential Adds leave equal keys
	// in reverse add order, and reverse-plus-stable-sort reproduces that
	// byte for byte — then clone into an exactly-sized Works slice.
	// Entries are independent, so the work fans out across cores.
	if err := parallel.Ranges(len(keys), func(lo, hi int) error {
		// Each entry gets its own exactly-sized Works slice (no shared
		// backing array: a later Remove must let this entry's postings
		// be collected without waiting for every sibling to go too).
		for _, k := range keys[lo:hi] {
			ac := entries[k]
			refs := ac.refs
			for i, j := 0, len(refs)-1; i < j; i, j = i+1, j-1 {
				refs[i], refs[j] = refs[j], refs[i]
			}
			sort.SliceStable(refs, func(i, j int) bool { return comparePostings(refs[i], refs[j]) < 0 })
			ac.e.Works = make([]model.Work, len(refs))
			for i, w := range refs {
				ac.e.Works[i] = *w // shallow: shares the retained corpus
			}
		}
		return nil
	}); err != nil {
		// Unreachable today (the callback never fails), but a fallible
		// future materialization must not be swallowed.
		return nil, err
	}
	pairs := make([]btree.Pair[*Entry], len(keys))
	for i, k := range keys {
		pairs[i] = btree.Pair[*Entry]{Key: []byte(k), Value: entries[k].e}
	}
	tree, err := btree.BulkLoad(pairs)
	if err != nil {
		// Unreachable: map keys are unique and just sorted.
		return nil, err
	}
	ix.entries = tree
	return ix, nil
}

// SeeAlsoRef is one cross-reference pair for AddSeeAlsoBatch.
type SeeAlsoRef struct {
	From, To model.Author
}

// AddSeeAlsoBatch records a batch of cross-references under one
// validation pass, copying each touched heading once and sorting its
// SeeAlso list once. Every ref is validated before anything is
// recorded, so an invalid ref anywhere in the batch leaves the index
// unchanged. Duplicate refs (in the batch or already recorded) are
// ignored.
func (ix *Index) AddSeeAlsoBatch(refs []SeeAlsoRef) error {
	if len(refs) == 0 {
		return nil
	}
	for _, ref := range refs {
		if err := ref.From.Validate(); err != nil {
			return err
		}
		if err := ref.To.Validate(); err != nil {
			return err
		}
		if ref.From.Display() == ref.To.Display() {
			return fmt.Errorf("core: see-also from %q to itself", ref.From.Display())
		}
	}
	// touched maps collation key → this batch's owned copy of the entry,
	// so each heading is copied once no matter how many refs hit it and
	// shared originals are never written.
	touched := make(map[string]*Entry)
	for _, ref := range refs {
		key := collate.KeyAuthor(ref.From, ix.opts)
		e, owned := touched[string(key)]
		if !owned {
			if orig, ok := ix.entries.Get(key); ok {
				e = orig.mutableCopy()
			} else {
				e = &Entry{Author: ref.From}
			}
			touched[string(key)] = e
		}
		dup := false
		for _, existing := range e.SeeAlso {
			if existing == ref.To {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		e.SeeAlso = append(e.SeeAlso, ref.To)
		ix.crossRef++
	}
	for k, e := range touched {
		sort.Slice(e.SeeAlso, func(i, j int) bool {
			return string(collate.KeyAuthor(e.SeeAlso[i], ix.opts)) <
				string(collate.KeyAuthor(e.SeeAlso[j], ix.opts))
		})
		ix.entries.Set([]byte(k), e)
	}
	return nil
}

// comparePostings orders the works filed under a heading: citation
// (volume, page, year), then title.
func comparePostings(a, b *model.Work) int {
	if c := a.Citation.Compare(b.Citation); c != 0 {
		return c
	}
	return strings.Compare(a.Title, b.Title)
}

// search returns the position of the first filed work whose posting
// order is not below w's.
func (e *Entry) search(w *model.Work) int {
	return sort.Search(len(e.Works), func(i int) bool { return comparePostings(&e.Works[i], w) >= 0 })
}

// Files reports whether w is filed under e. A heading's works are kept
// in posting order, so the search is a binary search to w's citation
// and title and a scan of the works sharing them.
func (e *Entry) Files(w *model.Work) bool {
	for i := e.search(w); i < len(e.Works) && comparePostings(&e.Works[i], w) == 0; i++ {
		if e.Works[i].ID == w.ID {
			return true
		}
	}
	return false
}

// insertWork files w by value in posting order, before the works with
// an equal citation and title; returns false if the ID was already
// filed (the old posting is unfiled first, so the order holds).
func (e *Entry) insertWork(w *model.Work) bool {
	replaced := e.removeWork(w.ID)
	e.Works = slices.Insert(e.Works, e.search(w), *w)
	return !replaced
}

func (e *Entry) removeWork(id model.WorkID) bool {
	for i := range e.Works {
		if e.Works[i].ID == id {
			e.Works = append(e.Works[:i], e.Works[i+1:]...)
			// Help the GC: clear the duplicated tail slot so the spliced
			// work's pointers are not pinned by the slice's capacity.
			if n := len(e.Works); n < cap(e.Works) {
				e.Works[:cap(e.Works)][n] = model.Work{}
			}
			return true
		}
	}
	return false
}
