package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	authorindex "repro"
	"repro/internal/collate"
	"repro/internal/httpapi"
	"repro/internal/inverted"
	"repro/internal/model"
)

// response is what one request returned.
type response struct {
	Status int
	Body   []byte
}

// checkResponse is the oracle for one request: nil when the response has
// the expected status and content. For writes it returns the IDs the
// index acknowledged, in the order the works were posted.
func checkResponse(o *op, r response, coll collate.Options) ([]model.WorkID, error) {
	want := http.StatusOK
	if o.Kind == opAdd || o.Kind == opBatch {
		want = http.StatusCreated
	}
	if r.Status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", o.Method, o.Path, r.Status, want, r.Body)
	}
	var err error
	var ids []model.WorkID
	switch o.Kind {
	case opGet:
		err = checkGet(o, r.Body)
	case opSearch:
		err = checkSearch(o, r.Body)
	case opAuthors:
		err = checkAuthors(o, r.Body, coll)
	case opYears:
		err = checkYears(o, r.Body)
	case opRank:
		err = checkRank(o, r.Body)
	case opSubjects:
		err = checkSubjects(r.Body)
	case opAdd:
		var out map[string]model.WorkID
		if err = json.Unmarshal(r.Body, &out); err == nil {
			if id := out["id"]; id != 0 {
				ids = []model.WorkID{id}
			}
		}
	case opBatch:
		var out map[string][]model.WorkID
		if err = json.Unmarshal(r.Body, &out); err == nil {
			ids = out["ids"]
		}
	case opScrape:
		if !bytes.Contains(r.Body, []byte("\nauthdex_works ")) {
			err = fmt.Errorf("scrape lacks the authdex_works gauge")
		}
	}
	if err == nil && (o.Kind == opAdd || o.Kind == opBatch) && (len(ids) != len(o.Works) || slices.Contains(ids, 0)) {
		err = fmt.Errorf("%d works posted, %d IDs acknowledged", len(o.Works), len(ids))
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", o.Method, o.Path, err)
	}
	return ids, nil
}

// checkGet: the work equals the generated one.
func checkGet(o *op, body []byte) error {
	var got httpapi.Work
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if !equalWire(got, *o.Want) {
		return fmt.Errorf("got %+v, want %+v", got, *o.Want)
	}
	return nil
}

// checkSearch: every hit's title holds the term, within the limit.
func checkSearch(o *op, body []byte) error {
	var got []httpapi.Work
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) == 0 || len(got) > o.Limit {
		return fmt.Errorf("%d hits for a term taken from a stored title, limit %d", len(got), o.Limit)
	}
	for _, w := range got {
		if !slices.Contains(inverted.Tokenize(w.Title), o.Term) {
			return fmt.Errorf("hit %d %q lacks term %q", w.ID, w.Title, o.Term)
		}
	}
	return nil
}

// checkAuthors: every heading filed after the cursor, in strictly
// ascending collation order, each with works, at most the limit of them,
// and the requested heading among them — first, unless a concurrent
// write filed a new heading between the cursor and it.
func checkAuthors(o *op, body []byte, coll collate.Options) error {
	var got []httpapi.Entry
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) == 0 || len(got) > o.Limit {
		return fmt.Errorf("%d headings, limit %d", len(got), o.Limit)
	}
	found := false
	var last []byte
	if o.After != "" {
		a, err := authorindex.ParseAuthor(o.After)
		if err != nil {
			return fmt.Errorf("cursor %q: %w", o.After, err)
		}
		last = collate.KeyAuthor(a, coll)
	}
	for _, e := range got {
		a, err := authorindex.ParseAuthor(e.Heading)
		if err != nil {
			return fmt.Errorf("heading %q: %w", e.Heading, err)
		}
		key := collate.KeyAuthor(a, coll)
		if last != nil && bytes.Compare(last, key) >= 0 {
			return fmt.Errorf("heading %q out of collation order", e.Heading)
		}
		if len(e.Works) == 0 {
			return fmt.Errorf("heading %q has no works", e.Heading)
		}
		found = found || e.Heading == o.Heading
		last = key
	}
	if !found {
		return fmt.Errorf("page after %q lacks %q", o.After, o.Heading)
	}
	return nil
}

// checkYears: every work falls in the range, within the limit.
func checkYears(o *op, body []byte) error {
	var got []httpapi.Work
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) > o.Limit {
		return fmt.Errorf("%d works, limit %d", len(got), o.Limit)
	}
	for _, w := range got {
		c, err := authorindex.ParseCitation(w.Citation)
		if err != nil {
			return fmt.Errorf("work %d: %w", w.ID, err)
		}
		if c.Year < o.From || c.Year > o.To {
			return fmt.Errorf("work %d year %d outside %d-%d", w.ID, c.Year, o.From, o.To)
		}
	}
	return nil
}

// checkRank: a non-empty ranking, non-increasing in weighted credit.
func checkRank(o *op, body []byte) error {
	var got []authorindex.AuthorMetrics
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) == 0 || len(got) > o.Limit {
		return fmt.Errorf("%d ranked authors, limit %d", len(got), o.Limit)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Weighted > got[i-1].Weighted {
			return fmt.Errorf("rank %d (%g) above rank %d (%g)", i+1, got[i].Weighted, i, got[i-1].Weighted)
		}
	}
	return nil
}

// checkSubjects: a non-empty list of subjects that each hold works.
func checkSubjects(body []byte) error {
	var got []authorindex.SubjectCount
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no subjects")
	}
	for _, s := range got {
		if s.Subject == "" || s.Works <= 0 {
			return fmt.Errorf("subject %+v", s)
		}
	}
	return nil
}

// lostOnReopen is the durability oracle: after a close and reopen, every
// acknowledged work must read back equal to what was posted. It returns
// the works that did not.
func lostOnReopen(ix *authorindex.Index, acked map[model.WorkID]*model.Work) map[*model.Work]bool {
	lost := make(map[*model.Work]bool)
	for id, sent := range acked {
		if got, ok := ix.Get(id); !ok || !equalWire(wireWork(got), withID(sent, id)) {
			lost[sent] = true
		}
	}
	return lost
}

// withID is the wire form of a posted work under the ID it was given.
func withID(w *model.Work, id model.WorkID) httpapi.Work {
	out := wireWork(postable(w))
	out.ID = id
	return out
}
