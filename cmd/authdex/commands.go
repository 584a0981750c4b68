package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	authorindex "repro"
)

// openFlags declares the flags every index-touching command shares and
// returns an opener bound to them. Tweaks adjust the Options before
// Open (e.g. the metrics commands set the credit scheme so the tracker
// is built once, during the rebuild from the store).
func openFlags(fs *flag.FlagSet) func(tweaks ...func(*authorindex.Options)) (*authorindex.Index, error) {
	dir := fs.String("dir", "", "index directory (required)")
	nosync := fs.Bool("nosync", false, "skip fsync on writes (faster, less durable)")
	compactEvery := fs.Int("compact-every", 0, "auto-compact after N logged operations")
	return func(tweaks ...func(*authorindex.Options)) (*authorindex.Index, error) {
		if *dir == "" {
			return nil, errors.New("-dir is required")
		}
		opts := authorindex.Options{
			NoSync:       *nosync,
			CompactEvery: *compactEvery,
		}
		for _, tweak := range tweaks {
			tweak(&opts)
		}
		return authorindex.Open(*dir, &opts)
	}
}

// withScheme is the opener tweak the metrics-facing commands share.
func withScheme(s authorindex.Scheme) func(*authorindex.Options) {
	return func(o *authorindex.Options) { o.MetricsScheme = s }
}

func outWriter(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func cmdGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	works := fs.Int("works", 1000, "number of works")
	seed := fs.Int64("seed", 1, "generator seed")
	zipf := fs.Float64("zipf", 0, "author-productivity skew (>1 enables; try 1.2)")
	volumes := fs.Int("volumes", 0, "volume count (0 = default 27)")
	plain := fs.Bool("plain", false, "suppress diacritics/particles/suffixes")
	format := fs.String("format", "tsv", "output format: tsv or csv")
	out := fs.String("out", "-", "output file (- for stdout)")
	fs.Parse(args)

	corpus := authorindex.GenerateCorpus(authorindex.CorpusConfig{
		Seed: *seed, Works: *works, ZipfS: *zipf, Volumes: *volumes, Plain: *plain,
	})
	ix, err := authorindex.Open("", nil)
	if err != nil {
		return err
	}
	defer ix.Close()
	for _, w := range corpus {
		if _, err := ix.Add(*w); err != nil {
			return err
		}
	}
	f, err := authorindex.ParseFormat(*format)
	if err != nil {
		return err
	}
	if f != authorindex.TSV && f != authorindex.CSV {
		return fmt.Errorf("gen writes tsv or csv, not %s", f)
	}
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	return ix.RenderCtx(ctx, w, authorindex.RenderOptions{Format: f})
}

func cmdBuild(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	open := openFlags(fs)
	in := fs.String("in", "", "input corpus file (required; - for stdin)")
	format := fs.String("format", "tsv", "input format: tsv or csv")
	lenient := fs.Bool("lenient", false, "skip malformed lines instead of failing")
	batch := fs.Int("batch", 0, "works per group commit (0 = default 256)")
	fs.Parse(args)

	if *in == "" {
		return errors.New("-in is required")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	ix, err := open(func(o *authorindex.Options) { o.IngestBatchSize = *batch })
	if err != nil {
		return err
	}
	defer ix.Close()
	before := ix.Stats()
	var res *authorindex.IngestResult
	switch strings.ToLower(*format) {
	case "tsv":
		res, err = ix.ImportTSV(r, *lenient)
	case "csv":
		res, err = ix.ImportCSV(r, *lenient)
	default:
		return fmt.Errorf("build reads tsv or csv, not %q", *format)
	}
	if err != nil {
		return err
	}
	after := ix.Stats()
	fmt.Printf("imported %d works, %d cross-refs (%d lines skipped)\n",
		len(res.Works), len(res.CrossRefs), res.Skipped)
	fmt.Printf("group commit: %d batches, %d fsyncs issued, %d fsyncs saved vs per-work writes\n",
		after.BatchesCommitted-before.BatchesCommitted,
		after.WALSyncs-before.WALSyncs,
		after.FsyncsSaved-before.FsyncsSaved)
	return nil
}

type authorList []string

func (a *authorList) String() string     { return strings.Join(*a, "; ") }
func (a *authorList) Set(s string) error { *a = append(*a, s); return nil }

func cmdAdd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	open := openFlags(fs)
	title := fs.String("title", "", "work title (required)")
	cite := fs.String("cite", "", `citation, e.g. "95:1365 (1993)" (required)`)
	kind := fs.String("kind", "article", "work kind")
	var authors authorList
	fs.Var(&authors, "author", `author heading, repeatable, e.g. "Lewin, Jeff L."`)
	fs.Parse(args)

	if *title == "" || *cite == "" || len(authors) == 0 {
		return errors.New("-title, -cite and at least one -author are required")
	}
	w := authorindex.Work{Title: *title}
	var err error
	if w.Citation, err = authorindex.ParseCitation(*cite); err != nil {
		return err
	}
	if w.Kind, err = parseKind(*kind); err != nil {
		return err
	}
	for _, s := range authors {
		a, err := authorindex.ParseAuthor(s)
		if err != nil {
			return err
		}
		w.Authors = append(w.Authors, a)
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	id, err := ix.Add(w)
	if err != nil {
		return err
	}
	fmt.Printf("added work #%d\n", id)
	return nil
}

func parseKind(s string) (authorindex.Kind, error) {
	for _, k := range []authorindex.Kind{
		authorindex.KindArticle, authorindex.KindStudentNote,
		authorindex.KindEssay, authorindex.KindBookReview,
		authorindex.KindComment, authorindex.KindCaseNote,
		authorindex.KindTribute,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func printWorks(works []*authorindex.Work) {
	for _, w := range works {
		names := make([]string, len(w.Authors))
		for i, a := range w.Authors {
			names[i] = authorindex.FormatAuthor(a)
		}
		fmt.Printf("#%-6d %-14s %s — %s [%s]\n",
			w.ID, w.Citation, strings.Join(names, "; "), w.Title, w.Kind)
	}
}

func cmdLookup(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	open := openFlags(fs)
	author := fs.String("author", "", `heading, e.g. "Lewin, Jeff L." (required)`)
	fs.Parse(args)
	if *author == "" {
		return errors.New("-author is required")
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	entry, ok := ix.Author(*author)
	if !ok {
		return fmt.Errorf("no heading %q", *author)
	}
	fmt.Println(authorindex.FormatAuthor(entry.Author))
	for _, ref := range entry.SeeAlso {
		fmt.Printf("  see also: %s\n", authorindex.FormatAuthor(ref))
	}
	for _, w := range entry.Works {
		fmt.Printf("  %-14s %s\n", w.Citation, w.Title)
	}
	return nil
}

func cmdPrefix(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("prefix", flag.ExitOnError)
	open := openFlags(fs)
	p := fs.String("p", "", "heading prefix (empty = all)")
	n := fs.Int("n", 20, "max headings (0 = all, capped at 10000)")
	fs.Parse(args)
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	for _, e := range ix.Authors(*p, authorindex.ClampLimit(*n, 20)) {
		fmt.Printf("%-40s %d works\n", authorindex.FormatAuthor(e.Author), len(e.Works))
	}
	return nil
}

func cmdSearch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	open := openFlags(fs)
	q := fs.String("q", "", `query, e.g. "surface mining -tax" or "coal*" (required)`)
	n := fs.Int("n", 20, "max results (0 = all, capped at 10000)")
	fs.Parse(args)
	if *q == "" {
		return errors.New("-q is required")
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	printWorks(ix.SearchCtx(ctx, *q, authorindex.ClampLimit(*n, 20)))
	return nil
}

func cmdYears(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("years", flag.ExitOnError)
	open := openFlags(fs)
	from := fs.Int("from", 0, "first year (required)")
	to := fs.Int("to", 0, "last year (required)")
	n := fs.Int("n", 20, "max results (0 = all, capped at 10000)")
	fs.Parse(args)
	if *from == 0 || *to == 0 {
		return errors.New("-from and -to are required")
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	printWorks(ix.YearRangeCtx(ctx, *from, *to, authorindex.ClampLimit(*n, 20)))
	return nil
}

func cmdVolume(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("volume", flag.ExitOnError)
	open := openFlags(fs)
	v := fs.Int("v", 0, "volume number (required)")
	n := fs.Int("n", 0, "max results (0 = all, capped at 10000)")
	fs.Parse(args)
	if *v == 0 {
		return errors.New("-v is required")
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	printWorks(ix.VolumeWorksCtx(ctx, *v, authorindex.ClampLimit(*n, 20)))
	return nil
}

func cmdRender(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	open := openFlags(fs)
	format := fs.String("format", "text", "text, tsv, markdown, csv or json")
	out := fs.String("out", "-", "output file (- for stdout)")
	pagelen := fs.Int("pagelen", 0, "lines per page (0 = no pagination)")
	width := fs.Int("width", 78, "page width")
	pub := fs.String("publication", "", "running-head publication name")
	volnum := fs.Int("volnum", 0, "running-head volume number")
	year := fs.Int("year", 0, "running-head year")
	stats := fs.Bool("stats", false, "append the contributor-statistics appendix (text/markdown/json)")
	statsTop := fs.Int("stats-top", 10, "ranked contributors in the appendix")
	network := fs.Bool("network", false, "append the collaboration-network appendix (text/markdown/json)")
	networkTop := fs.Int("network-top", 10, "ranked central authors in the network appendix")
	fs.Parse(args)

	f, err := authorindex.ParseFormat(*format)
	if err != nil {
		return err
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	return ix.RenderCtx(ctx, w, authorindex.RenderOptions{
		Format:       f,
		PageLength:   *pagelen,
		PageWidth:    *width,
		Volume:       authorindex.Volume{Publication: *pub, Number: *volnum, Year: *year},
		Statistics:   *stats,
		StatsLimit:   *statsTop,
		Network:      *network,
		NetworkLimit: *networkTop,
	})
}

func cmdTitles(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("titles", flag.ExitOnError)
	open := openFlags(fs)
	format := fs.String("format", "text", "text, tsv or markdown")
	out := fs.String("out", "-", "output file (- for stdout)")
	pagelen := fs.Int("pagelen", 0, "lines per page (0 = no pagination)")
	width := fs.Int("width", 78, "page width")
	fs.Parse(args)

	f, err := authorindex.ParseFormat(*format)
	if err != nil {
		return err
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	return ix.RenderTitleIndex(w, authorindex.RenderOptions{
		Format:     f,
		PageLength: *pagelen,
		PageWidth:  *width,
	})
}

func cmdSubjects(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("subjects", flag.ExitOnError)
	open := openFlags(fs)
	s := fs.String("s", "", "show works under this subject (default: list all headings)")
	renderIt := fs.Bool("render", false, "render the full subject index instead")
	format := fs.String("format", "text", "render format: text, tsv or markdown")
	n := fs.Int("n", 0, "max results (0 = all, capped at 10000)")
	fs.Parse(args)

	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	switch {
	case *renderIt:
		f, err := authorindex.ParseFormat(*format)
		if err != nil {
			return err
		}
		return ix.RenderSubjectIndex(os.Stdout, authorindex.RenderOptions{Format: f})
	case *s != "":
		printWorks(ix.BySubjectCtx(ctx, *s, authorindex.ClampLimit(*n, 20)))
	default:
		for _, sc := range ix.Subjects() {
			fmt.Printf("%-50s %d works\n", sc.Subject, sc.Works)
		}
	}
	return nil
}

func cmdXref(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("xref", flag.ExitOnError)
	open := openFlags(fs)
	from := fs.String("from", "", "source heading (required)")
	to := fs.String("to", "", "target heading (required)")
	fs.Parse(args)
	if *from == "" || *to == "" {
		return errors.New("-from and -to are required")
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	return ix.AddSeeAlso(*from, *to)
}

func cmdStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	open := openFlags(fs)
	fs.Parse(args)
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	st := ix.Stats()
	fmt.Printf("works:          %d\n", st.Works)
	fmt.Printf("headings:       %d\n", st.Authors)
	fmt.Printf("postings:       %d\n", st.Postings)
	fmt.Printf("student notes:  %d\n", st.StudentNotes)
	fmt.Printf("cross-refs:     %d\n", st.CrossRefs)
	fmt.Printf("search terms:   %d\n", st.Terms)
	fmt.Printf("graph nodes:    %d\n", st.GraphNodes)
	fmt.Printf("graph edges:    %d\n", st.GraphEdges)
	fmt.Printf("components:     %d\n", st.GraphComponents)
	fmt.Printf("collation:      %s\n", st.Collation)
	fmt.Printf("batches:        %d\n", st.BatchesCommitted)
	fmt.Printf("fsyncs saved:   %d\n", st.FsyncsSaved)
	fmt.Printf("WAL bytes:      %d\n", st.WALBytes)
	fmt.Printf("snapshot bytes: %d\n", st.SnapshotBytes)
	return nil
}

func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	open := openFlags(fs)
	top := fs.Int("top", 5, "how many most-prolific authors to list")
	fs.Parse(args)
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()

	st := ix.Stats()
	fmt.Printf("corpus: %d works, %d headings, %d postings (%d student), %d subjects\n\n",
		st.Works, st.Authors, st.Postings, st.StudentNotes, len(ix.Subjects()))

	fmt.Println("headings per letter:")
	maxEntries := 1
	sections := ix.Sections()
	for _, sec := range sections {
		if n := len(sec.Entries); n > maxEntries {
			maxEntries = n
		}
	}
	for _, sec := range sections {
		n := len(sec.Entries)
		bar := strings.Repeat("█", max(1, n*40/maxEntries))
		fmt.Printf("  %c %4d %s\n", sec.Letter, n, bar)
	}

	type prolific struct {
		heading string
		works   int
	}
	var authors []prolific
	for _, sec := range sections {
		for _, e := range sec.Entries {
			if len(e.Works) > 0 {
				authors = append(authors, prolific{authorindex.FormatAuthor(e.Author), len(e.Works)})
			}
		}
	}
	sort.SliceStable(authors, func(i, j int) bool { return authors[i].works > authors[j].works })
	fmt.Printf("\nmost prolific (top %d):\n", *top)
	for i, a := range authors {
		if i >= *top {
			break
		}
		fmt.Printf("  %-40s %d works\n", a.heading, a.works)
	}
	return nil
}

// cmdMetrics prints the bibliometrics snapshot for one heading, or the
// corpus-level summary when no -author is given.
func cmdMetrics(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	open := openFlags(fs)
	author := fs.String("author", "", `heading, e.g. "Lewin, Jeff L." (default: corpus summary)`)
	scheme := fs.String("scheme", "harmonic", "credit scheme: harmonic, arithmetic, geometric or fractional")
	fs.Parse(args)

	s, err := authorindex.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	ix, err := open(withScheme(s))
	if err != nil {
		return err
	}
	defer ix.Close()

	if *author == "" {
		sum := ix.MetricsSummary()
		fmt.Printf("works:            %d\n", sum.Works)
		fmt.Printf("contributors:     %d\n", sum.Authors)
		fmt.Printf("postings:         %d\n", sum.Postings)
		fmt.Printf("solo works:       %d\n", sum.SoloWorks)
		fmt.Printf("collab pairs:     %d\n", sum.Pairs)
		fmt.Printf("authors per work: %.2f\n", sum.MeanAuthorsPerWork)
		fmt.Printf("scheme:           %s\n", sum.Scheme)
		return nil
	}
	m, ok := ix.AuthorMetrics(*author)
	if !ok {
		return fmt.Errorf("no heading %q", *author)
	}
	fmt.Println(m.Heading)
	fmt.Printf("  works:          %d (first-authored %d)\n", m.Works, m.FirstAuthored)
	fmt.Printf("  credit:         %.3f weighted (%s), %.3f fractional\n", m.Weighted, *scheme, m.Fractional)
	fmt.Printf("  h-index:        %d\n", m.HIndex)
	fmt.Printf("  collaborators:  %d\n", m.Collaborators)
	kinds := make([]string, 0, len(m.ByKind))
	for kind := range m.ByKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Printf("  kind %-14s %d\n", kind+":", m.ByKind[kind])
	}
	years := make([]int, 0, len(m.ByYear))
	for y := range m.ByYear {
		years = append(years, y)
	}
	sort.Ints(years)
	for _, y := range years {
		fmt.Printf("  year %d:      %d\n", y, m.ByYear[y])
	}
	for _, c := range m.TopCollaborators {
		fmt.Printf("  with %-34s %d works\n", c.Heading, c.Works)
	}
	return nil
}

// cmdRank prints the top contributors under a chosen statistic.
func cmdRank(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	open := openFlags(fs)
	by := fs.String("by", "weighted", "rank key: works, weighted, fractional, h, collabs, first or central")
	limit := fs.Int("limit", 10, "how many authors to list (0 = all, clamped)")
	scheme := fs.String("scheme", "harmonic", "credit scheme: harmonic, arithmetic, geometric or fractional")
	fs.Parse(args)

	key, err := authorindex.ParseRankKey(*by)
	if err != nil {
		return err
	}
	s, err := authorindex.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	ix, err := open(withScheme(s))
	if err != nil {
		return err
	}
	defer ix.Close()

	fmt.Printf("%-4s %-40s %5s %5s %8s %3s %7s\n", "rank", "author", "works", "first", "credit", "h", "collabs")
	for i, m := range ix.TopAuthorsCtx(ctx, key, authorindex.ClampLimit(*limit, 10)) {
		fmt.Printf("%-4d %-40s %5d %5d %8.3f %3d %7d\n",
			i+1, m.Heading, m.Works, m.FirstAuthored, m.Weighted, m.HIndex, m.Collaborators)
	}
	return nil
}

// withDamping is the opener tweak the graph-facing commands share.
func withDamping(d float64) func(*authorindex.Options) {
	return func(o *authorindex.Options) { o.GraphDamping = d }
}

// cmdPath prints the shortest collaboration chain between two headings.
func cmdPath(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("path", flag.ExitOnError)
	open := openFlags(fs)
	from := fs.String("from", "", `source heading, e.g. "Lewin, Jeff L." (required)`)
	to := fs.String("to", "", "target heading (required)")
	fs.Parse(args)
	if *from == "" || *to == "" {
		return errors.New("-from and -to are required")
	}
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	path, ok := ix.CollaborationPath(*from, *to)
	if !ok {
		return fmt.Errorf("no collaboration path from %q to %q", *from, *to)
	}
	fmt.Printf("%d hop(s):\n", len(path)-1)
	for i, h := range path {
		if i == 0 {
			fmt.Printf("  %s\n", h)
		} else {
			fmt.Printf("  └─ %s\n", h)
		}
	}
	return nil
}

// cmdGraph prints the coauthorship-network summary, one author's
// network position, or the most central authors.
func cmdGraph(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	open := openFlags(fs)
	author := fs.String("author", "", "show one heading's network position (default: network summary)")
	central := fs.Int("central", 0, "list the N most central authors instead")
	damping := fs.Float64("damping", 0, "PageRank damping factor (0 = default 0.85)")
	fs.Parse(args)

	ix, err := open(withDamping(*damping))
	if err != nil {
		return err
	}
	defer ix.Close()
	switch {
	case *author != "":
		c, ok := ix.Centrality(*author)
		if !ok {
			return fmt.Errorf("no heading %q", *author)
		}
		cs := ix.Collaborators(*author)
		shared := 0
		for _, n := range cs {
			shared += n.Works
		}
		fmt.Println(*author)
		fmt.Printf("  co-authors:      %d (%d shared works)\n", len(cs), shared)
		fmt.Printf("  centrality:      %.6f\n", c)
		for _, n := range cs {
			fmt.Printf("  with %-34s %d works\n", n.Heading, n.Works)
		}
	case *central > 0:
		fmt.Printf("%-4s %-40s %s\n", "rank", "author", "centrality")
		for i, c := range ix.TopCentral(*central) {
			fmt.Printf("%-4d %-40s %.6f\n", i+1, c.Heading, c.Score)
		}
	default:
		s := ix.GraphSummary()
		fmt.Printf("authors:           %d\n", s.Nodes)
		fmt.Printf("collab pairs:      %d\n", s.Edges)
		fmt.Printf("components:        %d\n", s.Components)
		fmt.Printf("largest component: %d\n", s.LargestComponent)
		fmt.Printf("density:           %.6f\n", s.Density)
		fmt.Printf("damping:           %.2f\n", s.Damping)
		for _, c := range s.TopCentral {
			fmt.Printf("  central: %-34s %.6f\n", c.Heading, c.Score)
		}
	}
	return nil
}

func cmdVerify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	open := openFlags(fs)
	fs.Parse(args)
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.Verify(); err != nil {
		return err
	}
	st := ix.Stats()
	fmt.Printf("ok: %d works, %d headings, %d postings all consistent\n",
		st.Works, st.Authors, st.Postings)
	return nil
}

func cmdDupes(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dupes", flag.ExitOnError)
	open := openFlags(fs)
	fs.Parse(args)
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	suggestions := ix.DuplicateSuggestions()
	if len(suggestions) == 0 {
		fmt.Println("no duplicate-heading candidates found")
		return nil
	}
	for _, s := range suggestions {
		fmt.Printf("%-18s %s  ↔  %s\n", s.Reason, authorindex.FormatAuthor(s.A), authorindex.FormatAuthor(s.B))
	}
	return nil
}

func cmdCompact(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	open := openFlags(fs)
	fs.Parse(args)
	ix, err := open()
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.Compact(); err != nil {
		return err
	}
	st := ix.Stats()
	fmt.Printf("compacted: snapshot %d bytes, WAL %d bytes\n", st.SnapshotBytes, st.WALBytes)
	return nil
}
