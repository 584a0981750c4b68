package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		// Read to EOF, which arrives only once w is closed below: a single
		// Read returns whatever happens to be in the pipe at that instant.
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput: %s", ferr, out)
	}
	return out
}

// TestCLIPipeline drives the full command surface: gen → build → add →
// lookup → prefix → search → years → volume → subjects → render →
// titles → xref → stats → verify → compact.
func TestCLIPipeline(t *testing.T) {
	work := t.TempDir()
	corpus := filepath.Join(work, "corpus.tsv")
	idx := filepath.Join(work, "idx")

	captureStdout(t, func() error {
		return cmdGen(context.Background(), []string{"-works", "60", "-seed", "9", "-out", corpus})
	})
	if fi, err := os.Stat(corpus); err != nil || fi.Size() == 0 {
		t.Fatalf("gen wrote nothing: %v", err)
	}

	out := captureStdout(t, func() error {
		return cmdBuild(context.Background(), []string{"-dir", idx, "-nosync", "-in", corpus})
	})
	if !strings.Contains(out, "imported 60 works") {
		t.Fatalf("build output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdAdd(context.Background(), []string{"-dir", idx, "-nosync",
			"-title", "Handmade Entry", "-cite", "99:1 (1996)",
			"-author", "Manual, Added A.", "-author", "Second, Author B."})
	})
	if !strings.Contains(out, "added work #61") {
		t.Fatalf("add output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdLookup(context.Background(), []string{"-dir", idx, "-nosync", "-author", "Manual, Added A."})
	})
	if !strings.Contains(out, "Handmade Entry") {
		t.Fatalf("lookup output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdPrefix(context.Background(), []string{"-dir", idx, "-nosync", "-p", "man", "-n", "5"})
	})
	if !strings.Contains(out, "Manual, Added A.") {
		t.Fatalf("prefix output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdSearch(context.Background(), []string{"-dir", idx, "-nosync", "-q", "handmade"})
	})
	if !strings.Contains(out, "Handmade Entry") {
		t.Fatalf("search output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdYears(context.Background(), []string{"-dir", idx, "-nosync", "-from", "1996", "-to", "1996"})
	})
	if !strings.Contains(out, "99:1 (1996)") {
		t.Fatalf("years output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdVolume(context.Background(), []string{"-dir", idx, "-nosync", "-v", "99"})
	})
	if !strings.Contains(out, "Handmade Entry") {
		t.Fatalf("volume output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdSubjects(context.Background(), []string{"-dir", idx, "-nosync"})
	})
	if !strings.Contains(out, "works") {
		t.Fatalf("subjects output: %q", out)
	}

	rendered := filepath.Join(work, "index.txt")
	captureStdout(t, func() error {
		return cmdRender(context.Background(), []string{"-dir", idx, "-nosync", "-out", rendered,
			"-publication", "TEST REV.", "-volnum", "99", "-year", "1996"})
	})
	data, err := os.ReadFile(rendered)
	if err != nil || !strings.Contains(string(data), "AUTHOR INDEX") {
		t.Fatalf("render file: %v", err)
	}

	out = captureStdout(t, func() error {
		return cmdTitles(context.Background(), []string{"-dir", idx, "-nosync", "-format", "tsv"})
	})
	if !strings.Contains(out, "Handmade Entry\t") {
		t.Fatalf("titles output: %q", out)
	}

	captureStdout(t, func() error {
		return cmdXref(context.Background(), []string{"-dir", idx, "-nosync",
			"-from", "Olde, Name", "-to", "Manual, Added A."})
	})

	out = captureStdout(t, func() error {
		return cmdStats(context.Background(), []string{"-dir", idx, "-nosync"})
	})
	if !strings.Contains(out, "works:          61") || !strings.Contains(out, "cross-refs:     1") {
		t.Fatalf("stats output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdMetrics(context.Background(), []string{"-dir", idx, "-nosync"})
	})
	if !strings.Contains(out, "works:            61") || !strings.Contains(out, "scheme:           harmonic") {
		t.Fatalf("metrics summary output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdMetrics(context.Background(), []string{"-dir", idx, "-nosync", "-author", "Manual, Added A."})
	})
	if !strings.Contains(out, "Manual, Added A.") || !strings.Contains(out, "h-index:") {
		t.Fatalf("metrics author output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdRank(context.Background(), []string{"-dir", idx, "-nosync", "-by", "weighted", "-limit", "5"})
	})
	if !strings.Contains(out, "rank") || len(strings.Split(strings.TrimSpace(out), "\n")) != 6 {
		t.Fatalf("rank output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdRank(context.Background(), []string{"-dir", idx, "-nosync", "-by", "h", "-scheme", "arithmetic", "-limit", "3"})
	})
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("rank by h output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdVerify(context.Background(), []string{"-dir", idx, "-nosync"})
	})
	if !strings.Contains(out, "ok:") {
		t.Fatalf("verify output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdReport(context.Background(), []string{"-dir", idx, "-nosync", "-top", "3"})
	})
	if !strings.Contains(out, "headings per letter:") || !strings.Contains(out, "most prolific") {
		t.Fatalf("report output: %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdDupes(context.Background(), []string{"-dir", idx, "-nosync"})
	})
	if out == "" {
		t.Fatal("dupes printed nothing")
	}

	out = captureStdout(t, func() error {
		return cmdCompact(context.Background(), []string{"-dir", idx, "-nosync"})
	})
	if !strings.Contains(out, "compacted") {
		t.Fatalf("compact output: %q", out)
	}

	// Subject render path.
	out = captureStdout(t, func() error {
		return cmdSubjects(context.Background(), []string{"-dir", idx, "-nosync", "-render", "-format", "markdown"})
	})
	if !strings.Contains(out, "# SUBJECT INDEX") {
		t.Fatalf("subject render output: %q", out)
	}

	// Render with the statistics appendix.
	out = captureStdout(t, func() error {
		return cmdRender(context.Background(), []string{"-dir", idx, "-nosync", "-format", "markdown", "-stats", "-stats-top", "3"})
	})
	if !strings.Contains(out, "## Statistics") {
		t.Fatalf("render -stats output: %q", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdBuild(context.Background(), []string{"-dir", t.TempDir()}); err == nil {
		t.Error("build without -in succeeded")
	}
	if err := cmdLookup(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-author", "Missing, Person"}); err == nil {
		t.Error("lookup of missing author succeeded")
	}
	if err := cmdLookup(context.Background(), []string{"-author", "X, Y."}); err == nil {
		t.Error("lookup without -dir succeeded")
	}
	if err := cmdAdd(context.Background(), []string{"-dir", t.TempDir(), "-title", "t"}); err == nil {
		t.Error("add without cite/author succeeded")
	}
	if err := cmdSearch(context.Background(), []string{"-dir", t.TempDir(), "-nosync"}); err == nil {
		t.Error("search without -q succeeded")
	}
	if err := cmdYears(context.Background(), []string{"-dir", t.TempDir(), "-nosync"}); err == nil {
		t.Error("years without range succeeded")
	}
	if err := cmdVolume(context.Background(), []string{"-dir", t.TempDir(), "-nosync"}); err == nil {
		t.Error("volume without -v succeeded")
	}
	if err := cmdXref(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-from", "A, B."}); err == nil {
		t.Error("xref without -to succeeded")
	}
	if err := cmdGen(context.Background(), []string{"-format", "json", "-works", "1"}); err == nil {
		t.Error("gen with json format succeeded")
	}
	if err := cmdRender(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-format", "nope"}); err == nil {
		t.Error("render with unknown format succeeded")
	}
	if err := cmdBuild(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-in", "/nonexistent/file.tsv"}); err == nil {
		t.Error("build with missing input succeeded")
	}
	if err := cmdBuild(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-in", "-", "-format", "xml"}); err == nil {
		t.Error("build with unknown format succeeded")
	}
	if _, err := parseKind("haiku"); err == nil {
		t.Error("parseKind accepted unknown kind")
	}
	if err := cmdRank(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-by", "citations"}); err == nil {
		t.Error("rank with unknown key succeeded")
	}
	if err := cmdRank(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-scheme", "alphabetical"}); err == nil {
		t.Error("rank with unknown scheme succeeded")
	}
	if err := cmdMetrics(context.Background(), []string{"-dir", t.TempDir(), "-nosync", "-author", "Missing, Person"}); err == nil {
		t.Error("metrics for missing author succeeded")
	}
}
