// Command authbench is the authdex benchmark. One invocation runs one
// workload for a fixed time against a store generated from a seed, checks
// every response against an oracle, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as the last line of its
// standard output:
//
//	{"correct": true, "attempted": 2250, "failed": 0, "metrics": {"p50_ms": {"value": 1.7, "unit": "ms"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash authbench/run.sh --workload browse --seed 1 --seconds 15 --trace 0
//	bash authbench/run.sh --steady 10 --seconds 15     # every workload, seeds 1..10
//
// --steady N runs each workload N times in child processes, one seed
// each, and prints every end-to-end metric's median, quartiles and
// spread against the bound BENCHMARK.json gives it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: browse, ingest, mixed or publish")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "how long the workload runs")
	traced := flag.Int("trace", 0, "1: measure the per-layer metrics instead of the end-to-end ones")
	data := flag.String("data", ".bench_build/data", "directory for the generated stores")
	benchJSON := flag.String("bench-json", "BENCHMARK.json", "benchmark definition whose bounds --steady reports against")
	steady := flag.Int("steady", 0, "run each workload (or --workload) this many times, one seed each, and report the spread")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	d := time.Duration(*seconds) * time.Second
	if *steady > 0 {
		if err := runSteady(*benchJSON, *workloadName, *seed, *steady, *seconds, *data); err != nil {
			fatalf("steady: %v", err)
		}
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fatalf("unknown workload %q", *workloadName)
	}
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, *data, d)
	} else {
		rep, err = runTimed(w, *seed, *data, d)
	}
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	printReport(rep)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authbench: "+format+"\n", args...)
	os.Exit(1)
}

// runTimed is the end-to-end run: set up the store, run the workload
// untraced, check it and report every end-to-end metric.
func runTimed(w workload, seed int64, data string, d time.Duration) (*report, error) {
	e, err := prepare(w, seed, data)
	if err != nil {
		return nil, err
	}
	e.lean = true
	setup, err := e.measureSetup()
	if err != nil {
		return nil, err
	}
	res, err := e.run(d, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	// The peak is read before finish: its read-back reopen builds a
	// second index while the first awaits collection, and where that
	// peak lands depends on when the collector runs.
	rss, err := peakRSSMB()
	if err != nil {
		e.close()
		return nil, err
	}
	perWork, err := e.finish(res)
	if err != nil {
		return nil, err
	}

	lat := latenciesMS(res)
	var lags []float64
	okOps := 0
	for _, s := range res.Samples {
		if w.Open {
			lags = append(lags, ms(s.Lag))
		}
		if s.OK {
			okOps++
		}
	}
	tl := tailOf(lat, tailMinBeyond)
	// An open loop's rate is its schedule's; a closed loop's is measured:
	// works committed (ingest) or builds made (publish) per second.
	rate := float64(len(res.Samples)) / res.Elapsed.Seconds()
	if !w.Open {
		units := make([]float64, len(res.Samples))
		for i, s := range res.Samples {
			switch {
			case !s.OK:
			case w.Publish:
				units[i] = 1
			default:
				units[i] = float64(len(res.Ops[i].Works))
			}
		}
		rate = windowedRate(res.Samples, units, w.Clients)
	}
	rep := &report{
		Attempted: len(res.Samples),
		Failed:    len(res.Samples) - okOps,
		Metrics: map[string]metric{
			"setup_s":              {median(setup.Opens), "s"},
			"p50_ms":               {mixP50(res.Samples, kindsOf(res)), "ms"},
			"ok_frac":              {float64(okOps) / float64(max(1, len(res.Samples))), "fraction"},
			"rate_per_s":           {rate, "1/s"},
			"rss_mb":               {rss, "MB"},
			"live_mb":              {setup.LiveMB, "MB"},
			"store_bytes_per_work": {perWork, "bytes"},
		},
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0

	fmt.Printf("workload %s  seed %d  %d works stored, %d shard(s), GOMAXPROCS %d\n",
		w.Name, seed, w.Stored, max(1, w.Shards), runtime.GOMAXPROCS(0))
	fmt.Printf("  setup opens (s): %.3f\n", setup.Opens)
	fmt.Printf("  tail_ms %.3f ms: p%.2f of %d samples, %d beyond it (printed, not gated: too noisy run to run)\n",
		tl.Value, tl.Pct, tl.N, tl.Beyond)
	if w.Open {
		fmt.Printf("  generator lag p99 %.3f ms (bench.lag_p99_ms; a late generator invalidates the run)\n", percentileOf(lags, 0.99))
	}
	if w.Batch > 0 || w.WriteFrac > 0 {
		fmt.Printf("  %d works committed and read back after reopen\n", res.Committed)
	}
	if res.Hash != "" {
		fmt.Printf("  artifact sha256 %s\n", res.Hash)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %v\n", f)
	}
	return rep, nil
}

// kindsOf lists the kind of each operation of an HTTP run; nil for a
// publish run, whose operations are all one kind.
func kindsOf(res *runResult) []opKind {
	if res.Ops == nil {
		return nil
	}
	kinds := make([]opKind, len(res.Samples))
	for i := range kinds {
		kinds[i] = res.Ops[i].Kind
	}
	return kinds
}

// printReport prints every metric by name and unit, then the result line.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  correct %v: %d attempted, %d failed\n", rep.Correct, rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode report: %v", err)
	}
	fmt.Println(string(line))
}
