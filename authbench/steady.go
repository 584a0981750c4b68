package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchDef is the part of BENCHMARK.json the steadiness report needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload n times in child processes, seeds
// seed..seed+n-1, and prints per end-to-end metric the median, the
// quartiles and the spread (interquartile distance over the median)
// beside the metric's bound. A spread below a third of its bound is
// marked steady.
func runSteady(defPath, only string, seed int64, n, seconds int, data string) error {
	blob, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(blob, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			rep, err := runChild(self, "--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0", "--data", data)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, s, rep.Failed, rep.Attempted)
			}
			var parts []string
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
				parts = append(parts, fmt.Sprintf("%s=%.4g", name, m.Value))
			}
			sort.Strings(parts)
			fmt.Printf("%s seed %d: %s\n", w.Name, s, strings.Join(parts, " "))
		}
		fmt.Printf("%s: %d runs\n", w.Name, n)
		fmt.Printf("  %-22s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
		for _, m := range def.EndToEnd {
			xs := values[m.Name]
			if len(xs) == 0 {
				return fmt.Errorf("%s: no %s reported", w.Name, m.Name)
			}
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "steady"
			switch {
			case sp > m.Bound:
				verdict = "TOO NOISY"
			case sp > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f %8.4f %7.3f  %s\n", m.Name, q1, q2, q3, sp, m.Bound, verdict)
		}
	}
	return nil
}

// runChild runs one benchmark invocation and parses its result line.
func runChild(self string, args ...string) (*report, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rep, nil
}
