package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's checks, metrics and human-readable lines.
// Every check is one attempted operation; a failed check is a failed one.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	counters          map[string]float64 // deterministic work counts, printed exactly
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counters: map[string]float64{}}
}

func (r *report) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// check counts one attempted operation, failing it when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.logf("FAIL: "+format, args...)
	}
}

// fail counts n attempted operations that all failed.
func (r *report) fail(n int, format string, args ...any) {
	r.attempted += n
	r.failed += n
	r.logf("FAIL: "+format, args...)
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// count records a deterministic work counter; it is also a per-layer
// metric when the layer list names it.
func (r *report) count(name string, v float64) { r.counters[name] = v }

// checkDigests compares one round's cell digests with the reference (at
// the default seed) and prints them, so two commits can be diffed at any
// seed.
func (r *report) checkDigests(workloadName string, seed uint64, digests map[string]string) {
	labels := make([]string, 0, len(digests))
	for l := range digests {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("digest %s %s %s\n", workloadName, l, digests[l])
		if seed != defaultSeed {
			continue
		}
		want, ok := referenceDigests[workloadName+" "+l]
		r.check(ok && want == digests[l], "digest %s %s: got %s, reference %q", workloadName, l, digests[l], want)
	}
}

// sameDigests checks a later round (or the traced run) against the
// first round, cell by cell.
func (r *report) sameDigests(what string, first, got map[string]string) {
	for l, d := range first {
		r.check(got[l] == d, "%s: cell %s digest %s, first round %s", what, l, got[l], d)
	}
}

// emit prints the metric table, the counters, and the final JSON line
// with the metrics named in keys.
func (r *report) emit(keys []string) {
	fmt.Println("metrics:")
	for _, k := range keys {
		m := r.metrics[k]
		fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("work counters (exact):")
	for _, k := range names {
		fmt.Printf("  %-34s %s\n", k, strings.TrimSuffix(fmt.Sprintf("%.6f", r.counters[k]), ".000000"))
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("error_rate %g (%d of %d operations failed)\n", rate, r.failed, r.attempted)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metric{}}
	for _, k := range keys {
		out.Metrics[k] = r.metrics[k]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
