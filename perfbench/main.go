// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator for a fixed number of seconds, checks every
// simulated result against a digest, and prints its metrics by name and
// unit, ending with one JSON line. With --trace 1 it adds a CPU-profiled,
// span-recorded run and prints per-layer metrics instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the --seed at which digests are checked against the
// recorded reference. The simulator's own seed is 0x5EED + --seed, so the
// default run is the repository's default methodology seed.
const defaultSeed = 0

// Set-up repeats at least setupMinReps times and for at least
// setupMinTime, and setup_s is the median: figure set-up only builds
// workload instances and takes milliseconds, the sweep server's pre-warms
// a store by simulating and takes most of a second.
const (
	setupMinReps = 3
	setupMinTime = time.Second
)

var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"setup_s", "s"}, {"sim_accesses_per_s", "1/s"}, {"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"}, {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
}

// perLayer is every per-layer metric of a traced run, in print order.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{cpuMetric(l), "%"})
	}
	for _, m := range [][2]string{
		{"workload.gen_ns_per_op", "ns/op"}, {"workload.ops", "count"},
		{"vmm.cpu_ns_per_fault", "ns"}, {"vmm.accesses", "count"}, {"vmm.major_faults", "count"},
		{"vmm.minor_faults", "count"}, {"vmm.direct_reclaims", "count"}, {"vmm.kswapd_bursts", "count"},
		{"policy.cpu_ns_per_scan", "ns"}, {"policy.pte_scanned", "count"}, {"policy.rmap_walks", "count"},
		{"policy.evicted", "count"}, {"policy.evict_ratio", "ratio"}, {"policy.refault_ratio", "ratio"},
		{"policy.region_skip_ratio", "ratio"}, {"core.trial_setup_ms", "ms"},
		{"zram.cpu_ns_per_page", "ns"}, {"swap.reads", "count"}, {"swap.writes", "count"},
		{"swap.write_stalls", "count"}, {"pagecache.file_faults", "count"}, {"pagecache.hit_ratio", "ratio"},
		{"pagecache.readahead_useful_ratio", "ratio"}, {"pagecache.writeback_pages", "count"},
		{"pagecache.refaults", "count"}, {"fault.read_retries", "count"}, {"fault.write_retries", "count"},
		{"fault.hard_errors", "count"}, {"checkpoint.get_ms_p50", "ms"}, {"checkpoint.blob_kb", "KB"},
		{"experiments.summarize_ms_p50", "ms"}, {"server.cells_cached", "count"},
		{"server.cells_cold", "count"}, {"server.sweeps_deduped", "count"}, {"server.result_ms_p50", "ms"},
		{"server.result_ms_tail", "ms"}, {"experiments.series_ms_p50", "ms"}, {"experiments.self_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
	} {
		out = append(out, struct{ name, unit string }{m[0], m[1]})
	}
	return out
}()

// cpuMetric names a layer's CPU share: "vmm.cpu_pct", but
// "sim.engine_cpu_pct" for a layer whose name already has a dot.
func cpuMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_cpu_pct"
	}
	return layer + ".cpu_pct"
}

var workloadNames = []string{"paper-ssd", "zram-variants", "serve-file", "sweep-server"}

func main() {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: profile and trace, print per-layer metrics")
	flag.Parse()
	known := false
	for _, n := range workloadNames {
		known = known || n == *wl
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", nproc(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel())
	fmt.Printf("run: workload=%s seed=%d (simulator seed %#x) seconds=%d trace=%d\n",
		*wl, *seed, simSeed(*seed), *seconds, *trace)

	rep := newReport()
	spans := newSpanLog()
	d := time.Duration(*seconds) * time.Second
	var err error
	if *wl == "sweep-server" {
		err = runServer(rep, spans, *seed, d, *trace == 1)
	} else {
		err = runFigure(rep, spans, *wl, figureDefs[*wl], *seed, d, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		if err := writeSpans(spans, *wl, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.emit(names(perLayer))
		return
	}
	rep.emit(names(endToEnd))
}

func simSeed(seed uint64) uint64 { return 0x5EED + seed }

func names(ms []struct{ name, unit string }) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return out
}

// timedSetup repeats set-up, releasing all but the last result, and
// returns the last with the median set-up time.
func timedSetup[T any](setup func(rep int) (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	start := time.Now()
	for i := 0; i < setupMinReps || time.Since(start) < setupMinTime; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC() // the previous repetition's garbage is not this one's cost
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	fmt.Printf("setup: %d repetitions, median %.6f s, min %.6f s, max %.6f s\n",
		len(times), median(times), quantile(times, 0), quantile(times, 1))
	return last, median(times), nil
}

// startProfile starts a CPU profile into memory; stop returns its layer
// split.
func startProfile() (stop func() (cpuShares, error), err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() (cpuShares, error) {
		pprof.StopCPUProfile()
		return parseCPUProfile(buf.Bytes())
	}, nil
}

// setShares records every layer's CPU share.
func setShares(rep *report, sh cpuShares) {
	sum := 0.0
	for _, l := range layers {
		rep.set(cpuMetric(l), sh.pct(l), "%")
		sum += sh.pct(l)
	}
	fmt.Printf("profile: %.3f CPU-seconds sampled, shares sum to %.2f%%\n", float64(sh.total)/1e9, sum)
}

// setCounts records the deterministic work of one round, both as exact
// counters and as the per-layer metrics derived from them. sh is the
// traced phase's profile and rounds the number of rounds it covered, for
// the per-unit CPU costs.
func setCounts(rep *report, w workCounts, sh cpuShares, rounds int) {
	c := map[string]float64{
		"trials": float64(w.trials), "vmm.accesses": float64(w.accesses),
		"vmm.major_faults": float64(w.major), "vmm.minor_faults": float64(w.minor),
		"vmm.direct_reclaims": float64(w.directReclaims), "vmm.kswapd_bursts": float64(w.kswapd),
		"policy.pte_scanned": float64(w.pteScanned), "policy.regions_scanned": float64(w.regionsScanned),
		"policy.regions_skipped": float64(w.regionsSkipped), "policy.rmap_walks": float64(w.rmapWalks),
		"policy.evicted": float64(w.evicted), "policy.rotated": float64(w.rotated),
		"policy.refaults": float64(w.refaults), "swap.reads": float64(w.swapReads),
		"swap.writes": float64(w.swapWrites), "swap.write_stalls": float64(w.writeStalls),
		"zram.pages": float64(w.zramPages), "pagecache.file_faults": float64(w.fileFaults),
		"pagecache.file_hits": float64(w.fileAccesses), "vmm.readahead_in": float64(w.readaheadIn),
		"vmm.readahead_hits":        float64(w.readaheadHit),
		"pagecache.writeback_pages": float64(w.cache.WritebackPages), "pagecache.refaults": float64(w.cache.Refaults),
		"fault.read_retries": float64(w.injected.ReadRetries), "fault.write_retries": float64(w.injected.WriteRetries),
		"fault.hard_errors": float64(w.injected.HardReadErrors + w.injected.HardWriteErrors),
	}
	for k, v := range c {
		rep.count(k, v)
		if isLayerMetric(k) {
			rep.set(k, v, "count")
		}
	}
	rep.set("policy.evict_ratio", ratio(float64(w.evicted), float64(w.evicted+w.rotated)), "ratio")
	rep.set("policy.refault_ratio", ratio(float64(w.refaults), float64(w.evicted)), "ratio")
	rep.set("policy.region_skip_ratio", ratio(float64(w.regionsSkipped), float64(w.regionsScanned+w.regionsSkipped)), "ratio")
	rep.set("pagecache.hit_ratio", ratio(float64(w.fileAccesses), float64(w.fileAccesses+w.fileFaults)), "ratio")
	rep.set("pagecache.readahead_useful_ratio", ratio(float64(w.readaheadHit), float64(w.readaheadIn)), "ratio")
	n := float64(rounds)
	rep.set("vmm.cpu_ns_per_fault", ratio(float64(sh.ns["vmm"]), n*float64(w.major+w.minor)), "ns")
	rep.set("policy.cpu_ns_per_scan", ratio(float64(sh.ns["policy"]), n*float64(w.pteScanned+w.rmapWalks)), "ns")
	rep.set("zram.cpu_ns_per_page", ratio(float64(sh.ns["zram"]), n*float64(w.zramPages)), "ns")
}

func isLayerMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// setTimes records a timing distribution as its median and tail, and
// prints the percentile and sample count behind the tail.
func setTimes(rep *report, prefix string, xs []float64, tail float64) {
	rep.set(prefix+"_p50", median(xs), "ms")
	rep.set(prefix+"_tail", quantile(xs, tail), "ms")
	n := beyond(xs, tail)
	warn := ""
	if n < 10 {
		warn = " (fewer than 10 samples beyond the tail: lengthen the run)"
	}
	fmt.Printf("%s: %d samples, median %.3f ms, p%g %.3f ms with %d beyond%s\n",
		prefix, len(xs), median(xs), tail*100, quantile(xs, tail), n, warn)
}

func runFigure(rep *report, spans *spanLog, name string, def figureDef, seed uint64, d time.Duration, trace bool) error {
	fb, setupS, err := timedSetup(func(int) (*figureBench, error) {
		return setupFigure(name, def, simSeed(seed))
	}, func(*figureBench) {})
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s, %d cells x %d trials, scale %g, parallelism %d\n",
		name, len(fb.cells), def.trials, def.scale, nproc())
	dg := newDigester()
	if !trace {
		outs := fb.measure(d, spans, dg, rep)
		first := outs[0]
		rep.checkDigests(name, seed, first.digests)
		for _, o := range outs[1:] {
			rep.sameDigests("repeated round", first.digests, o.digests)
		}
		var rounds []float64
		for _, o := range outs {
			rounds = append(rounds, o.dur.Seconds())
		}
		wall := median(rounds)
		fmt.Printf("rounds: %d, seconds %v\n", len(outs), rounds)
		rep.set("wall_s", wall, "s")
		rep.set("setup_s", setupS, "s")
		rep.set("sim_accesses_per_s", ratio(float64(first.counts.accesses), wall), "1/s")
		setTimes(rep, "op_ms", durationsMS(trialTimes(outs)), def.tail)
		rep.set("ops_per_s", ratio(float64(first.counts.trials), wall), "1/s")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		setCounts(rep, first.counts, cpuShares{}, 1)
		printUncovered(dg)
		return nil
	}

	plain := fb.measure(d/2, spans, dg, rep)
	spans.on.Store(true)
	fb.rec.capture.Store(true)
	stop, err := startProfile()
	if err != nil {
		return err
	}
	traced := fb.measure(d/2, spans, dg, rep)
	sh, err := stop()
	if err != nil {
		return err
	}
	fb.rec.capture.Store(false)
	first := plain[0]
	rep.checkDigests(name, seed, first.digests)
	for _, o := range plain[1:] {
		rep.sameDigests("repeated round", first.digests, o.digests)
	}
	for _, o := range traced {
		rep.sameDigests("traced round", first.digests, o.digests)
	}
	gen := replayGeneration(traced[0].trials, spans)
	spans.on.Store(false)
	setShares(rep, sh)
	setCounts(rep, first.counts, sh, len(traced))
	setLayerDefaults(rep)
	rep.set("workload.gen_ns_per_op", ratio(float64(gen.dur), float64(gen.ops)), "ns/op")
	rep.set("workload.ops", float64(gen.ops), "count")
	rep.count("workload.ops", float64(gen.ops))
	rep.set("core.trial_setup_ms", fb.trialSetupMS(), "ms")
	var series []float64
	for _, o := range plain {
		series = append(series, durationsMS(o.seriesDur)...)
	}
	rep.set("experiments.series_ms_p50", median(series), "ms")
	rep.set("experiments.self_pct", selfShare(plain), "%")
	rep.set("bench.trace_overhead_pct", overheadPct(plain, traced), "%")
	printUncovered(dg)
	return nil
}

// overheadPct compares the traced rounds' median wall time with the
// untraced rounds'.
func overheadPct(plain, traced []roundOut) float64 {
	med := func(outs []roundOut) float64 {
		var xs []float64
		for _, o := range outs {
			xs = append(xs, o.dur.Seconds())
		}
		return median(xs)
	}
	p, t := med(plain), med(traced)
	fmt.Printf("tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %.4f s\n", t, p, t-p)
	return 100 * ratio(t-p, p)
}

// setLayerDefaults zeroes every per-layer metric not yet set: the layers
// this workload bypasses.
func setLayerDefaults(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
}

func printUncovered(dg *digester) {
	if u := dg.uncoveredFields(); len(u) > 0 {
		fmt.Printf("note: fields not covered by digests: %s\n", strings.Join(u, ", "))
	}
}

func runServer(rep *report, spans *spanLog, seed uint64, d time.Duration, trace bool) error {
	root, err := filepath.Abs(filepath.Join(".bench_build", "runs"))
	if err != nil {
		return err
	}
	sb, setupS, err := timedSetup(func(i int) (*serverBench, error) {
		return setupServer(simSeed(seed), filepath.Join(root, fmt.Sprintf("%d-%d", os.Getpid(), i)))
	}, func(sb *serverBench) { sb.close() })
	if err != nil {
		return err
	}
	defer sb.close()
	fmt.Printf("workload: sweep-server, %d warm cells x %d trials, scale %g, %d workers, %d clients\n",
		len(sb.warmKeys), serverTrials, serverScale, nproc(), nproc())

	dg := newDigester()
	warmDigests := map[string]string{}
	for l, s := range sb.series {
		warmDigests[l] = dg.series(s.Trials)
		rep.attempted += len(s.Trials)
	}
	// The store's copy of each warm cell, decoded by a Runner resuming
	// from it, must digest the same as the series that wrote it.
	resumed, err := sb.resumeWarm()
	if err != nil {
		return err
	}
	for l, s := range resumed {
		rep.check(dg.series(s.Trials) == warmDigests[l], "warm cell %s: store round trip changed its digest", l)
	}
	list := warmSweeps(simSeed(seed))

	plain, traced := &clientStats{}, &clientStats{}
	cold, tracedCold := newColdOut(), newColdOut()
	var sh cpuShares
	if !trace {
		if err := sb.timedPhase(d, list, spans, dg, rep, plain, cold); err != nil {
			return err
		}
	} else {
		if err := sb.timedPhase(d/2, list, spans, dg, rep, plain, cold); err != nil {
			return err
		}
		spans.on.Store(true)
		stop, err := startProfile()
		if err != nil {
			return err
		}
		if err := sb.timedPhase(d/2, list, spans, dg, rep, traced, tracedCold); err != nil {
			return err
		}
		if sh, err = stop(); err != nil {
			return err
		}
		spans.on.Store(false)
	}

	for _, cs := range []*clientStats{plain, traced} {
		rep.attempted += cs.attempts
		rep.failed += len(cs.failures)
		for i, f := range cs.failures {
			if i < 5 {
				fmt.Println("FAIL:", f)
			}
		}
	}
	digests := map[string]string{}
	for l, dgst := range warmDigests {
		digests[l] = dgst
	}
	for l, dgst := range cold.digests {
		digests[l] = dgst
		if trace {
			rep.check(tracedCold.digests[l] == dgst, "traced cold sweep: cell %s digest %s, untraced %s", l, tracedCold.digests[l], dgst)
		}
	}
	rep.checkDigests("sweep-server", seed, digests)
	var coldS, rates []float64
	for _, d := range cold.durs {
		coldS = append(coldS, d.Seconds())
		rates = append(rates, ratio(float64(cold.accesses), d.Seconds()))
	}
	counters := plain.stats.Counters
	fmt.Printf("untraced: %d warm sessions, %d sweeps in %.3f s, %d results; cold sweeps: seconds %v\n",
		plain.sessions, len(plain.sweeps), plain.elapsed.Seconds(), len(plain.results), coldS)
	for _, k := range []string{"server.cells.cached", "server.sweeps.submitted", "server.sweeps.deduped"} {
		rep.count(k+" (last warm session)", float64(counters[k]))
	}
	// Per-unit CPU costs divide the profiled (traced) half's CPU time by
	// that half's work.
	measured := cold
	if trace {
		measured = tracedCold
	}
	rep.count("server.cells.cold (cold sweeps)", float64(measured.cells))
	setCounts(rep, measured.counts, sh, 1)

	if !trace {
		rep.set("wall_s", median(coldS), "s")
		rep.set("setup_s", setupS, "s")
		rep.set("sim_accesses_per_s", median(rates), "1/s")
		setTimes(rep, "op_ms", durationsMS(plain.sweeps), serverTail)
		rep.set("ops_per_s", ratio(float64(len(plain.sweeps)), plain.elapsed.Seconds()), "1/s")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		results := durationsMS(plain.results)
		fmt.Printf("result_ms: p50 %.3f ms over %d fetches\n", median(results), len(results))
		printUncovered(dg)
		return nil
	}

	setShares(rep, sh)
	setLayerDefaults(rep)
	rep.set("server.cells_cached", float64(counters["server.cells.cached"]), "count")
	rep.set("server.cells_cold", float64(measured.cells), "count")
	rep.set("server.sweeps_deduped", float64(counters["server.sweeps.deduped"]), "count")
	setTimes(rep, "server.result_ms", durationsMS(plain.results), serverTail)
	getMS, sumMS, blobKB := sb.storeCallTimes(5)
	rep.set("checkpoint.get_ms_p50", getMS, "ms")
	rep.set("experiments.summarize_ms_p50", sumMS, "ms")
	rep.set("checkpoint.blob_kb", blobKB, "KB")
	rep.set("experiments.series_ms_p50", median(durationsMS(sb.warm.seriesDur)), "ms")
	rep.set("experiments.self_pct", selfShare([]roundOut{sb.warm}), "%")
	p, t := median(durationsMS(plain.sweeps)), median(durationsMS(traced.sweeps))
	fmt.Printf("tracing overhead: traced op_ms_p50 %.4f - untraced op_ms_p50 %.4f = %.4f ms\n", t, p, t-p)
	rep.set("bench.trace_overhead_pct", 100*ratio(t-p, p), "%")
	printUncovered(dg)
	return nil
}

// writeSpans writes the traced run's spans, one JSON object per line,
// under .bench_build/spans.
func writeSpans(spans *spanLog, wl string, seed uint64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans.spans, func(i, j int) bool { return spans.spans[i].Start < spans.spans[j].Start })
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", wl, seed))
	fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	return os.WriteFile(path, b.Bytes(), 0o644)
}
