package main

import (
	"fmt"
	"sort"
	"time"

	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/fault"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/workload"
)

// figureDef is one figure workload: the cells of one or more figure
// functions, run as a matrix per round.
type figureDef struct {
	trials int
	scale  float64
	// tail is the percentile op_ms_tail reports. It is fixed per workload,
	// not derived from the sample count, so that a faster program (more
	// trials in the same seconds) is not judged at a stricter percentile.
	tail  float64
	parts []figPart
}

type figPart struct {
	id string
	fn experiments.FigureFunc
}

// Two trials per cell keep both CPUs busy: the runner parallelizes the
// trials of one series, and the figure code runs series one after
// another. Scales are chosen so a round takes one to three seconds.
var figureDefs = map[string]figureDef{
	"paper-ssd":     {trials: 2, scale: 0.4, tail: 0.90, parts: []figPart{{"fig1", experiments.Fig1}}},
	"zram-variants": {trials: 2, scale: 0.15, tail: 0.95, parts: []figPart{{"fig9", experiments.Fig9}}},
	"serve-file": {trials: 2, scale: 0.3, tail: 0.95, parts: []figPart{
		{"ext2", experiments.ExtFileServeSweep}, {"ext3", experiments.ExtDegradedFileSweep}}},
}

type labeledCell struct {
	label string
	cell  experiments.CellSpec
}

// cellLabel names a cell by what defines it, not by its cache key, so a
// reference digest survives changes to SystemConfig's printed form.
func cellLabel(part string, c experiments.CellSpec) string {
	l := fmt.Sprintf("%s/%s/%s/%g/%s", part, c.Workload, c.Policy, c.System.Ratio, c.System.Swap)
	if c.System.Fault.Enabled() {
		name := "custom-fault"
		for _, n := range []string{"mild", "severe", "file-mild", "file-severe"} {
			if p, _ := fault.Preset(n); p == c.System.Fault {
				name = n
			}
		}
		l += "/" + name
	}
	return l
}

// figureBench is a set-up figure workload: enumerated cells and prebuilt,
// wrapped workload instances.
type figureBench struct {
	name  string
	def   figureDef
	opts  experiments.Options
	cells []labeledCell
	specs map[string]experiments.WorkloadSpec
	rec   *recorder
}

// setupFigure enumerates the cells and builds every workload instance, so
// the timed rounds construct nothing.
func setupFigure(name string, def figureDef, seed uint64) (*figureBench, error) {
	fb := &figureBench{
		name: name, def: def,
		opts:  experiments.Options{Trials: def.trials, Scale: def.scale, Seed: seed, Parallelism: nproc()},
		specs: map[string]experiments.WorkloadSpec{},
		rec:   &recorder{},
	}
	for _, part := range def.parts {
		cells, err := experiments.CellsFor(fb.opts, part.fn)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			fb.cells = append(fb.cells, labeledCell{cellLabel(part.id, c), c})
		}
	}
	for _, lc := range fb.cells {
		if _, ok := fb.specs[lc.cell.Workload]; !ok {
			fb.specs[lc.cell.Workload] = prebuilt(lc.cell.Workload, def.scale, fb.rec)
		}
	}
	return fb, nil
}

// prebuilt resolves a registry workload, builds it once, and returns a
// spec whose Make hands out that wrapped instance.
func prebuilt(name string, scale float64, rec *recorder) experiments.WorkloadSpec {
	spec := experiments.WorkloadByNameAt(name, scale, 0)
	inst := wrapWorkload(spec.Make(), rec)
	spec.Make = func() workload.Workload { return inst }
	return spec
}

// workCounts sums the simulated work of a set of trials. Every field is
// deterministic for a fixed seed.
type workCounts struct {
	trials                                              int
	accesses, major, minor, directReclaims, kswapd      uint64
	pteScanned, regionsScanned, regionsSkipped          uint64
	rmapWalks, evicted, rotated, refaults               uint64
	swapReads, swapWrites, writeStalls, zramPages       uint64
	fileFaults, fileAccesses, readaheadIn, readaheadHit uint64
	cache                                               pagecache.Stats
	injected                                            fault.Stats
}

func (w *workCounts) add(sys core.SystemConfig, trials []core.Metrics) {
	for _, m := range trials {
		w.trials++
		c, p, d := m.Counters, m.Policy, m.Device
		w.accesses += c.Accesses
		w.major += c.MajorFaults
		w.minor += c.MinorFaults
		w.directReclaims += c.DirectReclaims
		w.kswapd += c.KswapdBursts
		w.fileFaults += c.FileFaults
		w.fileAccesses += c.FileAccesses
		w.readaheadIn += c.ReadaheadIn
		w.readaheadHit += c.ReadaheadHits
		w.pteScanned += p.PTEScanned
		w.regionsScanned += p.RegionsScanned
		w.regionsSkipped += p.RegionsSkipped
		w.rmapWalks += p.RMapWalks
		w.evicted += p.Evicted
		w.rotated += p.Rotated
		w.refaults += p.Refaults
		w.swapReads += d.Reads
		w.swapWrites += d.Writes
		w.writeStalls += d.WriteStalls
		if sys.Swap == core.SwapZRAM {
			w.zramPages += d.Reads + d.Writes
		}
		w.cache.Add(m.FileCache)
		w.injected.Add(m.Injected)
		w.injected.Add(m.FileInjected)
	}
}

// roundOut is one pass over a figure workload's whole matrix.
type roundOut struct {
	dur       time.Duration
	digests   map[string]string
	counts    workCounts
	seriesDur []time.Duration
	trials    []*trialRec
}

// round runs every cell once through a fresh Runner (so nothing is
// served from the runner's cache) and digests the results after the
// clock stops.
func (fb *figureBench) round(spans *spanLog, dg *digester, rep *report) roundOut {
	out := roundOut{digests: map[string]string{}}
	r := experiments.NewRunner(fb.opts)
	roundID := spans.newID()
	done := make([]*experiments.Series, len(fb.cells))
	t0 := time.Now()
	for i, lc := range fb.cells {
		sid := spans.newID()
		fb.rec.series.Store(sid)
		s0 := time.Now()
		s, err := r.Run(fb.specs[lc.cell.Workload], experiments.PolicyByName(lc.cell.Policy), lc.cell.System)
		s1 := time.Now()
		spans.record(sid, roundID, "experiments.Runner.Run", s0, s1)
		out.seriesDur = append(out.seriesDur, s1.Sub(s0))
		if err != nil {
			rep.fail(fb.def.trials, "%s %s: %v", fb.name, lc.label, err)
			continue
		}
		done[i] = s
	}
	out.dur = time.Since(t0)
	spans.record(roundID, 0, "round."+fb.name, t0, t0.Add(out.dur))
	out.trials = fb.rec.take()
	for _, t := range out.trials {
		if t.done() {
			id := spans.add(t.series, "trial", t.start, t.end)
			spans.add(id, "workload.Threads", t.start, t.start.Add(t.threads))
		}
	}
	for i, s := range done {
		if s == nil {
			continue
		}
		lc := fb.cells[i]
		out.digests[lc.label] = dg.series(s.Trials)
		out.counts.add(lc.cell.System, s.Trials)
		rep.attempted += len(s.Trials)
	}
	return out
}

// measure runs whole rounds until d has elapsed, at least one.
func (fb *figureBench) measure(d time.Duration, spans *spanLog, dg *digester, rep *report) []roundOut {
	end := time.Now().Add(d)
	var outs []roundOut
	for len(outs) == 0 || time.Now().Before(end) {
		outs = append(outs, fb.round(spans, dg, rep))
	}
	return outs
}

// trialTimes returns the host time of every completed trial.
func trialTimes(outs []roundOut) []time.Duration {
	var ds []time.Duration
	for _, o := range outs {
		for _, t := range o.trials {
			if t.done() {
				ds = append(ds, t.end.Sub(t.start))
			}
		}
	}
	return ds
}

// selfShare is the share of series time no trial of the series was
// running: enumeration, scheduling, per-trial system construction before
// Threads, and result harvest.
func selfShare(outs []roundOut) float64 {
	var total, covered time.Duration
	for _, o := range outs {
		for _, d := range o.seriesDur {
			total += d
		}
		bySeries := map[int64][][2]time.Time{}
		for _, t := range o.trials {
			if t.done() {
				bySeries[t.series] = append(bySeries[t.series], [2]time.Time{t.start, t.end})
			}
		}
		for _, ivs := range bySeries {
			covered += union(ivs)
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(total-covered) / float64(total)
}

// union is the total length covered by a set of intervals.
func union(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		if iv[1].After(curE) {
			curE = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// trialSetupMS times, per cell, the system construction a trial does
// before its workload starts: the page table, the workload's layout into
// it, and physical memory. It returns the median over cells.
func (fb *figureBench) trialSetupMS() float64 {
	var ts []float64
	for _, lc := range fb.cells {
		w := fb.specs[lc.cell.Workload].Make()
		t0 := time.Now()
		table := pagetable.NewWithLayout(w.TableRegions(), w.RegionPTEs(), lc.cell.System.PageTable)
		w.Layout(table)
		capacity := int(float64(w.FootprintPages()) * lc.cell.System.Ratio)
		if capacity < 16 {
			capacity = 16
		}
		mem.New(capacity)
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}
