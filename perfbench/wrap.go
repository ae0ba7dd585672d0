package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
)

// trialRec is one trial's host-time interval as the workload sees it: it
// opens when the trial asks for its thread streams and closes when the
// last stream is drained. Trials run inside the engine, whose procs yield
// to one another, so this is the only boundary the benchmark can time
// from outside core.RunTrial.
type trialRec struct {
	series  int64 // span id of the enclosing series call
	start   time.Time
	threads time.Duration // the Threads call itself
	end     time.Time
	live    atomic.Int32

	// Copies of the generators Threads received, taken before the call
	// while capturing, so the trial's streams can be regenerated with no
	// engine attached; wl is nil for a trial not captured.
	wl          workload.Workload
	plan, trial sim.RNG
}

func (t *trialRec) done() bool { return !t.end.IsZero() }

// recorder collects the trials of the wrapped workloads.
type recorder struct {
	mu      sync.Mutex
	trials  []*trialRec
	series  atomic.Int64 // span id of the series being run
	capture atomic.Bool
}

// take returns the trials recorded since the last call.
func (r *recorder) take() []*trialRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.trials
	r.trials = nil
	return out
}

// timedWorkload wraps a prebuilt workload instance. Every method but
// Threads is the instance's own, so the simulated program is unchanged.
type timedWorkload struct {
	workload.Workload
	rec *recorder
}

// segmentedWorkload keeps the optional workload.Segmented extension
// visible through the wrapper, so per-segment fault attribution (and
// with it every digest) is the same as for the bare instance.
type segmentedWorkload struct{ *timedWorkload }

func (w segmentedWorkload) Segments() []workload.Segment {
	return w.Workload.(workload.Segmented).Segments()
}

func wrapWorkload(w workload.Workload, rec *recorder) workload.Workload {
	tw := &timedWorkload{Workload: w, rec: rec}
	if _, ok := w.(workload.Segmented); ok {
		return segmentedWorkload{tw}
	}
	return tw
}

func (w *timedWorkload) Threads(plan, trial *sim.RNG) []workload.Stream {
	t := &trialRec{series: w.rec.series.Load(), start: time.Now()}
	if w.rec.capture.Load() {
		t.wl, t.plan, t.trial = w.Workload, *plan, *trial
	}
	inner := w.Workload.Threads(plan, trial)
	t.threads = time.Since(t.start)
	t.live.Store(int32(len(inner)))
	if len(inner) == 0 {
		t.end = time.Now()
	}
	out := make([]workload.Stream, len(inner))
	for i, s := range inner {
		out[i] = &timedStream{Stream: s, t: t}
	}
	w.rec.mu.Lock()
	w.rec.trials = append(w.rec.trials, t)
	w.rec.mu.Unlock()
	return out
}

type timedStream struct {
	workload.Stream
	t    *trialRec
	done bool
}

func (s *timedStream) Next(op *workload.Op) bool {
	if s.Stream.Next(op) {
		return true
	}
	if !s.done {
		s.done = true
		if s.t.live.Add(-1) == 0 {
			s.t.end = time.Now()
		}
	}
	return false
}

// genResult is the cost of regenerating captured trials' op streams with
// no engine attached.
type genResult struct {
	ops int64
	dur time.Duration
}

// replayGeneration re-runs Threads for every captured trial from copies
// of its original generators and drains each stream, recording one span
// per trial and per stream.
func replayGeneration(trials []*trialRec, spans *spanLog) genResult {
	var g genResult
	var op workload.Op
	for _, t := range trials {
		if t.wl == nil {
			continue
		}
		plan, trial := t.plan, t.trial
		id := spans.newID()
		t0 := time.Now()
		streams := t.wl.Threads(&plan, &trial)
		spans.add(id, "workload.Threads", t0, time.Now())
		for _, st := range streams {
			s0 := time.Now()
			var n int64
			for st.Next(&op) {
				n++
			}
			spans.add(id, "workload.Stream.drain", s0, time.Now())
			g.ops += n
		}
		end := time.Now()
		spans.record(id, 0, "replay."+t.wl.Name(), t0, end)
		g.dur += end.Sub(t0)
	}
	return g
}

// span is one timed call: name, interval and the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory for the traced run; it records nothing
// while off, and hands out ids either way so parents stay addressable.
type spanLog struct {
	base  time.Time
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// newID reserves a span id, for a span whose children start before it
// ends.
func (l *spanLog) newID() int64 { return l.next.Add(1) }

func (l *spanLog) record(id, parent int64, name string, start, end time.Time) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base))})
	l.mu.Unlock()
}

func (l *spanLog) add(parent int64, name string, start, end time.Time) int64 {
	id := l.newID()
	l.record(id, parent, name, start, end)
	return id
}
