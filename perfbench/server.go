package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/server"
)

// The sweep-server workload serves the Fig 1 sweep (the paper's five
// workloads under Clock and MG-LRU at 50% SSD) from a pre-warmed store,
// at a trial count and scale small enough to pre-warm in set-up.
const (
	serverTrials = 2
	serverScale  = 0.2
	serverTail   = 0.90
)

var (
	fig1Workloads = []string{"tpch", "pagerank", "ycsb-a", "ycsb-b", "ycsb-c"}
	fig1Policies  = []string{"clock", "mglru"}
	// coldRatios are the capacity points of the cold sweeps: the Fig 1
	// matrix at a ratio the warm store does not hold.
	coldRatios = []float64{0.75}
)

func fig1Sweep(workloads, policies []string, ratios []float64) server.SweepRequest {
	return server.SweepRequest{Workloads: workloads, Policies: policies, Ratios: ratios,
		Swaps: []string{"ssd"}, Trials: serverTrials, Scale: serverScale}
}

// warmSweeps is the clients' request list: the Fig 1 sweep restricted
// to every non-empty subset of its workloads (31 sweeps of 2 to 10 cells)
// in a seeded order, each followed by a repeat of the one before it, so
// new jobs over cached cells and jobs deduplicated against them
// alternate. The seed orders the list; what it holds is fixed.
func warmSweeps(seed uint64) []server.SweepRequest {
	var subs []server.SweepRequest
	for wm := 1; wm < 1<<len(fig1Workloads); wm++ {
		var ws []string
		for i, w := range fig1Workloads {
			if wm&(1<<i) != 0 {
				ws = append(ws, w)
			}
		}
		subs = append(subs, fig1Sweep(ws, fig1Policies, []float64{0.5}))
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	var out []server.SweepRequest
	for i, sub := range subs {
		out = append(out, sub)
		if i > 0 {
			out = append(out, subs[i-1])
		}
	}
	return out
}

// canonicalCells validates a request the way the server does and
// enumerates its cells, returning the options they run under.
func canonicalCells(req server.SweepRequest, seed uint64) (experiments.Options, []experiments.CellSpec, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return experiments.Options{}, nil, err
	}
	c, aerr := server.ParseSweepRequest(bytes.NewReader(body), server.Limits{})
	if aerr != nil {
		return experiments.Options{}, nil, aerr
	}
	opts := c.Options(seed)
	cells, err := experiments.SweepCells(opts, c.SweepSpec())
	return opts, cells, err
}

// serverBench is a set-up sweep-server workload: a store pre-warmed with
// the Fig 1 sweep and a server over it listening on loopback.
type serverBench struct {
	seed     uint64
	dir      string
	store    *checkpoint.Store
	live     *liveServer
	servers  int               // servers started so far, for queue directory names
	colds    int               // cold sweeps run so far, for store directory names
	expected map[string][]byte // result hash -> stored blob
	warmKeys []string
	warm     roundOut // the pre-warm run: series times, trials
	series   map[string]*experiments.Series
	rec      *recorder
}

// liveServer is one server, serving on a loopback port.
type liveServer struct {
	store  *checkpoint.Store
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	used   bool // a warm session has run on it
}

// start replaces the running server, if any, by a fresh one over store
// with its own queue directory, so it remembers no job of the previous
// one.
func (sb *serverBench) start(store *checkpoint.Store) error {
	if sb.live != nil {
		sb.live.close()
		sb.live = nil
	}
	sb.servers++
	srv, err := server.New(server.Config{Store: store,
		Dir: filepath.Join(sb.dir, fmt.Sprintf("queue-%d", sb.servers)), Workers: nproc(), Seed: sb.seed})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	ls := &liveServer{store: store, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(ls.served)
		ls.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	sb.live = ls
	return nil
}

// close stops the executor and the listener and waits for the serve loop
// to return.
func (ls *liveServer) close() {
	ls.srv.Drain()
	ls.hs.Close()
	<-ls.served
}

// setupServer builds the workload instances, pre-warms a fresh store in
// dir by running the Fig 1 sweep through a Runner, and starts the server.
func setupServer(seed uint64, dir string) (*serverBench, error) {
	sb := &serverBench{seed: seed, dir: dir, expected: map[string][]byte{},
		series: map[string]*experiments.Series{}, rec: &recorder{}}
	opts, cells, err := canonicalCells(fig1Sweep(fig1Workloads, fig1Policies, []float64{0.5}), seed)
	if err != nil {
		return nil, err
	}
	specs := map[string]experiments.WorkloadSpec{}
	for _, c := range cells {
		if _, ok := specs[c.Workload]; !ok {
			specs[c.Workload] = prebuilt(c.Workload, serverScale, sb.rec)
		}
	}
	if sb.store, err = checkpoint.Open(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	opts.Parallelism = nproc()
	opts.Checkpoint = sb.store
	r := experiments.NewRunner(opts)
	for i, c := range cells {
		sb.rec.series.Store(int64(i + 1)) // groups the trials by series
		s0 := time.Now()
		s, err := r.Run(specs[c.Workload], experiments.PolicyByName(c.Policy), c.System)
		sb.warm.seriesDur = append(sb.warm.seriesDur, time.Since(s0))
		if err != nil {
			return nil, fmt.Errorf("pre-warm %s/%s: %w", c.Workload, c.Policy, err)
		}
		blob, ok := sb.store.Get(c.Key)
		if !ok {
			return nil, fmt.Errorf("pre-warm %s/%s: not in store", c.Workload, c.Policy)
		}
		sb.expected[checkpoint.KeyHash(c.Key)] = blob
		sb.warmKeys = append(sb.warmKeys, c.Key)
		sb.series[cellLabel("fig1", c)] = s
	}
	sb.warm.trials = sb.rec.take()
	if err := sb.start(sb.store); err != nil {
		return nil, err
	}
	return sb, nil
}

// close stops the server and removes the store.
func (sb *serverBench) close() {
	if sb.live != nil {
		sb.live.close()
	}
	os.RemoveAll(sb.dir)
}

// clientStats is what the closed-loop clients measured.
type clientStats struct {
	mu       sync.Mutex
	sweeps   []time.Duration // POST until the job is done
	results  []time.Duration // one GET /v1/results each
	elapsed  time.Duration   // sessions only, not server restarts
	sessions int
	stats    server.Stats // the last session's /v1/stats
	attempts int
	failures []string
}

func (c *clientStats) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if err != nil {
		c.failures = append(c.failures, err.Error())
	}
}

// submit posts a sweep and waits until the job is done, following the
// job's event stream when the reply is not already terminal.
func (sb *serverBench) submit(cl *http.Client, req server.SweepRequest) (server.JobStatus, error) {
	var st server.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	if err := sb.call(cl, http.MethodPost, "/v1/sweeps", body, &st); err != nil {
		return st, err
	}
	if st.State == "done" {
		return st, nil
	}
	resp, err := cl.Get(sb.live.base + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events %s: status %d", st.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return st, sb.call(cl, http.MethodGet, "/v1/sweeps/"+st.ID, nil, &st)
		}
	}
	return st, fmt.Errorf("events %s: stream ended before done: %v", st.ID, sc.Err())
}

// call makes one request and decodes a 2xx JSON reply into out.
func (sb *serverBench) call(cl *http.Client, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, sb.live.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// fetch GETs one result artifact and checks it byte for byte against
// want.
func (sb *serverBench) fetch(cl *http.Client, hash string, want []byte) (time.Duration, error) {
	t0 := time.Now()
	resp, err := cl.Get(sb.live.base + "/v1/results/" + hash)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	switch {
	case err != nil:
		return d, err
	case resp.StatusCode != http.StatusOK:
		return d, fmt.Errorf("result %s: status %d", hash, resp.StatusCode)
	case !bytes.Equal(data, want):
		return d, fmt.Errorf("result %s: served %d bytes differ from the %d stored", hash, len(data), len(want))
	}
	return d, nil
}

// timedPhase runs rounds until d has elapsed, at least one. A round is
// a warm session and then one cold sweep, so both measurements sample the
// whole phase.
func (sb *serverBench) timedPhase(d time.Duration, list []server.SweepRequest, spans *spanLog, dg *digester,
	rep *report, cs *clientStats, cold *coldOut) error {
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < d; n++ {
		if err := sb.warmSession(list, spans, cs); err != nil {
			return err
		}
		if err := sb.coldSweep(spans, dg, rep, cold); err != nil {
			return err
		}
	}
	return nil
}

// warmSession runs one session on a fresh server: nproc closed-loop
// clients together take every sweep of the list once; each waits for its
// sweep to finish, then fetches and checks every cell's result. Whole
// sessions keep the mix of new and deduplicated jobs, and so the work,
// the same in every run.
func (sb *serverBench) warmSession(list []server.SweepRequest, spans *spanLog, cs *clientStats) error {
	if sb.live.used || sb.live.store != sb.store {
		if err := sb.start(sb.store); err != nil {
			return err
		}
	}
	sb.live.used = true
	s0 := time.Now()
	sb.session(cs, list, spans)
	cs.elapsed += time.Since(s0)
	cs.sessions++
	st, err := sb.stats()
	cs.record(err)
	cs.stats = st
	return nil
}

func (sb *serverBench) session(cs *clientStats, list []server.SweepRequest, spans *spanLog) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &http.Client{Transport: &http.Transport{}}
			defer cl.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				id := spans.newID()
				s0 := time.Now()
				st, err := sb.submit(cl, list[i])
				s1 := time.Now()
				spans.add(id, "http.POST /v1/sweeps", s0, s1)
				cs.record(err)
				if err != nil {
					continue
				}
				cs.mu.Lock()
				cs.sweeps = append(cs.sweeps, s1.Sub(s0))
				cs.mu.Unlock()
				for _, cell := range st.Cells {
					r0 := time.Now()
					want, ok := sb.expected[cell.CacheKey]
					if !ok {
						cs.record(fmt.Errorf("warm sweep served cell %s/%s that is not in the pre-warmed store", cell.Workload, cell.Policy))
						continue
					}
					rd, err := sb.fetch(cl, cell.CacheKey, want)
					spans.add(id, "http.GET /v1/results", r0, time.Now())
					cs.record(err)
					cs.mu.Lock()
					cs.results = append(cs.results, rd)
					cs.mu.Unlock()
				}
				spans.record(id, 0, "client.warm-sweep", s0, time.Now())
			}
		}()
	}
	wg.Wait()
}

// coldOut is the cold sweeps' outcome.
type coldOut struct {
	durs     []time.Duration
	accesses uint64 // simulated accesses of one sweep
	digests  map[string]string
	counts   workCounts // of all sweeps
	cells    int64      // cold cells the servers counted
}

func newColdOut() *coldOut { return &coldOut{digests: map[string]string{}} }

// coldSweep runs one cold sweep on a fresh server over a fresh, empty
// store, so every cold sweep computes the same cells from scratch and
// must produce the same digests. It submits the Fig 1 matrix at the cold
// ratio and is timed until the job is done; then every served artifact
// is checked against the store and each cell's series is resumed from the
// store to be digested.
func (sb *serverBench) coldSweep(spans *spanLog, dg *digester, rep *report, out *coldOut) error {
	sb.colds++
	store, err := checkpoint.Open(filepath.Join(sb.dir, fmt.Sprintf("cold-%d", sb.colds)))
	if err != nil {
		return err
	}
	if err := sb.start(store); err != nil {
		return err
	}
	req := fig1Sweep(fig1Workloads, fig1Policies, coldRatios)
	cl := &http.Client{Transport: &http.Transport{}}
	defer cl.CloseIdleConnections()
	t0 := time.Now()
	st, err := sb.submit(cl, req)
	d := time.Since(t0)
	spans.add(0, "client.cold-sweep", t0, t0.Add(d))
	rep.check(err == nil, "cold sweep: %v", err)
	if err != nil {
		return err
	}
	out.durs = append(out.durs, d)
	rep.check(st.Counts["done"] == len(st.Cells) && len(st.Cells) > 0,
		"cold sweep: %d of %d cells done (%v)", st.Counts["done"], len(st.Cells), st.Counts)
	for _, cell := range st.Cells {
		want, ok := store.GetHash(cell.CacheKey)
		if !ok {
			rep.check(false, "cold cell %s/%s/%g not in store", cell.Workload, cell.Policy, cell.Ratio)
			continue
		}
		_, err := sb.fetch(cl, cell.CacheKey, want)
		rep.check(err == nil, "cold result: %v", err)
	}
	stats, err := sb.stats()
	rep.check(err == nil, "GET /v1/stats: %v", err)
	out.cells += stats.Counters["server.cells.cold"]
	series, cells, err := resume(req, "cold", sb.seed, store)
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	first := len(out.digests) == 0
	var w workCounts
	for _, c := range cells {
		l := cellLabel("cold", c)
		s := series[l]
		w.add(c.System, s.Trials)
		out.counts.add(c.System, s.Trials)
		dgst := dg.series(s.Trials)
		rep.attempted += len(s.Trials)
		if first {
			out.digests[l] = dgst
		} else {
			rep.check(dgst == out.digests[l], "cold sweep %d: cell %s digest %s, first cold sweep %s", sb.colds, l, dgst, out.digests[l])
		}
	}
	out.accesses = w.accesses
	return nil
}

// resume returns the series of every cell of req by resuming a Runner
// from store; a cell missing from the store is an error, not a run.
func resume(req server.SweepRequest, part string, seed uint64, store *checkpoint.Store) (map[string]*experiments.Series, []experiments.CellSpec, error) {
	opts, cells, err := canonicalCells(req, seed)
	if err != nil {
		return nil, nil, err
	}
	opts.Checkpoint = store
	r := experiments.NewRunner(opts)
	out := map[string]*experiments.Series{}
	for _, c := range cells {
		if !store.Has(c.Key) {
			return nil, nil, fmt.Errorf("cell %s/%s/%g missing from the store", c.Workload, c.Policy, c.System.Ratio)
		}
		s, err := r.Run(experiments.WorkloadByNameAt(c.Workload, serverScale, 0), experiments.PolicyByName(c.Policy), c.System)
		if err != nil {
			return nil, nil, err
		}
		out[cellLabel(part, c)] = s
	}
	return out, cells, nil
}

// resumeWarm resumes the pre-warmed Fig 1 cells from the store.
func (sb *serverBench) resumeWarm() (map[string]*experiments.Series, error) {
	out, _, err := resume(fig1Sweep(fig1Workloads, fig1Policies, []float64{0.5}), "fig1", sb.seed, sb.store)
	return out, err
}

// stats reads the server's counters.
func (sb *serverBench) stats() (server.Stats, error) {
	var st server.Stats
	cl := &http.Client{Transport: &http.Transport{}}
	defer cl.CloseIdleConnections()
	err := sb.call(cl, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// storeCallTimes times checkpoint.Store.Get and experiments.
// SummarizeSeriesBlob on every warm cell, reps times each, and returns the
// medians in milliseconds and the mean blob size in KB.
func (sb *serverBench) storeCallTimes(reps int) (getMS, summarizeMS, blobKB float64) {
	var gets, sums []float64
	var bytes int
	for _, key := range sb.warmKeys {
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			blob, _ := sb.store.Get(key)
			t1 := time.Now()
			experiments.SummarizeSeriesBlob(blob)
			gets = append(gets, ms(t1.Sub(t0)))
			sums = append(sums, ms(time.Since(t1)))
			if i == 0 {
				bytes += len(blob)
			}
		}
	}
	return median(gets), median(sums), ratio(float64(bytes)/1024, float64(len(sb.warmKeys)))
}
