package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/sim"
)

// workCell is one fixed trial of the work-counter gate.
type workCell struct {
	workload, policy string
	sys              core.SystemConfig
}

// workCells cover the paths perfbench times: the Fig 1 pair on SSD swap
// (Clock's rmap scan vs MG-LRU's page-table walk), one MG-LRU variant on
// ZRAM (the compressor and the region walk), and the serve workload in
// page-cache mode (file faults, readahead and the flusher).
func workCells() []workCell {
	ssd := SystemAt(0.5, core.SwapSSD)
	zram := SystemAt(0.5, core.SwapZRAM)
	cache := SystemAt(0.5, core.SwapSSD)
	cache.PageCache = pagecache.DefaultConfig()
	return []workCell{
		{"tpch", PolClock, ssd},
		{"tpch", PolMGLRU, ssd},
		{"tpch", PolScanAll, zram},
		{"serve", PolMGLRU, cache},
	}
}

// TestGoldenWork pins the deterministic work each cell does: engine
// scheduling, the fault path, the policy's scan effort and the device and
// page-cache I/O. Unlike host time these counts are exact on any machine,
// so any change to them is a change in what the simulator does. Each cell
// is trial 0 of the matching figure series at scale 0.2 and seed 0x5EED,
// seeded exactly as the Runner seeds it.
//
// If the change is intended, say why in the commit and refresh with:
// go test ./internal/experiments -run TestGoldenWork -update-golden
func TestGoldenWork(t *testing.T) {
	const scale, seed = 0.2, 0x5EED
	var b strings.Builder
	for _, c := range workCells() {
		w := WorkloadByName(c.workload, scale)
		p := PolicyByName(c.policy)
		var es sim.Stats
		m, err := core.RunTrialOpts(w.Make(), p.Make, c.sys, seed^0xABCD,
			trialSeed(seed, seedKey(w, p, c.sys), 0), core.TrialOptions{EngineStats: &es})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.policy, err)
		}
		cell := fmt.Sprintf("%s/%s/%s-%.2f", c.workload, c.policy, c.sys.Swap, c.sys.Ratio)
		for _, kv := range []struct {
			name string
			v    uint64
		}{
			{"sim.events", es.Events},
			{"sim.switches", es.Switches},
			{"sim.self_wakes", es.SelfWakes},
			{"sim.lookaheads", es.Lookaheads},
			{"vmm.accesses", m.Counters.Accesses},
			{"vmm.major_faults", m.Counters.MajorFaults},
			{"vmm.minor_faults", m.Counters.MinorFaults},
			{"vmm.file_faults", m.Counters.FileFaults},
			{"vmm.direct_reclaims", m.Counters.DirectReclaims},
			{"vmm.kswapd_bursts", m.Counters.KswapdBursts},
			{"policy.pte_scanned", m.Policy.PTEScanned},
			{"policy.regions_scanned", m.Policy.RegionsScanned},
			{"policy.regions_skipped", m.Policy.RegionsSkipped},
			{"policy.rmap_walks", m.Policy.RMapWalks},
			{"policy.evicted", m.Policy.Evicted},
			{"policy.aging_runs", m.Policy.AgingRuns},
			{"swap.reads", m.Device.Reads},
			{"swap.writes", m.Device.Writes},
			{"pagecache.reads", m.FileCache.Reads},
			{"pagecache.writeback_pages", m.FileCache.WritebackPages},
		} {
			fmt.Fprintf(&b, "%s %s %d\n", cell, kv.name, kv.v)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_work.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("work counters drifted from golden:\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between two renderings of the
// same cell×counter grid, one "counter: want -> got" line each.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "  want %q\n  got  %q\n", wl, gl)
		}
	}
	return b.String()
}
