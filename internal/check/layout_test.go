package check_test

import (
	"testing"

	"mglrusim/internal/check"
	"mglrusim/internal/experiments"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/workload"
)

// TestDifferentialBothLayouts replays the differential harness — the
// page-table-reading policies plus FIFO and the exact-LRU and Belady-OPT
// oracles, with invariant auditing on — over one trace per workload
// family, recorded once with the workload laid out in the scaled 64-PTE
// regions and once in the kernel's 512-PTE regions. The region layout
// only moves pages around the address space, so the two traces must be
// a relabelling of each other, the oracle bounds must hold under both,
// and every policy blind to regions (Clock chases the reverse map) must
// agree fault-for-fault. The MG-LRU variants walk by region and may
// differ.
func TestDifferentialBothLayouts(t *testing.T) {
	const (
		maxOps = 8000
		scale  = 0.05
	)
	policies := map[string]func() policy.Policy{}
	for _, name := range []string{"clock", "mglru", "gen14", "scan-all", "fifo"} {
		policies[name] = experiments.PolicyByName(name).Make
	}
	regionBlind := []string{"clock", "fifo", "exact-lru"}

	for _, name := range []string{"tpch", "ycsb-a"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var (
				traces  [2][]pagetable.VPN
				reports [2]*check.DiffReport
			)
			fanouts := [2]int{workload.DefaultRegionPTEs, pagetable.PTEsPerRegion}
			for i, fanout := range fanouts {
				w := experiments.WorkloadByNameAt(name, scale, fanout).Make()
				if w.RegionPTEs() != fanout {
					t.Fatalf("workload laid out at fanout %d, want %d", w.RegionPTEs(), fanout)
				}
				tr := check.RecordTrace(w, 0xABCD, 42, maxOps)
				if len(tr) < 1000 {
					t.Fatalf("fanout %d: trace too short: %d accesses", fanout, len(tr))
				}
				unique := map[int64]bool{}
				for _, vpn := range tr {
					unique[int64(vpn)] = true
				}
				capacity := len(unique) / 2
				if capacity < 32 {
					capacity = 32
				}
				rep, err := check.RunDifferential(tr, check.TableFor(w), capacity, policies, true)
				if err != nil {
					t.Fatalf("fanout %d differential failed:\n%v\nreport: %s", fanout, err, rep)
				}
				if rep.Faults["exact-lru"] != rep.MattsonLRUMisses {
					t.Fatalf("fanout %d: exact-lru %d != mattson %d", fanout, rep.Faults["exact-lru"], rep.MattsonLRUMisses)
				}
				traces[i], reports[i] = tr, rep
			}

			if len(traces[0]) != len(traces[1]) {
				t.Fatalf("trace lengths differ: %d vs %d", len(traces[0]), len(traces[1]))
			}
			fwd := map[pagetable.VPN]pagetable.VPN{}
			back := map[pagetable.VPN]pagetable.VPN{}
			for i, a := range traces[0] {
				b := traces[1][i]
				if m, ok := fwd[a]; ok && m != b {
					t.Fatalf("access %d: vpn %d maps to both %d and %d", i, a, m, b)
				}
				if m, ok := back[b]; ok && m != a {
					t.Fatalf("access %d: vpn %d is the image of both %d and %d", i, b, m, a)
				}
				fwd[a], back[b] = b, a
			}

			small, full := reports[0], reports[1]
			if small.Capacity != full.Capacity || small.OPTFaults != full.OPTFaults || small.MattsonLRUMisses != full.MattsonLRUMisses {
				t.Fatalf("oracles diverge between layouts:\n%d-PTE: %s\n%d-PTE: %s", fanouts[0], small, fanouts[1], full)
			}
			for _, p := range regionBlind {
				if small.Faults[p] != full.Faults[p] {
					t.Errorf("%s: %d faults at %d-PTE regions, %d at %d-PTE", p, small.Faults[p], fanouts[0], full.Faults[p], fanouts[1])
				}
			}
			t.Logf("layouts agree: %s", full)
		})
	}
}
