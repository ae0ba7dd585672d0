package mglru

import (
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
)

const (
	allocFrames = 256
	// agingWalkAllocs bounds heap allocations per agingBatch aging passes.
	agingBatch      = 64
	agingWalkAllocs = 0
)

// TestAgingWalkAllocs gates one MG-LRU aging pass over a populated table
// (Scan-All: every region is walked, the paper's Scan-All variant). Each
// op re-touches a working set and then walks, as in steady-state aging.
// AllocsPerRun truncates to whole allocations per call, so each call is
// a batch of passes.
func TestAgingWalkAllocs(t *testing.T) {
	k := policytest.New(allocFrames, 4, 7)
	p := New(ScanAll())
	p.Attach(k)
	var allocs float64
	policytest.Run(func(v *sim.Env) {
		// One resident page per frame, spread over the regions.
		stride := pagetable.VPN(k.T.Pages() / allocFrames)
		for i := 0; i < allocFrames; i++ {
			k.FaultIn(v, p, pagetable.VPN(i)*stride, false, false)
		}
		i := 0
		allocs = testing.AllocsPerRun(16, func() {
			for end := i + agingBatch; i < end; i++ {
				for j := 0; j < 64; j++ {
					k.Touch(pagetable.VPN((i*31+j)%allocFrames)*stride, false)
				}
				p.Age(v)
			}
		})
	})
	if allocs > agingWalkAllocs {
		t.Fatalf("aging walk: %v allocs per %d passes, bound %d", allocs, agingBatch, agingWalkAllocs)
	}
}
