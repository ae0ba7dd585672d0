package clock

import (
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
)

// clockScanAllocs bounds heap allocations per allocBatch faults under
// Clock: one per fault, the shadow the kernel double hands PageIn on a
// refault. The scan itself allocates nothing.
const (
	allocBatch      = 1024
	clockScanAllocs = 1024
)

// TestClockScanAllocs gates the fault cycle under Clock: each fault's
// reclaim runs the two-list second-chance scan with its rmap resolutions,
// over a 2x over-commit. AllocsPerRun truncates to whole allocations per
// call, so each call is a batch of faults.
func TestClockScanAllocs(t *testing.T) {
	k := policytest.New(256, 1, 7)
	p := New(DefaultConfig())
	p.Attach(k)
	pages := pagetable.VPN(k.T.Pages())
	var allocs float64
	policytest.Run(func(v *sim.Env) {
		i := 0
		allocs = testing.AllocsPerRun(16, func() {
			k.EvictOrder = k.EvictOrder[:0] // the double's log, not the path under test
			for end := i + allocBatch; i < end; i++ {
				vpn := pagetable.VPN(i) % pages
				if k.Touch(vpn, false) {
					continue
				}
				for k.M.FreePages() == 0 {
					if p.Reclaim(v, 1) == 0 {
						p.Age(v)
					}
				}
				k.FaultIn(v, p, vpn, false, false)
			}
		})
	})
	if allocs > clockScanAllocs {
		t.Fatalf("clock scan: %v allocs per %d ops, bound %d", allocs, allocBatch, clockScanAllocs)
	}
}
