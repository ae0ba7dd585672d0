package simple

import (
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
)

// faultPathAllocs bounds heap allocations per allocBatch FIFO faults: one
// per fault, the shadow the kernel double hands PageIn on a refault.
const (
	allocBatch      = 1024
	faultPathAllocs = 1024
)

// TestFaultPathAllocs gates the fault/evict cycle under the scan-free
// FIFO policy: every op is one page fault including the reclaim that
// makes room for it (PageIn, Reclaim, EvictPage and the page-table
// bookkeeping), over a 2x over-commit. AllocsPerRun truncates to whole
// allocations per call, so each call is a batch of faults.
func TestFaultPathAllocs(t *testing.T) {
	k := policytest.New(256, 1, 7)
	p := NewFIFO()
	p.Attach(k)
	pages := pagetable.VPN(k.T.Pages())
	var allocs float64
	policytest.Run(func(v *sim.Env) {
		i := 0
		allocs = testing.AllocsPerRun(16, func() {
			k.EvictOrder = k.EvictOrder[:0] // the double's log, not the path under test
			for end := i + allocBatch; i < end; i++ {
				vpn := pagetable.VPN(i) % pages
				if k.Touch(vpn, i%3 == 0) {
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
	if allocs > faultPathAllocs {
		t.Fatalf("fault path: %v allocs per %d ops, bound %d", allocs, allocBatch, faultPathAllocs)
	}
}
