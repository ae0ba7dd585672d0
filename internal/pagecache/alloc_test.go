package pagecache_test

import (
	"testing"

	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// fileFaultAllocs bounds heap allocations per allocBatch file faults: two
// per fault, the shadow the kernel double hands PageIn on a refault and
// the one the cache's TakeShadow returns.
const (
	allocBatch      = 1024
	fileFaultAllocs = 2048
)

// TestFileFaultPathAllocs gates the file major-fault cycle under default
// MG-LRU with every page file-backed: each miss pays the cache's demand
// read and shadow handoff, and each eviction records a shadow and pages
// out if dirty. The flusher is off (Enabled false spawns no daemon; the
// writeback machinery still runs when called), so only the fault path is
// counted. AllocsPerRun truncates to whole allocations per call, so each
// call is a batch of faults.
func TestFileFaultPathAllocs(t *testing.T) {
	k := policytest.New(256, 1, 7)
	p := mglru.New(mglru.Default())
	p.Attach(k)
	eng := sim.NewEngine(4)
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	dev := swap.NewSSD(swap.DefaultSSDConfig(), eng, sim.NewRNG(11))
	c := pagecache.New(cfg, eng, k.T, k.M, dev,
		[]pagecache.FileSpan{{Name: "f0", Base: 0, Pages: k.T.Pages()}})
	k.OnEvict = func(v *sim.Env, vpn pagetable.VPN, sh policy.Shadow) {
		c.RecordEviction(vpn, sh)
		if c.ClearDirty(vpn) {
			c.PageOut(v, vpn)
		}
	}
	pages := pagetable.VPN(k.T.Pages())
	var allocs float64
	eng.Spawn("driver", false, func(v *sim.Env) {
		i := 0
		allocs = testing.AllocsPerRun(16, func() {
			k.EvictOrder = k.EvictOrder[:0] // the double's log, not the path under test
			for end := i + allocBatch; i < end; i++ {
				vpn := pagetable.VPN(i) % pages
				if k.Touch(vpn, i%8 == 0) {
					if i%8 == 0 {
						c.MarkDirty(vpn)
					}
					continue
				}
				for k.M.FreePages() == 0 {
					if p.Reclaim(v, 1) == 0 {
						p.Age(v)
					}
				}
				c.TakeShadow(vpn)
				c.ReadPage(v, vpn)
				c.NoteResident(vpn)
				k.FaultIn(v, p, vpn, false, true)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > fileFaultAllocs {
		t.Fatalf("file fault path: %v allocs per %d ops, bound %d", allocs, allocBatch, fileFaultAllocs)
	}
}
