package rmap

import (
	"testing"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
)

// rmapChaseAllocs bounds heap allocations per allocBatch walks.
const (
	allocBatch      = 1024
	rmapChaseAllocs = 0
)

// TestRMapChaseAllocs gates raw reverse-map resolutions under the default
// (jittered) cost model: the pointer chase Clock pays per scanned page.
// AllocsPerRun truncates to whole allocations per call, so each call is
// a batch of walks.
func TestRMapChaseAllocs(t *testing.T) {
	const frames = 256
	m := mem.New(frames)
	for i := 0; i < frames; i++ {
		m.Frame(m.Alloc()).VPN = int64(i)
	}
	r := New(m, DefaultCostModel(), sim.NewRNG(11))
	i := 0
	allocs := testing.AllocsPerRun(16, func() {
		for end := i + allocBatch; i < end; i++ {
			if vpn, _ := r.Walk(mem.FrameID(i % frames)); vpn != pagetable.VPN(i%frames) {
				t.Fatalf("walk %d resolved vpn %d", i, vpn)
			}
		}
	})
	if allocs > rmapChaseAllocs {
		t.Fatalf("rmap chase: %v allocs per %d walks, bound %d", allocs, allocBatch, rmapChaseAllocs)
	}
}
