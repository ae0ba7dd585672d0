package policytest_test

import (
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/policy/oracle"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/policy/simple"
	"mglrusim/internal/workload"
)

// TestPolicyConformance runs the contract suite over every registered
// policy: Clock, all five MG-LRU variants, the scan-free baselines, and
// the exact-LRU oracle (which, as a policy.Policy, owes the same
// contract).
func TestPolicyConformance(t *testing.T) {
	cases := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"clock", func() policy.Policy { return clock.New(clock.DefaultConfig()) }},
		{"mglru", func() policy.Policy { return mglru.New(mglru.Default()) }},
		{"gen14", func() policy.Policy { return mglru.New(mglru.Gen14()) }},
		{"scan-all", func() policy.Policy { return mglru.New(mglru.ScanAll()) }},
		{"scan-none", func() policy.Policy { return mglru.New(mglru.ScanNone()) }},
		{"scan-rand", func() policy.Policy { return mglru.New(mglru.ScanRand(0.5)) }},
		{"fifo", func() policy.Policy { return simple.NewFIFO() }},
		{"random", func() policy.Policy { return simple.NewRandom() }},
		{"exact-lru", func() policy.Policy { return oracle.NewExactLRU() }},
	}
	for _, c := range cases {
		policytest.Conformance(t, c.name, c.mk)
	}
}

// TestConformanceBothLayouts runs the contract suite over the policies
// that read page tables directly (the MG-LRU variants and Clock) on both
// region layouts the figures use: TestPolicyConformance pins the
// kernel's 512-PTE regions (eight bit-plane words each), and the packed/
// cases here pin the scaled workloads' 64-PTE regions (one word each),
// which put eight times as many region boundaries in the same address
// space.
func TestConformanceBothLayouts(t *testing.T) {
	if workload.DefaultRegionPTEs == pagetable.PTEsPerRegion {
		t.Fatalf("scaled fanout %d equals the full fanout: the layouts no longer differ", workload.DefaultRegionPTEs)
	}
	cases := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"clock", func() policy.Policy { return clock.New(clock.DefaultConfig()) }},
		{"mglru", func() policy.Policy { return mglru.New(mglru.Default()) }},
		{"gen14", func() policy.Policy { return mglru.New(mglru.Gen14()) }},
		{"scan-all", func() policy.Policy { return mglru.New(mglru.ScanAll()) }},
		{"scan-none", func() policy.Policy { return mglru.New(mglru.ScanNone()) }},
	}
	for _, c := range cases {
		policytest.ConformanceAtFanout(t, "packed/"+c.name, workload.DefaultRegionPTEs, c.mk)
	}
}
