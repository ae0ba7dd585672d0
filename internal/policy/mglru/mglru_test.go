package mglru

import (
	"testing"
	"testing/quick"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
)

func attach(cfg Config, frames, regions int, seed uint64) (*MGLRU, *policytest.Kernel) {
	g := New(cfg)
	k := policytest.New(frames, regions, seed)
	g.Attach(k)
	return g, k
}

func TestVariantNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Default(), "mglru"},
		{Gen14(), "gen14"},
		{ScanAll(), "scan-all"},
		{ScanNone(), "scan-none"},
		{ScanRand(0.5), "scan-rand"},
	}
	for _, c := range cases {
		if got := New(c.cfg).Name(); got != c.want {
			t.Errorf("name = %q, want %q", got, c.want)
		}
	}
}

func TestAnonPageInGoesToYoungest(t *testing.T) {
	g, k := attach(Default(), 32, 1, 1)
	policytest.Run(func(v *sim.Env) {
		f := k.FaultIn(v, g, 0, false, false)
		fr := k.M.Frame(f)
		if fr.Gen != g.MaxSeq() {
			t.Errorf("gen = %d, want youngest %d", fr.Gen, g.MaxSeq())
		}
	})
}

func TestFilePageInGoesToOldGeneration(t *testing.T) {
	g, k := attach(Default(), 32, 1, 1)
	policytest.Run(func(v *sim.Env) {
		f := k.FaultIn(v, g, 0, false, true)
		fr := k.M.Frame(f)
		if fr.Gen == g.MaxSeq() {
			t.Errorf("file page placed in youngest generation")
		}
		if fr.Gen != g.MinSeq() {
			t.Errorf("gen = %d, want oldest %d (window of 2)", fr.Gen, g.MinSeq())
		}
	})
}

func TestAgingCreatesNewGenerationAndPromotes(t *testing.T) {
	g, k := attach(Default(), 64, 2, 1)
	policytest.Run(func(v *sim.Env) {
		for vpn := pagetable.VPN(0); vpn < 8; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
		}
		// Cool half, keep half hot (A bits set from fault-in).
		for vpn := pagetable.VPN(0); vpn < 4; vpn++ {
			k.T.TestAndClearAccessed(vpn)
		}
		before := g.MaxSeq()
		if !g.Age(v) {
			t.Error("aging with room should create a generation")
		}
		if g.MaxSeq() != before+1 {
			t.Errorf("maxSeq = %d, want %d", g.MaxSeq(), before+1)
		}
		// Hot pages should now be in the new youngest.
		for vpn := pagetable.VPN(4); vpn < 8; vpn++ {
			f, _ := k.T.Walk(vpn, false)
			if k.M.Frame(f).Gen != g.MaxSeq() {
				t.Errorf("hot page %d not promoted", vpn)
			}
		}
		// Cold pages stayed in the old generation.
		f, _ := k.T.Walk(0, false)
		if k.M.Frame(f).Gen == g.MaxSeq() {
			t.Error("cold page promoted")
		}
	})
}

func TestAgingAtMaxGensPromotesIntoSameGeneration(t *testing.T) {
	cfg := Default()
	cfg.MaxGens = 2 // window always full
	g, k := attach(cfg, 32, 1, 1)
	policytest.Run(func(v *sim.Env) {
		k.FaultIn(v, g, 0, false, false)
		before := g.MaxSeq()
		if g.Age(v) {
			t.Error("aging without room should report no new generation")
		}
		if g.MaxSeq() != before {
			t.Errorf("maxSeq advanced without room")
		}
	})
}

func TestGen14AlwaysHasRoom(t *testing.T) {
	g, k := attach(Gen14(), 32, 1, 1)
	policytest.Run(func(v *sim.Env) {
		k.FaultIn(v, g, 0, false, false)
		for i := 0; i < 100; i++ {
			k.Touch(0, false)
			if !g.Age(v) {
				t.Fatalf("gen14 ran out of room at iteration %d", i)
			}
		}
	})
	if g.MaxSeq()-g.MinSeq() < 100 {
		t.Fatalf("generation window too small: [%d, %d]", g.MinSeq(), g.MaxSeq())
	}
}

func TestScanNoneSkipsAllRegions(t *testing.T) {
	g, k := attach(ScanNone(), 64, 4, 1)
	policytest.Run(func(v *sim.Env) {
		for vpn := pagetable.VPN(0); vpn < 16; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
		}
		g.Age(v)
	})
	st := g.Stats()
	if st.RegionsScanned != 0 {
		t.Fatalf("scan-none scanned %d regions", st.RegionsScanned)
	}
	if st.RegionsSkipped == 0 {
		t.Fatal("regions not accounted as skipped")
	}
}

func TestScanAllScansEveryPopulatedRegion(t *testing.T) {
	g, k := attach(ScanAll(), 3000, 4, 1)
	policytest.Run(func(v *sim.Env) {
		// Populate regions 0 and 2, leave 1 and 3 as holes.
		for i := 0; i < 10; i++ {
			k.FaultIn(v, g, pagetable.VPN(i), false, false)
			k.FaultIn(v, g, pagetable.VPN(2*pagetable.PTEsPerRegion+i), false, false)
		}
		g.Age(v)
	})
	st := g.Stats()
	if st.RegionsScanned != 2 {
		t.Fatalf("scanned %d regions, want 2 (populated only)", st.RegionsScanned)
	}
	if st.RegionsSkipped != 2 {
		t.Fatalf("skipped %d, want 2 (holes)", st.RegionsSkipped)
	}
}

func TestBloomColdStartScansEverything(t *testing.T) {
	g, k := attach(Default(), 3000, 4, 1)
	policytest.Run(func(v *sim.Env) {
		for i := 0; i < 10; i++ {
			k.FaultIn(v, g, pagetable.VPN(i), false, false)
		}
		g.Age(v)
	})
	if g.Stats().RegionsScanned != 1 {
		t.Fatalf("cold-start walk scanned %d populated regions, want 1", g.Stats().RegionsScanned)
	}
}

func TestBloomFiltersColdRegionsOnSecondWalk(t *testing.T) {
	g, k := attach(Default(), 3000, 4, 1)
	policytest.Run(func(v *sim.Env) {
		// Region 0: dense hot. Region 2: populated but will be cold.
		for i := 0; i < 64; i++ {
			k.FaultIn(v, g, pagetable.VPN(i), false, false)
			k.FaultIn(v, g, pagetable.VPN(2*pagetable.PTEsPerRegion+i), false, false)
		}
		// First walk (cold start): sees region 0 dense (A bits set) and
		// region 2 dense too. Cool region 2 afterwards and re-heat only
		// region 0.
		g.Age(v)
		for i := 0; i < 64; i++ {
			k.Touch(pagetable.VPN(i), false)
		}
		// Second walk: filter from walk 1 contains both; scans both, but
		// only region 0 qualifies for the next filter now.
		g.Age(v)
		scannedBefore := g.Stats().RegionsScanned
		// Third walk: only region 0 should pass the filter.
		for i := 0; i < 64; i++ {
			k.Touch(pagetable.VPN(i), false)
		}
		g.Age(v)
		if got := g.Stats().RegionsScanned - scannedBefore; got != 1 {
			t.Fatalf("third walk scanned %d regions, want 1 (bloom-filtered)", got)
		}
	})
}

// TestBloomSkipRatio: with every region resident but only 2 of 64 ever
// re-accessed, the bloom-gated aging walk scans well under half the
// regions Scan-All does over the identical access pattern.
func TestBloomSkipRatio(t *testing.T) {
	run := func(cfg Config) uint64 {
		const regions = 64
		perRegion := allocFrames / regions
		k := policytest.New(allocFrames, regions, 7)
		p := New(cfg)
		p.Attach(k)
		policytest.Run(func(v *sim.Env) {
			for r := 0; r < regions; r++ {
				base := pagetable.VPN(r * pagetable.PTEsPerRegion)
				for i := 0; i < perRegion; i++ {
					k.FaultIn(v, p, base+pagetable.VPN(i), false, false)
				}
			}
			hot := []pagetable.VPN{0, pagetable.VPN(32 * pagetable.PTEsPerRegion)}
			for i := 0; i < 32; i++ {
				for _, base := range hot {
					for j := 0; j < perRegion; j++ {
						k.Touch(base+pagetable.VPN(j), false)
					}
				}
				p.Age(v)
			}
		})
		return p.Stats().RegionsScanned
	}
	bloom := run(Default())
	all := run(ScanAll())
	if all == 0 {
		t.Fatal("scan-all walked no regions; the scenario exercises nothing")
	}
	if bloom*2 >= all {
		t.Fatalf("bloom-gated walk scanned %d regions vs scan-all's %d; expected under half", bloom, all)
	}
	t.Logf("bloom-skip ratio: %d/%d regions scanned (%.0f%% skipped)",
		bloom, all, 100*(1-float64(bloom)/float64(all)))
}

func TestReclaimEvictsFromOldestGeneration(t *testing.T) {
	g, k := attach(Default(), 64, 1, 1)
	policytest.Run(func(v *sim.Env) {
		// Old pages 0..3, then age, then young pages 4..7.
		for vpn := pagetable.VPN(0); vpn < 4; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
			k.T.TestAndClearAccessed(vpn)
		}
		g.Age(v)
		for vpn := pagetable.VPN(4); vpn < 8; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
			k.T.TestAndClearAccessed(vpn)
		}
		n := g.Reclaim(v, 2)
		if n != 2 {
			t.Errorf("reclaimed %d, want 2", n)
		}
	})
	for _, vpn := range k.EvictOrder {
		if vpn >= 4 {
			t.Fatalf("young page %d evicted before old pages: %v", vpn, k.EvictOrder)
		}
	}
}

func TestEvictionPromotesAccessedToYoungest(t *testing.T) {
	// Scan-None keeps aging from harvesting the A bit first, so the
	// eviction-side rmap walk must find and promote the hot page.
	g, k := attach(ScanNone(), 64, 1, 1)
	policytest.Run(func(v *sim.Env) {
		for vpn := pagetable.VPN(0); vpn < 4; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
			k.T.TestAndClearAccessed(vpn)
		}
		k.Touch(0, false) // page 0 hot again
		g.Reclaim(v, 1)
		f, ok := k.T.Walk(0, false)
		if !ok {
			t.Fatal("accessed page was evicted")
		}
		if k.M.Frame(f).Gen != g.MaxSeq() {
			t.Errorf("accessed page not promoted to youngest")
		}
	})
	if g.Stats().Rotated == 0 {
		t.Fatal("rotation not counted")
	}
}

func TestSpatialScanPromotesNeighbours(t *testing.T) {
	g, k := attach(Default(), 2000, 2, 1)
	policytest.Run(func(v *sim.Env) {
		// Many cold pages plus one hot page; its hot neighbours in the
		// same region should be promoted without individual rmap walks.
		for vpn := pagetable.VPN(0); vpn < 300; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
			k.T.TestAndClearAccessed(vpn)
		}
		// Heat page 0 (oldest tail region) and neighbours 1..9.
		for vpn := pagetable.VPN(0); vpn < 10; vpn++ {
			k.Touch(vpn, false)
		}
		before := g.Stats().RMapWalks
		g.Reclaim(v, 5)
		walks := g.Stats().RMapWalks - before
		// Spatial scan should have promoted neighbours in one region
		// scan; far fewer walks than 10 promotions + 5 evictions each
		// needing a walk individually is the point of the mechanism.
		if g.Stats().PTEScanned == 0 {
			t.Fatal("spatial scan never ran")
		}
		_ = walks
	})
	if g.Stats().Promoted == 0 {
		t.Fatal("no neighbours promoted")
	}
}

func TestSpatialScanDisabled(t *testing.T) {
	cfg := ScanNone() // aging scans nothing, so any PTE scan would be spatial
	cfg.SpatialScan = false
	g, k := attach(cfg, 256, 1, 1)
	policytest.Run(func(v *sim.Env) {
		for vpn := pagetable.VPN(0); vpn < 20; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
			k.T.TestAndClearAccessed(vpn)
		}
		k.Touch(0, false)
		g.Reclaim(v, 2)
	})
	if g.Stats().PTEScanned != 0 {
		t.Fatalf("spatial scan ran despite being disabled: %d PTEs", g.Stats().PTEScanned)
	}
}

func TestTierProtectionSparesHotFileTier(t *testing.T) {
	g, k := attach(Default(), 256, 1, 1)
	policytest.Run(func(v *sim.Env) {
		// Build refault history: tier 1 refaults much more than tier 0.
		for i := 0; i < 40; i++ {
			g.tiers.RecordEviction(0)
		}
		for i := 0; i < 20; i++ {
			g.tiers.RecordEviction(1)
			g.tiers.RecordRefault(1)
		}
		// A cold file page in tier 1 at the oldest generation tail.
		f := k.FaultIn(v, g, 0, false, true)
		fr := k.M.Frame(f)
		fr.Refs = 1
		fr.Tier = 1
		k.T.TestAndClearAccessed(0)
		// And a cold anon page that is evictable.
		k.FaultIn(v, g, 1, false, false)
		k.T.TestAndClearAccessed(1)
		g.Reclaim(v, 1)
	})
	if _, evicted := k.Shadows[0]; evicted {
		t.Fatal("protected tier-1 page was evicted")
	}
	if g.Stats().TierProtected == 0 {
		t.Fatal("tier protection never engaged")
	}
}

func TestRefaultRecordsShadowGenAndTier(t *testing.T) {
	g, k := attach(Default(), 64, 1, 1)
	policytest.Run(func(v *sim.Env) {
		k.FaultIn(v, g, 7, false, false)
		k.T.TestAndClearAccessed(7)
		g.Reclaim(v, 1)
		sh, ok := k.Shadows[7]
		if !ok {
			t.Fatal("no shadow after eviction")
		}
		if sh.Gen != g.MinSeq() && sh.Gen > g.MaxSeq() {
			t.Errorf("shadow gen = %d outside window", sh.Gen)
		}
		k.FaultIn(v, g, 7, false, false)
	})
	if g.Stats().Refaults != 1 {
		t.Fatalf("refaults = %d", g.Stats().Refaults)
	}
}

func TestNeedsAgingWhenWindowShort(t *testing.T) {
	g, k := attach(Default(), 64, 1, 1)
	policytest.Run(func(v *sim.Env) {
		if g.NeedsAging() {
			// fresh policy with empty oldest gen and MinGens window
			// legitimately wants aging; fault some pages in.
		}
		for vpn := pagetable.VPN(0); vpn < 4; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
		}
		g.Age(v) // window now 3 gens
		if g.NeedsAging() {
			t.Error("window of 3 gens should not need aging")
		}
	})
}

func TestReclaimForcesAgingWhenOldestDrained(t *testing.T) {
	g, k := attach(Default(), 256, 1, 1)
	var reclaimed int
	policytest.Run(func(v *sim.Env) {
		// All pages land in the youngest generation; the oldest is empty,
		// so reclaim must age its way to progress.
		for vpn := pagetable.VPN(0); vpn < 8; vpn++ {
			k.FaultIn(v, g, vpn, false, false)
			k.T.TestAndClearAccessed(vpn)
		}
		reclaimed = g.Reclaim(v, 2)
	})
	if reclaimed != 2 {
		t.Fatalf("reclaimed %d, want 2", reclaimed)
	}
	if g.Stats().AgingRuns == 0 {
		t.Fatal("reclaim never aged")
	}
}

func TestReclaimOnEmptyMemory(t *testing.T) {
	g, _ := attach(Default(), 16, 1, 1)
	policytest.Run(func(v *sim.Env) {
		if n := g.Reclaim(v, 4); n != 0 {
			t.Errorf("reclaimed %d from empty memory", n)
		}
	})
}

func TestTierOfLog2(t *testing.T) {
	g, _ := attach(Default(), 8, 1, 1)
	cases := []struct {
		refs uint8
		want uint8
	}{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {6, 2}, {7, 3}, {200, 3}}
	for _, c := range cases {
		if got := g.tierOf(c.refs); got != c.want {
			t.Errorf("tierOf(%d) = %d, want %d", c.refs, got, c.want)
		}
	}
}

// Property: after arbitrary fault/touch/reclaim/age sequences, every
// resident page is on exactly one generation list within [minSeq, maxSeq],
// and list populations sum to the resident count.
func TestGenerationInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		g, k := attach(Default(), 64, 1, seed)
		ok := true
		policytest.Run(func(v *sim.Env) {
			for _, op := range ops {
				vpn := pagetable.VPN(op % 48)
				switch op % 7 {
				case 0, 1, 2:
					if _, resident := k.T.Walk(vpn, false); !resident {
						if k.M.FreePages() <= 2 {
							g.Reclaim(v, 4)
						}
						if k.M.FreePages() > 0 {
							k.FaultIn(v, g, vpn, op%2 == 0, op%5 == 0)
						}
					}
				case 3:
					g.Age(v)
				case 4, 5:
					g.Reclaim(v, int(op%3)+1)
				case 6:
					k.T.Walk(vpn, false) // touch if resident (A bit)
				}
			}
			// Invariant check.
			total := 0
			for seq := g.MinSeq(); seq <= g.MaxSeq(); seq++ {
				n := g.GenLen(seq)
				total += n
				if !g.genList(seq).Validate() {
					ok = false
					return
				}
			}
			if total != k.T.PresentPages() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScanRandScansProbabilisticSubset(t *testing.T) {
	g, k := attach(ScanRand(0.5), 6000, 12, 1)
	policytest.Run(func(v *sim.Env) {
		// Populate every region.
		for r := 0; r < 12; r++ {
			base := pagetable.VPN(r * pagetable.PTEsPerRegion)
			for i := 0; i < 8; i++ {
				k.FaultIn(v, g, base+pagetable.VPN(i), false, false)
			}
		}
		for i := 0; i < 10; i++ {
			g.Age(v)
		}
	})
	st := g.Stats()
	if st.RegionsScanned == 0 {
		t.Fatal("scan-rand never scanned")
	}
	// Skipped counts include holes; with 12 populated regions over 10
	// walks at p=0.5, both scanned and non-scanned populated regions
	// must occur.
	if st.RegionsScanned >= 120 {
		t.Fatal("scan-rand scanned everything")
	}
}

// Regression unit test for aging-walk waiter starvation: a waiter must
// return once the in-flight walk completes, even if the walker starts
// another walk back-to-back within the same engine turn.
func TestAgeWaiterNotStarvedByBackToBackWalks(t *testing.T) {
	g, k := attach(ScanAll(), 3000, 8, 1)
	e := sim.NewEngine(2)
	// Populate enough regions that a walk takes multiple charge chunks.
	setup := e.Spawn("setup", false, func(v *sim.Env) {
		for r := 0; r < 8; r++ {
			base := pagetable.VPN(r * pagetable.PTEsPerRegion)
			for i := 0; i < 64; i++ {
				k.FaultIn(v, g, base+pagetable.VPN(i), false, false)
			}
		}
	})
	_ = setup
	walkerDone := false
	e.Spawn("walker", true, func(v *sim.Env) {
		v.Sleep(1 * sim.Millisecond)
		for {
			g.Age(v) // back-to-back walks forever
			walkerDone = true
		}
	})
	waiterReturned := false
	e.Spawn("waiter", false, func(v *sim.Env) {
		v.Sleep(2 * sim.Millisecond) // let the walker be mid-walk
		g.Age(v)                     // must not hang
		waiterReturned = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !waiterReturned {
		t.Fatal("waiter starved")
	}
	_ = walkerDone
}
