package pagetable

import (
	"testing"

	"mglrusim/internal/mem"
)

// fuzzRegions/fuzzPerRegion keep the fuzz table small enough that random
// byte streams reach every region, at the smallest legal fanout.
const (
	fuzzRegions   = 4
	fuzzPerRegion = 64
)

// fuzzTable is the surface applyFuzzOp drives; both *Table and the
// reference model implement it.
type fuzzTable interface {
	Pages() int
	Regions() int
	PTE(VPN) PTE
	MapRange(VPN, int, bool)
	Walk(VPN, bool) (mem.FrameID, bool)
	Insert(VPN, mem.FrameID, bool)
	InsertPrefetch(VPN, mem.FrameID)
	Evict(VPN, int32) bool
	TestAndClearAccessed(VPN) bool
	HarvestRegion(int, func(VPN, mem.FrameID)) (int, int)
	ReapRegion(int, func(VPN, int32)) int
	AccessedDensity(int) (int, int)
	RegionPresent(int) int
	RegionSwapped(int) int
}

// refTable is the reference model: a dense array of PTE structs plus the
// global and per-region counters, with every operation written the
// obvious way. applyFuzzOp guards each call, so the model need not
// reproduce the table's panics.
type refTable struct {
	perRegion         int
	ptes              []PTE
	regionPresent     []int
	regionSwapped     []int
	presentN, mappedN int
}

func newRefTable(regions, perRegion int) *refTable {
	m := &refTable{
		perRegion:     perRegion,
		ptes:          make([]PTE, regions*perRegion),
		regionPresent: make([]int, regions),
		regionSwapped: make([]int, regions),
	}
	for i := range m.ptes {
		m.ptes[i] = PTE{Frame: mem.NilFrame, Swap: NilSwap}
	}
	return m
}

func (m *refTable) Pages() int              { return len(m.ptes) }
func (m *refTable) Regions() int            { return len(m.regionPresent) }
func (m *refTable) PTE(vpn VPN) PTE         { return m.ptes[vpn] }
func (m *refTable) RegionPresent(r int) int { return m.regionPresent[r] }
func (m *refTable) RegionSwapped(r int) int { return m.regionSwapped[r] }
func (m *refTable) region(r int) (VPN, []PTE) {
	return VPN(r * m.perRegion), m.ptes[r*m.perRegion : (r+1)*m.perRegion]
}

func (m *refTable) MapRange(start VPN, n int, file bool) {
	for i := 0; i < n; i++ {
		p := &m.ptes[start+VPN(i)]
		if !p.Mapped() {
			m.mappedN++
		}
		p.Bits |= BitMapped
		if file {
			p.Bits |= BitFile
		}
	}
}

func (m *refTable) Walk(vpn VPN, write bool) (mem.FrameID, bool) {
	p := &m.ptes[vpn]
	if !p.Present() {
		return mem.NilFrame, false
	}
	p.Bits |= BitAccessed
	if write {
		p.Bits |= BitDirty
	}
	return p.Frame, true
}

func (m *refTable) Insert(vpn VPN, f mem.FrameID, write bool) {
	m.InsertPrefetch(vpn, f)
	m.ptes[vpn].Bits |= BitAccessed
	if write {
		m.ptes[vpn].Bits |= BitDirty
	}
}

func (m *refTable) InsertPrefetch(vpn VPN, f mem.FrameID) {
	m.ptes[vpn].Frame = f
	m.ptes[vpn].Bits |= BitPresent
	m.presentN++
	m.regionPresent[int(vpn)/m.perRegion]++
}

func (m *refTable) Evict(vpn VPN, slot int32) bool {
	p := &m.ptes[vpn]
	r := int(vpn) / m.perRegion
	if p.Swap == NilSwap && slot != NilSwap {
		m.regionSwapped[r]++
	} else if p.Swap != NilSwap && slot == NilSwap {
		m.regionSwapped[r]--
	}
	dirty := p.Dirty()
	p.Frame, p.Swap = mem.NilFrame, slot
	p.Bits &^= BitPresent | BitAccessed | BitDirty
	m.presentN--
	m.regionPresent[r]--
	return dirty
}

func (m *refTable) TestAndClearAccessed(vpn VPN) bool {
	was := m.ptes[vpn].Accessed()
	m.ptes[vpn].Bits &^= BitAccessed
	return was
}

func (m *refTable) HarvestRegion(r int, fn func(VPN, mem.FrameID)) (present, accessed int) {
	start, ptes := m.region(r)
	for i := range ptes {
		if ptes[i].Present() && ptes[i].Accessed() {
			accessed++
			ptes[i].Bits &^= BitAccessed
			fn(start+VPN(i), ptes[i].Frame)
		}
	}
	return m.regionPresent[r], accessed
}

func (m *refTable) ReapRegion(r int, fn func(VPN, int32)) int {
	start, ptes := m.region(r)
	reaped := 0
	for i := range ptes {
		if slot := ptes[i].Swap; slot != NilSwap {
			ptes[i].Swap = NilSwap
			reaped++
			fn(start+VPN(i), slot)
		}
	}
	m.regionSwapped[r] -= reaped
	return reaped
}

func (m *refTable) AccessedDensity(r int) (present, accessed int) {
	_, ptes := m.region(r)
	for _, p := range ptes {
		if p.Present() {
			present++
			if p.Accessed() {
				accessed++
			}
		}
	}
	return present, accessed
}

// applyFuzzOp decodes one operation from (op, a, b) and applies it to t.
// Guards read the target's own state; the model and the table get the
// identical call sequence as long as they agree. Returns a small result
// fingerprint so the caller can diff observable behaviour per-op.
func applyFuzzOp(t fuzzTable, op, a, b byte, slot int32) (r1, r2 int64) {
	pages := VPN(t.Pages())
	vpn := VPN(a) % pages
	region := int(a) % t.Regions()
	switch op % 10 {
	case 0: // map a short run (possibly re-mapping, possibly file-backed)
		n := int(b)%8 + 1
		if int(vpn)+n > int(pages) {
			n = int(pages - vpn)
		}
		t.MapRange(vpn, n, b&1 != 0)
	case 1: // hardware walk
		if t.PTE(vpn).Mapped() {
			f, ok := t.Walk(vpn, b&1 != 0)
			r1 = int64(f)
			if ok {
				r2 = 1
			}
		}
	case 2: // demand fault-in
		p := t.PTE(vpn)
		if p.Mapped() && !p.Present() {
			t.Insert(vpn, mem.FrameID(b), b&1 != 0)
		}
	case 3: // readahead fault-in
		p := t.PTE(vpn)
		if p.Mapped() && !p.Present() {
			t.InsertPrefetch(vpn, mem.FrameID(b))
		}
	case 4: // evict, alternating real slots and slotless drops
		if t.PTE(vpn).Present() {
			s := slot
			if b&1 != 0 {
				s = NilSwap
			}
			if t.Evict(vpn, s) {
				r1 = 1
			}
		}
	case 5: // A-bit harvest primitive
		if t.TestAndClearAccessed(vpn) {
			r1 = 1
		}
	case 6: // aging-walk inner loop: order and payload must match
		var sum int64
		present, accessed := t.HarvestRegion(region, func(v VPN, f mem.FrameID) {
			sum = sum*1000003 + int64(v)*31 + int64(f)
		})
		r1 = int64(present)*100000 + int64(accessed)
		r2 = sum
	case 7: // OOM-reaper loop: order and dropped slots must match
		var sum int64
		n := t.ReapRegion(region, func(v VPN, s int32) {
			sum = sum*1000003 + int64(v)*31 + int64(s)
		})
		r1 = int64(n)
		r2 = sum
	case 8: // bloom density rule inputs
		present, accessed := t.AccessedDensity(region)
		r1 = int64(present)
		r2 = int64(accessed)
	case 9: // region counters
		r1 = int64(t.RegionPresent(region))
		r2 = int64(t.RegionSwapped(region))
	}
	return r1, r2
}

// diffTables fails the test at the first observable divergence between
// the reference model and the table: global counters, then every PTE
// snapshot and live accessor, then the per-region counters.
func diffTables(t *testing.T, ref *refTable, tb *Table, step int) {
	t.Helper()
	if ref.presentN != tb.PresentPages() || ref.mappedN != tb.MappedPages() {
		t.Fatalf("step %d: global counters diverge: model present=%d mapped=%d, table present=%d mapped=%d",
			step, ref.presentN, ref.mappedN, tb.PresentPages(), tb.MappedPages())
	}
	for vpn := VPN(0); vpn < VPN(ref.Pages()); vpn++ {
		rp, tp := ref.PTE(vpn), tb.PTE(vpn)
		if rp != tp {
			t.Fatalf("step %d: PTE(%d) diverges: model %+v, table %+v", step, vpn, rp, tp)
		}
		if rp.Present() != tb.IsPresent(vpn) ||
			rp.Swap != tb.SwapOf(vpn) ||
			rp.File() != tb.FileBacked(vpn) ||
			rp.Frame != tb.FrameOf(vpn) {
			t.Fatalf("step %d: accessors diverge at vpn %d", step, vpn)
		}
	}
	for r := 0; r < ref.Regions(); r++ {
		if ref.RegionPresent(r) != tb.RegionPresent(r) || ref.RegionSwapped(r) != tb.RegionSwapped(r) {
			t.Fatalf("step %d: region %d counters diverge: model (%d,%d), table (%d,%d)", step, r,
				ref.RegionPresent(r), ref.RegionSwapped(r), tb.RegionPresent(r), tb.RegionSwapped(r))
		}
	}
}

// FuzzTableVsModel drives the identical operation stream — maps, walks,
// inserts, evictions, harvests, reaps — through the bit-plane table and
// the dense reference model and requires bit-exact agreement after every
// step: op results (including harvest/reap callback order), every PTE
// snapshot, every accessor, and all counters. Any divergence is a
// bit-plane bug.
func FuzzTableVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 0, 0, 2, 0, 3, 1, 0, 1, 4, 0, 0, 6, 0, 0})
	f.Add([]byte{0, 128, 200, 2, 130, 7, 4, 130, 0, 7, 130, 0, 9, 2, 0})
	f.Add([]byte{0, 0, 255, 0, 64, 255, 2, 5, 1, 5, 5, 0, 8, 1, 0, 6, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := newRefTable(fuzzRegions, fuzzPerRegion)
		tb := NewWithRegionSize(fuzzRegions, fuzzPerRegion)
		slot := int32(1)
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			m1, m2 := applyFuzzOp(ref, op, a, b, slot)
			t1, t2 := applyFuzzOp(tb, op, a, b, slot)
			slot++
			if m1 != t1 || m2 != t2 {
				t.Fatalf("step %d (op %d a %d b %d): results diverge: model (%d,%d), table (%d,%d)",
					i/3, op%10, a, b, m1, m2, t1, t2)
			}
			diffTables(t, ref, tb, i/3)
		}
	})
}
