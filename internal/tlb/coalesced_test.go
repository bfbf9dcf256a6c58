package tlb

import (
	"testing"

	"mosaic/internal/core"
)

func contiguousNeighbours(basePFN core.PFN, n int) []NeighbourPFN {
	out := make([]NeighbourPFN, n)
	for i := range out {
		out[i] = NeighbourPFN{PFN: basePFN + core.PFN(i), OK: true}
	}
	return out
}

func TestCoalescedContiguousRunOneEntry(t *testing.T) {
	c := NewCoalesced(Geometry{Entries: 16, Ways: 4}, 4)
	// Pages 0..3 physically contiguous at 100..103: one fill covers all.
	c.Insert(0, 100, contiguousNeighbours(100, 4))
	for vpn := core.VPN(0); vpn < 4; vpn++ {
		pfn, ok := c.Lookup(vpn)
		if !ok || pfn != core.PFN(100+vpn) {
			t.Fatalf("Lookup(%d) = %d,%v", vpn, pfn, ok)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("contiguous run used %d entries", c.Len())
	}
	if got := c.AvgRunLength(); got != 4 {
		t.Fatalf("AvgRunLength = %f", got)
	}
}

func TestCoalescedScatteredNoBenefit(t *testing.T) {
	c := NewCoalesced(Geometry{Entries: 16, Ways: 4}, 4)
	// Scattered PFNs (what a hashed allocator produces): nothing coalesces.
	scattered := []NeighbourPFN{{500, true}, {9, true}, {307, true}, {42, true}}
	c.Insert(0, 500, scattered)
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("inserted page misses")
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("non-contiguous neighbour hit")
	}
	if got := c.AvgRunLength(); got != 1 {
		t.Fatalf("AvgRunLength = %f for scattered PFNs", got)
	}
	// Each page of the group needs its own fill; entries overwrite within
	// the group slot, so coverage of the previous page is rebuilt from the
	// neighbour list. A second fill for VPN 1 re-anchors the entry.
	c.Insert(1, 9, scattered)
	if pfn, ok := c.Lookup(1); !ok || pfn != 9 {
		t.Fatalf("Lookup(1) = %d,%v", pfn, ok)
	}
}

func TestCoalescedPartialRun(t *testing.T) {
	c := NewCoalesced(Geometry{Entries: 16, Ways: 4}, 4)
	// Pages 0,1 contiguous; page 2 elsewhere; page 3 unmapped.
	nb := []NeighbourPFN{{200, true}, {201, true}, {77, true}, {0, false}}
	c.Insert(0, 200, nb)
	if pfn, ok := c.Lookup(1); !ok || pfn != 201 {
		t.Fatalf("contiguous neighbour: %d,%v", pfn, ok)
	}
	if _, ok := c.Lookup(2); ok {
		t.Fatal("discontiguous page hit")
	}
	if _, ok := c.Lookup(3); ok {
		t.Fatal("unmapped page hit")
	}
	st := c.Stats()
	if st.SubMisses != 2 {
		t.Fatalf("sub-miss accounting: %+v", st)
	}
}

func TestCoalescedRunAnchoring(t *testing.T) {
	c := NewCoalesced(Geometry{Entries: 16, Ways: 4}, 4)
	// Fill from the middle of a group: vpn 6 (group 4..7, offset 2) with
	// PFNs 300..303 backing 4..7.
	nb := contiguousNeighbours(300, 4)
	c.Insert(6, 302, nb)
	for i := core.VPN(0); i < 4; i++ {
		pfn, ok := c.Lookup(4 + i)
		if !ok || pfn != core.PFN(300+i) {
			t.Fatalf("Lookup(%d) = %d,%v", 4+i, pfn, ok)
		}
	}
}

func TestCoalescedInvalidate(t *testing.T) {
	c := NewCoalesced(Geometry{Entries: 16, Ways: 4}, 4)
	c.Insert(0, 100, contiguousNeighbours(100, 4))
	if !c.Invalidate(2) {
		t.Fatal("Invalidate of covered page = false")
	}
	if c.Invalidate(2) {
		t.Fatal("double Invalidate = true")
	}
	if _, ok := c.Lookup(2); ok {
		t.Fatal("invalidated page hits")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("sibling lost on partial invalidation")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Clearing the rest removes the entry.
	c.Invalidate(0)
	c.Invalidate(1)
	c.Invalidate(3)
	if c.Len() != 0 {
		t.Fatalf("Len after full invalidation = %d", c.Len())
	}
}

func TestCoalescedLRUWholeEntries(t *testing.T) {
	// 2-entry fully-associative: third group evicts the LRU whole entry.
	c := NewCoalesced(Geometry{Entries: 2, Ways: 2}, 4)
	c.Insert(0, 100, contiguousNeighbours(100, 4))
	c.Insert(4, 200, contiguousNeighbours(200, 4))
	c.Lookup(0) // group 0 MRU
	c.Insert(8, 300, contiguousNeighbours(300, 4))
	if _, ok := c.Lookup(5); ok {
		t.Fatal("LRU group survived")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("MRU group evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestCoalescedValidation(t *testing.T) {
	for _, run := range []int{0, 3, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("run length %d should panic", run)
				}
			}()
			NewCoalesced(Geometry{Entries: 16, Ways: 4}, run)
		}()
	}
}

func TestCoalescedVsMosaicOnScatteredPlacement(t *testing.T) {
	// The paper's argument in one test: over a hash-scattered physical
	// layout, a coalescing TLB degenerates to one page per entry while a
	// mosaic TLB still packs 4 — so on a sequential scan of 2× TLB reach,
	// mosaic misses ~4× less.
	geom := Geometry{Entries: 64, Ways: 8}
	co := NewCoalesced(geom, 4)
	mo := NewMosaic(geom, 4)
	pfnOf := func(vpn core.VPN) core.PFN { // pseudo-hashed placement
		return core.PFN((uint64(vpn)*2654435761 + 17) % (1 << 20))
	}
	const pages = 128
	for round := 0; round < 10; round++ {
		for vpn := core.VPN(0); vpn < pages; vpn++ {
			if _, ok := co.Lookup(vpn); !ok {
				group := vpn &^ 3
				var nb []NeighbourPFN
				for i := core.VPN(0); i < 4; i++ {
					nb = append(nb, NeighbourPFN{PFN: pfnOf(group + i), OK: true})
				}
				co.Insert(vpn, pfnOf(vpn), nb)
			}
			if _, ok := mo.Lookup(vpn); !ok {
				toc := ToC{}
				for i := 0; i < 4; i++ {
					toc = append(toc, core.CPFN(i))
				}
				mo.Insert(vpn, toc)
			}
		}
	}
	coMiss, moMiss := co.Stats().Misses, mo.Stats().Misses
	if moMiss*3 > coMiss {
		t.Errorf("mosaic misses %d not ≪ coalesced misses %d under scattered placement", moMiss, coMiss)
	}
	if co.AvgRunLength() > 1.05 {
		t.Errorf("coalescing found contiguity in a hashed layout: %.2f", co.AvgRunLength())
	}
	t.Logf("scattered placement: coalesced=%d mosaic=%d misses (coalescing factor %.2f)",
		coMiss, moMiss, co.AvgRunLength())
}
