package tlb

import (
	"fmt"
	"math/bits"

	"mosaic/internal/core"
)

// Coalesced is a CoLT-style coalescing TLB (§5.2 of the paper; Pham et al.,
// MICRO '12): an entry covers a run of up to maxRun pages that are both
// virtually AND physically contiguous. It is the contiguity-dependent
// competitor to mosaic pages — its reach gains are proportional to whatever
// physical contiguity the allocator happens to produce, which is plentiful
// under a fresh sequential allocator and nearly absent under fragmentation
// or hashed (mosaic) placement. Comparing it against the mosaic TLB
// quantifies the paper's core claim: mosaic buys reach without needing
// contiguity.
//
// Entries are indexed by the aligned run base (VPN / maxRun), so a run
// never spans index groups — the hardware-practical variant of CoLT-SA.
type Coalesced struct {
	table[coalescedEntry]
	maxRun       int
	fills        uint64
	pagesCovered uint64
}

// coalescedEntry is the payload of the entry tagged with its run's base
// VPN.
type coalescedEntry struct {
	basePFN core.PFN
	// valid is a bitmap over the maxRun aligned slots: bit i covers
	// base+i, mapped to basePFN+i.
	valid uint64
}

// NewCoalesced builds a coalescing TLB. maxRun must be a power of two ≤ 64
// (CoLT proposals use 4–8).
func NewCoalesced(geom Geometry, maxRun int) *Coalesced {
	if maxRun <= 0 || maxRun > 64 || maxRun&(maxRun-1) != 0 {
		panic(fmt.Sprintf("tlb: coalescing run length %d not a power of two in [1,64]", maxRun))
	}
	return &Coalesced{table: newTable[coalescedEntry](geom), maxRun: maxRun}
}

// AvgRunLength is the mean pages covered per fill — the achieved
// coalescing factor.
func (t *Coalesced) AvgRunLength() float64 {
	if t.fills == 0 {
		return 0
	}
	return float64(t.pagesCovered) / float64(t.fills)
}

func (t *Coalesced) group(vpn core.VPN) (base core.VPN, off int) {
	return core.VPN(uint64(vpn) &^ uint64(t.maxRun-1)), int(uint64(vpn) & uint64(t.maxRun-1))
}

// groupSet is the set holding base's group. The group number, not the
// VPN, indexes the sets, so consecutive groups spread across them.
func (t *Coalesced) groupSet(base core.VPN) *set[coalescedEntry] {
	return t.set(uint64(base) / uint64(t.maxRun))
}

// Lookup translates vpn: a hit requires an entry for vpn's aligned group
// whose validity bitmap covers vpn's slot.
func (t *Coalesced) Lookup(vpn core.VPN) (core.PFN, bool) {
	base, off := t.group(vpn)
	e, ok := t.groupSet(base).get(uint64(base))
	if ok && e.valid&(1<<uint(off)) != 0 {
		t.stats.Hits++
		return e.basePFN.Add(uint64(off)), true
	}
	t.stats.Misses++
	if ok {
		t.stats.SubMisses++
	} else {
		t.stats.EntryMisses++
	}
	return 0, false
}

// Insert fills the translation for vpn→pfn and opportunistically coalesces:
// the walker hands over the translations of the whole aligned group (as
// CoLT's extended walker does), and every neighbour page whose PFN is at
// the matching offset from vpn's joins the entry. neighbours[i] is the PFN
// of base+i, with ok=false for unmapped pages; pass nil to insert without
// coalescing.
func (t *Coalesced) Insert(vpn core.VPN, pfn core.PFN, neighbours []NeighbourPFN) {
	base, off := t.group(vpn)
	e := coalescedEntry{valid: 1 << uint(off)}
	// Anchor the run so base maps to basePFN.
	e.basePFN = pfn.Sub(uint64(off))
	covered := uint64(1)
	for i, nb := range neighbours {
		if i == off || !nb.OK || i >= t.maxRun {
			continue
		}
		if nb.PFN == e.basePFN.Add(uint64(i)) {
			e.valid |= 1 << uint(i)
			covered++
		}
	}
	t.fills++
	t.pagesCovered += covered
	if _, evicted := t.groupSet(base).insert(uint64(base), e); evicted {
		t.stats.Evictions++
	}
}

// NeighbourPFN is one group-slot translation offered for coalescing.
type NeighbourPFN struct {
	PFN core.PFN
	OK  bool
}

// Invalidate drops the coverage of vpn. If the entry covers other pages it
// survives with vpn's bit cleared; a now-empty entry is removed.
func (t *Coalesced) Invalidate(vpn core.VPN) bool {
	base, off := t.group(vpn)
	s := t.groupSet(base)
	e, ok := s.peek(uint64(base))
	if !ok || e.valid&(1<<uint(off)) == 0 {
		return false
	}
	e.valid &^= 1 << uint(off)
	if e.valid == 0 {
		s.invalidate(uint64(base))
	}
	return true
}

// Range calls fn for every page a valid entry covers, with the PFN the
// entry translates it to, in unspecified order, without affecting recency
// or the counters. The key is the VPN Insert was called with (in memsim,
// the ASID-tagged VPN), so the pairs have the shape of Vanilla's. Range
// exists for the invariant checkers, which audit TLB contents against the
// page tables.
func (t *Coalesced) Range(fn func(key uint64, pfn core.PFN)) {
	t.table.Range(func(base uint64, e coalescedEntry) {
		for v := e.valid; v != 0; v &= v - 1 {
			i := uint64(bits.TrailingZeros64(v))
			fn(base+i, e.basePFN.Add(i))
		}
	})
}
