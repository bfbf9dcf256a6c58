package tlb

import (
	"fmt"

	"mosaic/internal/core"
)

// Vanilla is a conventional TLB: each entry maps one VPN to one PFN, as in
// the paper's baseline x86 configuration.
type Vanilla struct {
	table[core.PFN]
}

// NewVanilla builds a vanilla TLB.
func NewVanilla(geom Geometry) *Vanilla {
	return &Vanilla{newTable[core.PFN](geom)}
}

// Lookup translates vpn, counting a hit or a miss.
func (t *Vanilla) Lookup(vpn core.VPN) (core.PFN, bool) {
	if p, ok := t.set(uint64(vpn)).get(uint64(vpn)); ok {
		t.stats.Hits++
		return *p, true
	}
	t.stats.Misses++
	t.stats.EntryMisses++
	return 0, false
}

// Insert fills the translation after a page-table walk, evicting LRU within
// the set if needed.
func (t *Vanilla) Insert(vpn core.VPN, pfn core.PFN) {
	if _, evicted := t.set(uint64(vpn)).insert(uint64(vpn), pfn); evicted {
		t.stats.Evictions++
	}
}

// Invalidate drops the entry for vpn (TLB shootdown), reporting whether it
// was present.
func (t *Vanilla) Invalidate(vpn core.VPN) bool {
	return t.set(uint64(vpn)).invalidate(uint64(vpn))
}

// ToC is a mosaic TLB entry payload: the table of contents of one mosaic
// page — one CPFN per sub-page (Figure 2).
type ToC []core.CPFN

// Mosaic is a mosaic TLB: entries are indexed by MVPN and hold a ToC of
// arity CPFNs with per-sub-page validity. Replacement evicts whole mosaic
// entries (the paper's model manages "its own space using LRU to evict TLB
// entries for an entire mosaic page"); invalidation of a sub-page clears
// only that CPFN.
type Mosaic struct {
	table[ToC]
	arity int
}

// NewMosaic builds a mosaic TLB with the given entry geometry and arity
// (sub-pages per entry). The paper varies arity over powers of two from 4
// to 64.
func NewMosaic(geom Geometry, arity int) *Mosaic {
	if arity <= 0 || arity&(arity-1) != 0 {
		panic(fmt.Sprintf("tlb: arity %d is not a positive power of two", arity))
	}
	return &Mosaic{table: newTable[ToC](geom), arity: arity}
}

// Lookup translates vpn. A hit requires both the mosaic entry to be present
// and the sub-page's CPFN to be valid; the two miss flavours are counted
// separately (Stats.EntryMisses vs Stats.SubMisses).
func (t *Mosaic) Lookup(vpn core.VPN) (core.CPFN, bool) {
	mvpn, off := core.MosaicPage(vpn, t.arity)
	toc, ok := t.set(uint64(mvpn)).get(uint64(mvpn))
	if !ok {
		t.stats.Misses++
		t.stats.EntryMisses++
		return core.CPFNInvalid, false
	}
	if c := (*toc)[off]; c != core.CPFNInvalid {
		t.stats.Hits++
		return c, true
	}
	t.stats.Misses++
	t.stats.SubMisses++
	return core.CPFNInvalid, false
}

// Insert fills the whole ToC for vpn's mosaic page after a walk. The walker
// obtains the full leaf ToC, so all currently-mapped sub-pages become
// valid at once. The ToC is copied. Insert panics if the ToC length does
// not match the arity.
func (t *Mosaic) Insert(vpn core.VPN, toc ToC) {
	if len(toc) != t.arity {
		panic(fmt.Sprintf("tlb: ToC length %d, want arity %d", len(toc), t.arity))
	}
	mvpn, _ := core.MosaicPage(vpn, t.arity)
	cp := make(ToC, t.arity)
	copy(cp, toc)
	if _, evicted := t.set(uint64(mvpn)).insert(uint64(mvpn), cp); evicted {
		t.stats.Evictions++
	}
}

// InvalidateSub clears only vpn's CPFN within its mosaic entry, if present
// (§3.1: "our TLB model only invalidates the sub-page's entry within the
// larger mosaic page's ToC"). It reports whether a valid sub-entry was
// cleared.
func (t *Mosaic) InvalidateSub(vpn core.VPN) bool {
	mvpn, off := core.MosaicPage(vpn, t.arity)
	toc, ok := t.set(uint64(mvpn)).peek(uint64(mvpn))
	if !ok {
		return false
	}
	if (*toc)[off] == core.CPFNInvalid {
		return false
	}
	(*toc)[off] = core.CPFNInvalid
	return true
}

// InvalidToC returns a fresh all-invalid ToC of the TLB's arity.
func (t *Mosaic) InvalidToC() ToC {
	toc := make(ToC, t.arity)
	for i := range toc {
		toc[i] = core.CPFNInvalid
	}
	return toc
}
