package memsim

import (
	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/tlb"
)

// scheme is one TLB design as the simulator drives it: the TLB, how a miss
// walks the design's page table and fills the TLB, and how the TLB's
// contents are audited against the page tables. Keys are ASID-tagged VPNs
// (see taggedVPN). A new design is one type implementing scheme plus a
// case in newScheme, the only place that branches on the design.
type scheme interface {
	// lookup probes the TLB, counting a hit or a miss.
	lookup(tagged core.VPN) bool
	// fill walks the design's page table for vpn, appending the walk's
	// memory references to path, and inserts the translation. It reports
	// false if the walk found no mapping.
	fill(s *Simulator, asid core.ASID, vpn, tagged core.VPN, path []uint64) ([]uint64, bool)
	// invalidate shoots down the translation of one evicted page.
	invalidate(tagged core.VPN)
	// flush invalidates every entry.
	flush()
	stats() tlb.Stats
	// result records the design's TLB outcome on r.
	result(r *Result)
	// audit checks every valid entry against its address space's page
	// table, recording violations under the unit's label.
	audit(s *Simulator, label string, r *invariant.Report)
}

// newScheme builds the TLB design spec selects, registering a mosaic
// arity so faults populate that arity's page tables.
func (s *Simulator) newScheme(spec TLBSpec) scheme {
	switch {
	case spec.Coalesce != 0:
		return &coltScheme{
			Coalesced:  tlb.NewCoalesced(spec.Geometry, spec.Coalesce),
			neighbours: make([]tlb.NeighbourPFN, spec.Coalesce),
		}
	case spec.Arity == 0:
		return &vanillaScheme{tlb.NewVanilla(spec.Geometry)}
	default:
		s.arities[spec.Arity] = true
		return &mosaicScheme{Mosaic: tlb.NewMosaic(spec.Geometry, spec.Arity), arity: spec.Arity}
	}
}

// vanillaScheme is a conventional TLB over the ASID's radix page table.
type vanillaScheme struct{ *tlb.Vanilla }

func (v *vanillaScheme) lookup(tagged core.VPN) bool {
	_, hit := v.Lookup(tagged)
	return hit
}

func (v *vanillaScheme) fill(s *Simulator, asid core.ASID, vpn, tagged core.VPN, path []uint64) ([]uint64, bool) {
	pfn, ok, path := s.vanillaPT(asid).Walk(vpn, path)
	if ok {
		v.Insert(tagged, pfn)
	}
	return path, ok
}

func (v *vanillaScheme) invalidate(tagged core.VPN) { v.Invalidate(tagged) }
func (v *vanillaScheme) flush()                     { v.Flush() }
func (v *vanillaScheme) stats() tlb.Stats           { return v.Stats() }
func (v *vanillaScheme) result(r *Result)           { r.TLB = v.Stats() }

func (v *vanillaScheme) audit(s *Simulator, label string, r *invariant.Report) {
	v.Range(s.auditPFN(label, r))
}

// mosaicScheme is a mosaic TLB over the ASID's mosaic page table of the
// same arity; an eviction clears only the page's sub-entry (§3.1).
type mosaicScheme struct {
	*tlb.Mosaic
	arity int
}

func (m *mosaicScheme) lookup(tagged core.VPN) bool {
	_, hit := m.Lookup(tagged)
	return hit
}

func (m *mosaicScheme) fill(s *Simulator, asid core.ASID, vpn, tagged core.VPN, path []uint64) ([]uint64, bool) {
	toc, ok, path := s.mosaicPT(asid, m.arity).WalkToC(vpn, path)
	if ok {
		m.Insert(tagged, toc)
	}
	return path, ok
}

func (m *mosaicScheme) invalidate(tagged core.VPN) { m.InvalidateSub(tagged) }
func (m *mosaicScheme) flush()                     { m.Flush() }
func (m *mosaicScheme) stats() tlb.Stats           { return m.Stats() }
func (m *mosaicScheme) result(r *Result)           { r.TLB = m.Stats() }

func (m *mosaicScheme) audit(s *Simulator, label string, r *invariant.Report) {
	m.Range(func(key uint64, toc tlb.ToC) {
		for off, c := range toc {
			if c == core.CPFNInvalid {
				continue
			}
			asid, vpn := untag(core.BaseVPN(core.MVPN(key), m.arity, off))
			pt, ok := s.mosaicPTs[ptKey{asid: asid, arity: m.arity}]
			if !r.Checkf(ok, "memsim.tlb-coherence",
				"%s: valid sub-entry for ASID %d, which has no page table", label, asid) {
				continue
			}
			got, mapped := pt.Get(vpn)
			if !r.Checkf(mapped, "memsim.tlb-coherence",
				"%s: valid sub-entry for ASID %d VPN %#x, which the page table does not map", label, asid, vpn) {
				continue
			}
			r.Checkf(got == c, "memsim.tlb-coherence",
				"%s: sub-entry for ASID %d VPN %#x holds CPFN %d, page table says %d", label, asid, vpn, c, got)
		}
	})
}

// coltScheme is a CoLT coalescing TLB over the ASID's radix page table.
// neighbours is its fill's scratch buffer, one slot per page of the
// coalescing group; Coalesced.Insert does not retain it.
type coltScheme struct {
	*tlb.Coalesced
	neighbours []tlb.NeighbourPFN
}

func (c *coltScheme) lookup(tagged core.VPN) bool {
	_, hit := c.Lookup(tagged)
	return hit
}

func (c *coltScheme) fill(s *Simulator, asid core.ASID, vpn, tagged core.VPN, path []uint64) ([]uint64, bool) {
	pt := s.vanillaPT(asid)
	pfn, ok, path := pt.Walk(vpn, path)
	if !ok {
		return path, false
	}
	// CoLT's walker inspects the neighbouring PTEs in the same leaf cache
	// line it already fetched, so offering the aligned group for
	// coalescing costs no extra memory traffic. The ASID tag is
	// group-aligned (it lives far above the run bits), so tagging does
	// not split runs.
	nb := c.neighbours
	base := core.VPN(uint64(vpn) &^ uint64(len(nb)-1))
	for i := range nb {
		npfn, nok := pt.Get(base + core.VPN(i))
		nb[i] = tlb.NeighbourPFN{PFN: npfn, OK: nok}
	}
	c.Insert(tagged, pfn, nb)
	return path, true
}

func (c *coltScheme) invalidate(tagged core.VPN) { c.Invalidate(tagged) }
func (c *coltScheme) flush()                     { c.Flush() }
func (c *coltScheme) stats() tlb.Stats           { return c.Stats() }

func (c *coltScheme) result(r *Result) {
	r.TLB = c.Stats()
	r.CoalescingFactor = c.AvgRunLength()
}

// audit checks every page a valid run covers, so a run that coalesced a
// neighbour the page table has since remapped is caught too.
func (c *coltScheme) audit(s *Simulator, label string, r *invariant.Report) {
	c.Range(s.auditPFN(label, r))
}

// auditPFN returns the check vanilla and CoLT audits share: one valid
// ASID-tagged VPN→PFN translation against the ASID's vanilla page table.
func (s *Simulator) auditPFN(label string, r *invariant.Report) func(key uint64, pfn core.PFN) {
	return func(key uint64, pfn core.PFN) {
		asid, vpn := untag(core.VPN(key))
		pt, ok := s.vanillaPTs[asid]
		if !r.Checkf(ok, "memsim.tlb-coherence",
			"%s: valid entry for ASID %d, which has no page table", label, asid) {
			return
		}
		got, mapped := pt.Get(vpn)
		if !r.Checkf(mapped, "memsim.tlb-coherence",
			"%s: valid entry for ASID %d VPN %#x, which the page table does not map", label, asid, vpn) {
			return
		}
		r.Checkf(got == pfn, "memsim.tlb-coherence",
			"%s: entry for ASID %d VPN %#x holds PFN %d, page table says %d", label, asid, vpn, pfn, got)
	}
}
