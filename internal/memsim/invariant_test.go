package memsim

import (
	"strings"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/invariant"
	"mosaic/internal/tlb"
)

func checkedSimulator(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(Config{
		Frames: 1 << 12,
		Specs: []TLBSpec{
			{Geometry: tlb.Geometry{Entries: 64, Ways: 4}},
			{Geometry: tlb.Geometry{Entries: 64, Ways: 4}, Arity: 4},
			{Geometry: tlb.Geometry{Entries: 64, Ways: 4}, Coalesce: 4},
		},
		Seed:       5,
		CheckEvery: 64, // exercise the periodic debug checks during the run
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckInvariantsDuringRun drives a simulation with CheckEvery enabled
// (every violation would panic mid-run) and confirms the final state audits
// clean, including the TLB↔page-table coherence sweep.
func TestCheckInvariantsDuringRun(t *testing.T) {
	s := checkedSimulator(t)
	for rep := 0; rep < 4; rep++ {
		for p := uint64(0); p < 500; p++ {
			s.Access(p*core.PageSize+16, p%5 == 0)
		}
	}
	var r invariant.Report
	s.CheckInvariants(&r)
	if err := r.Err(); err != nil {
		t.Fatalf("post-run state reported violations: %v", err)
	}
}

// TestCheckInvariantsDetectsStaleTLB plants entries the page tables
// disagree with in every TLB design and asserts the coherence audit
// reports them.
func TestCheckInvariantsDetectsStaleTLB(t *testing.T) {
	s := checkedSimulator(t)
	for p := uint64(0); p < 200; p++ {
		s.Access(p*core.PageSize, false)
	}

	t.Run("vanilla-wrong-pfn", func(t *testing.T) {
		vpn := core.VPN(3)
		want, ok := s.vanillaPT(s.cfg.ASID).Get(vpn)
		if !ok {
			t.Fatal("VPN 3 should be mapped")
		}
		v := s.units[0].tlb.(*vanillaScheme)
		v.Insert(taggedVPN(s.cfg.ASID, vpn), want.Add(1))
		var r invariant.Report
		s.CheckInvariants(&r)
		if !hasCoherenceViolation(&r, "Vanilla") {
			t.Fatalf("stale vanilla entry not reported: %v", r.Violations())
		}
		// Repair by reinserting the truth; the state must audit clean again.
		v.Insert(taggedVPN(s.cfg.ASID, vpn), want)
		r = invariant.Report{}
		s.CheckInvariants(&r)
		if err := r.Err(); err != nil {
			t.Fatalf("repaired state still dirty: %v", err)
		}
	})

	t.Run("mosaic-unmapped-subpage", func(t *testing.T) {
		m := s.units[1].tlb.(*mosaicScheme)
		// A ToC claiming a valid sub-entry for a VPN no page table maps.
		vpn := core.VPN(1 << 20)
		toc := m.InvalidToC()
		toc[0] = 0
		m.Insert(taggedVPN(s.cfg.ASID, vpn), toc)
		var r invariant.Report
		s.CheckInvariants(&r)
		if !hasCoherenceViolation(&r, "Mosaic-4") {
			t.Fatalf("stale mosaic sub-entry not reported: %v", r.Violations())
		}
	})

	t.Run("colt-wrong-pfn", func(t *testing.T) {
		c := s.units[2].tlb.(*coltScheme)
		// A one-page run for VPN 5 naming the frame after the real one.
		vpn := core.VPN(5)
		want, ok := s.vanillaPT(s.cfg.ASID).Get(vpn)
		if !ok {
			t.Fatal("VPN 5 should be mapped")
		}
		c.Insert(taggedVPN(s.cfg.ASID, vpn), want.Add(1), nil)
		var r invariant.Report
		s.CheckInvariants(&r)
		if !hasCoherenceViolation(&r, "CoLT-4") {
			t.Fatalf("stale CoLT run not reported: %v", r.Violations())
		}
	})
}

func hasCoherenceViolation(r *invariant.Report, label string) bool {
	for _, v := range r.Violations() {
		if v.Rule == "memsim.tlb-coherence" && strings.HasPrefix(v.Detail, label) {
			return true
		}
	}
	return false
}
