package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"mosaic/internal/cache"
	"mosaic/internal/tlb"
)

// stats are the simulated statistics of one repetition: counts the model
// produces, never host times. A change that only makes the simulator
// faster must leave every one of them identical.
type stats map[string]uint64

func (s stats) addTLB(unit string, t tlb.Stats) {
	s[unit+".hits"] = t.Hits
	s[unit+".misses"] = t.Misses
	s[unit+".entry_misses"] = t.EntryMisses
	s[unit+".sub_misses"] = t.SubMisses
	s[unit+".evictions"] = t.Evictions
}

func (s stats) addCache(unit string, levels []cache.Stats) {
	for i, l := range levels {
		p := fmt.Sprintf("%s.cache.l%d.", unit, i+1)
		s[p+"hits"] = l.Hits
		s[p+"misses"] = l.Misses
		s[p+"evictions"] = l.Evictions
		s[p+"writebacks"] = l.Writebacks
	}
}

// diff lists the keys whose values differ between want and got, restricted
// to keys present in both when shared is set.
func diff(want, got stats, shared bool) []string {
	var out []string
	for _, k := range slices.Sorted(maps.Keys(union(want, got))) {
		w, inW := want[k]
		g, inG := got[k]
		if shared && (!inW || !inG) {
			continue
		}
		if w != g || inW != inG {
			out = append(out, fmt.Sprintf("%s: want %d, got %d", k, w, g))
		}
	}
	return out
}

func union(a, b stats) stats {
	u := maps.Clone(a)
	if u == nil {
		u = stats{}
	}
	maps.Copy(u, b)
	return u
}

// fingerprintFile is the statistics recorded with the benchmark for the
// default seed at the default size. A run on the default seed whose
// statistics differ measured a different program.
type fingerprintFile struct {
	DefaultSeed uint64           `json:"default_seed"`
	HeldOutSeed uint64           `json:"held_out_seed"`
	Workloads   map[string]stats `json:"workloads"`
}

//go:embed fingerprints.json
var fingerprintJSON []byte

func loadFingerprints() (fingerprintFile, error) {
	var f fingerprintFile
	if err := json.Unmarshal(fingerprintJSON, &f); err != nil {
		return f, fmt.Errorf("fingerprints.json: %w", err)
	}
	return f, nil
}

// outputCheck decides which repetitions failed. A repetition fails when it
// returned an error or when its statistics differ from the first
// repetition's. finish then audits the statistics every passing repetition
// shares; an audit failure fails them all.
type outputCheck struct {
	ref       stats
	attempted int
	failed    int
	problems  []string
}

func (c *outputCheck) observe(s stats, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail(c.attempted, err.Error())
	case c.ref == nil:
		c.ref = s
	default:
		if d := diff(c.ref, s, false); len(d) > 0 {
			c.fail(c.attempted, "statistics differ from the first repetition: "+strings.Join(d, "; "))
		}
	}
}

// finish checks the audit's own statistics against the repetitions' on the
// keys both have, and, when a fingerprint is recorded for this seed and
// size, the union of the two against it. It returns that union.
func (c *outputCheck) finish(audit stats, auditErr error, fingerprint stats) stats {
	all := union(c.ref, audit)
	switch {
	case auditErr != nil:
		c.failAll(auditErr.Error())
	case c.ref == nil:
	default:
		if d := diff(c.ref, audit, true); len(d) > 0 {
			c.failAll("audited replica differs from the repetitions: " + strings.Join(d, "; "))
		} else if fingerprint != nil {
			if d := diff(fingerprint, all, false); len(d) > 0 {
				c.failAll("statistics differ from the recorded fingerprint: " + strings.Join(d, "; "))
			}
		}
	}
	return all
}

func (c *outputCheck) fail(rep int, why string) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf("repetition %d: %s", rep, why))
	}
}

func (c *outputCheck) failAll(why string) {
	c.failed = c.attempted
	c.problems = append(c.problems, why)
}

func (c *outputCheck) failedFrac() float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}
