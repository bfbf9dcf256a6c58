package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func smokeParams(seed uint64) params {
	return params{seed: seed, size: smokeSizes, nproc: runtime.NumCPU()}
}

// runSmoke runs one workload at the smoke size and parses the result line
// it prints last.
func runSmoke(t *testing.T, w workload, p params, traced bool, fingerprint stats) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := execute(w, p, traced, 0, fingerprint, t.TempDir(), &out, &errOut); err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", w.name, err)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload untraced and traced at a tiny size. Every
// metric printed must be named in BENCHMARK.json with the unit it carries
// there, every metric of the matching section must be printed, and the
// outputs must pass their checks: the repetitions agree, and each ladder
// rung agrees with the full simulator.
func TestSmoke(t *testing.T) {
	m := loadManifest(t)
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			units := map[string]string{}
			for _, mm := range want {
				units[mm.Name] = mm.Unit
			}
			res := runSmoke(t, w, smokeParams(1), traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for name, got := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w.name, name)
				}
				unit, ok := units[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: printed metric %q is not in BENCHMARK.json", w.name, traced, name)
				case got.Unit == "" || got.Unit != unit:
					t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				}
			}
			for name := range units {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: BENCHMARK.json metric %q was not printed", w.name, traced, name)
				}
			}
			if traced {
				checkLoads(t, w, res)
			}
		}
	}
}

// checkLoads holds a workload's layer list to what its traced run counted:
// the fault path does work exactly where the list names it, and every
// other listed layer that keeps a count counted something.
func checkLoads(t *testing.T, w workload, res result) {
	t.Helper()
	loads := w.ladder(smokeParams(1)).loads
	faults := slices.Contains(loads, "vm.fault")
	for _, name := range []string{"vm.fault.major", "vm.evictions", "swap.io"} {
		if got := res.Metrics[name].Value; (got > 0) != faults {
			t.Errorf("%s: %s = %v, but its layer list %v says the fault path does work: %v", w.name, name, got, loads, faults)
		}
	}
	work := map[string]string{
		"workloads": "workloads.refs", "trace": "trace.bytes_per_ref", "vm": "vm.fault.minor",
		"tlb": "tlb.vanilla.w8.hit_frac", "pagetable": "pagetable.walks", "cache": "cache.l1d.hit_frac",
		"runtime": "runtime.allocs_per_ref",
	}
	for _, layer := range loads {
		if name, ok := work[layer]; ok && res.Metrics[name].Value <= 0 {
			t.Errorf("%s loads %s, but %s = %v", w.name, layer, name, res.Metrics[name].Value)
		}
	}
}

// TestPerturbedStatisticFails proves the output check: a repetition whose
// statistics differ from the first repetition's counts as failed.
func TestPerturbedStatisticFails(t *testing.T) {
	w, _ := workloadByName("fig6-gups")
	inst, err := w.setup(smokeParams(1))
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := inst.rep()
	if err != nil {
		t.Fatal(err)
	}
	perturbed := maps.Clone(first)
	perturbed["vanilla.w8.misses"]++
	var c outputCheck
	c.observe(first, nil)
	c.observe(perturbed, nil)
	c.finish(nil, nil, nil)
	if c.failedFrac() <= 0 || c.failed != 1 {
		t.Fatalf("a perturbed statistic passed the check: failed %d of %d", c.failed, c.attempted)
	}
}

// TestFingerprintMismatchFails: on the default seed, statistics that differ
// from the recorded fingerprint fail every repetition.
func TestFingerprintMismatchFails(t *testing.T) {
	w, _ := workloadByName("replay-graph500")
	res := runSmoke(t, w, smokeParams(1), false, stats{"vanilla.w8.misses": 1})
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("a fingerprint mismatch passed the check: %+v", res)
	}
}

// TestFingerprintsNameEveryWorkload keeps the recorded fingerprints in step
// with the workload list.
func TestFingerprintsNameEveryWorkload(t *testing.T) {
	fp, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if fp.DefaultSeed == fp.HeldOutSeed {
		t.Fatalf("the held-out seed equals the default seed %d", fp.DefaultSeed)
	}
	for _, w := range workloadList {
		if len(fp.Workloads[w.name]) == 0 {
			t.Errorf("no fingerprint recorded for %s", w.name)
		}
	}
}

// TestHostClockScales checks the scaling of timed phases: a phase reads
// its CPU time times speedNominal over the median of the four kernel runs
// nearest it, so a host that runs the kernel twice as slowly halves it.
func TestHostClockScales(t *testing.T) {
	ms := time.Millisecond
	c := &hostClock{runs: []time.Duration{200 * ms, 200 * ms, 200 * ms, 900 * ms, 200 * ms}}
	p := phase{took: elapsed{cpu: 2 * time.Second}, after: 2}
	if got, want := c.scaled(p), time.Duration(float64(2*time.Second)*float64(speedNominal)/float64(200*ms)); got != want {
		t.Errorf("scaled = %v, want %v (one slow kernel run among four must not move it)", got, want)
	}
	if d := speedKernel(); d <= 0 {
		t.Errorf("speedKernel took %v of CPU time", d)
	}
}
