// Command perfbench is the repository's benchmark: host time per simulated
// reference on three workloads that load different layers of the
// simulator, with a separate traced run that times each layer from the
// outside. The end-to-end times are CPU times scaled to a nominal host
// speed (see speed.go).
//
// Run it from the root of the repository through its launcher, which builds
// it first:
//
//	bash perfbench/run.sh --workload fig6-gups --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the per-layer ladder and prints the per-layer metrics, writing its spans
// under .bench_build/spans. --workload all runs every workload, each in a
// process of its own so that peak memory is attributable. The last line of
// standard output is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it is a report with the environment, the
// samples behind each median and the simulated statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail behind a result.
type report struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Trace       bool              `json:"trace"`
	Environment environment       `json:"environment"`
	FailedFrac  float64           `json:"failed_frac"`
	Samples     map[string]sample `json:"samples,omitempty"`
	Problems    []string          `json:"problems,omitempty"`
	Stats       stats             `json:"stats,omitempty"`
	Spans       string            `json:"spans,omitempty"`
	Loads       []string          `json:"loads,omitempty"`
	SimRefs     uint64            `json:"sim_refs_per_rep,omitempty"`
}

// sample summarises the repeated measurements behind one median.
type sample struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
	// Tail is the highest of p90, p99 that has at least ten samples
	// beyond it; absent when there are too few samples.
	Tail map[string]float64 `json:"tail,omitempty"`
}

func summarize(v []float64) sample {
	s := sample{N: len(v), Values: v, Median: median(v)}
	sorted := slices.Sorted(slices.Values(v))
	for _, q := range []struct {
		name string
		p    float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(v))*(1-q.p) >= 10 {
			s.Tail = map[string]float64{q.name: sorted[int(q.p*float64(len(v)))]}
			break
		}
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fp, err := loadFingerprints()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig6-gups, swap-btree, replay-graph500, or all")
	seed := fs.Uint64("seed", fp.DefaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", fp.HeldOutSeed))
	seconds := fs.Float64("seconds", 10, "how long the timed phase repeats")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	p := params{seed: *seed, size: defaultSizes, nproc: runtime.NumCPU()}
	var fingerprint stats
	if p.seed == fp.DefaultSeed {
		fingerprint = fp.Workloads[w.name]
	}
	if err := execute(w, p, *traced == 1, *seconds, fingerprint, ".bench_build/spans", stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// execute runs one workload, untraced or traced, and prints its result.
func execute(w workload, p params, traced bool, seconds float64, fingerprint stats, spanDir string, stdout, stderr io.Writer) error {
	var res result
	var rep report
	var err error
	if traced {
		res, rep, err = runLadder(w, p, spanDir)
	} else {
		res, rep, err = runEndToEnd(w, p, seconds, fingerprint)
	}
	if err != nil {
		return err
	}
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(stderr, "%s %s = %.6g %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if !traced {
		// failed_frac is never a metric of the result line, whose metrics
		// must never read 0; attempted and failed carry it there.
		fmt.Fprintf(stderr, "%s failed_frac = %.6g ratio (%d of %d repetitions)\n",
			w.name, rep.FailedFrac, res.Failed, res.Attempted)
	}
	for _, pr := range rep.Problems {
		fmt.Fprintf(stderr, "%s: FAILED %s\n", w.name, pr)
	}
	return printResult(stdout, rep, res)
}

func printResult(out io.Writer, rep report, res result) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runAll runs every workload in a child process of its own, one after
// another, passing the other flags through.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "--workload", "-workload":
			i++
		case "--workload=all", "-workload=all":
		default:
			rest = append(rest, a)
		}
	}
	code := 0
	for _, w := range workloadList {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, rest...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// setupRuns is how many times the end-to-end run sets its workload up;
// setup_s is their median. The set-ups are spread over the run, one before
// the first repetition and the rest as its time passes, so that setup_s
// samples the same stretch of time as ns_per_ref. minReps is the fewest
// timed repetitions a run makes, however short its --seconds. Both
// metrics are CPU times scaled to the nominal host speed (see speed.go);
// the report carries their unscaled samples too.
const (
	setupRuns = 11
	minReps   = 3
)

func runEndToEnd(w workload, p params, seconds float64, fingerprint stats) (result, report, error) {
	rep := report{Workload: w.name, Seed: p.seed, Environment: readEnvironment(), Samples: map[string]sample{}}
	var inst instance
	debug.FreeOSMemory()
	clock := newHostClock()
	var setups, reps []phase
	// Every phase, set-up or repetition, starts from a collected heap with
	// its free pages returned to the system and with the peak of resident
	// memory restarted, so that neither its time nor its peak depends on
	// what ran before it. peak_rss_mib is the highest of the phases' peaks,
	// which leaves out the speed kernel's runs between them; where the
	// system cannot restart the peak, it is the whole process's.
	var setupPeaks, repPeaks []float64
	phasePeaks := true
	fresh := func() {
		debug.FreeOSMemory()
		phasePeaks = resetPeakRSS() && phasePeaks
	}
	peakOf := func() float64 {
		v, ok := phasePeakRSSMiB()
		phasePeaks = ok && phasePeaks
		return v
	}
	setUp := func() error {
		inst = nil // let the previous set-up's inputs go before building the next
		fresh()
		m := startTimer()
		next, err := w.setup(p)
		took := m.elapsed()
		peak := peakOf()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, clock.record(took))
		setupPeaks = append(setupPeaks, peak)
		inst = next
		return nil
	}

	var chk outputCheck
	start := time.Now()
	for chk.attempted < minReps || len(setups) < setupRuns || time.Since(start).Seconds() < seconds {
		if len(setups) < setupRuns && time.Since(start).Seconds() >= seconds*float64(len(setups))/setupRuns {
			if err := setUp(); err != nil {
				return result{}, rep, err
			}
		}
		fresh()
		took, st, err := inst.rep()
		peak := peakOf()
		if err == nil {
			reps = append(reps, clock.record(took))
			repPeaks = append(repPeaks, peak)
		}
		chk.observe(st, err)
	}
	peakRSS := peakRSSMiB() // the audit below is the benchmark's, not the workload's
	if phasePeaks {
		peakRSS = max(slices.Max(setupPeaks), slices.Max(repPeaks))
	}
	audit, auditErr := inst.audit()
	rep.Stats = chk.finish(audit, auditErr, fingerprint)
	refs := inst.simRefs()
	if len(reps) == 0 || refs == 0 {
		return result{}, rep, fmt.Errorf("no repetition completed: %v", chk.problems)
	}
	// times lists each phase's time in the given unit: scaled, CPU, wall.
	times := func(ps []phase, unit float64) (scaled, cpu, wall []float64) {
		for _, p := range ps {
			scaled = append(scaled, float64(clock.scaled(p))/unit)
			cpu = append(cpu, float64(p.took.cpu)/unit)
			wall = append(wall, float64(p.took.wall)/unit)
		}
		return scaled, cpu, wall
	}
	nsPerRef, repCPU, repWall := times(reps, float64(refs))
	setupS, setupCPU, setupWall := times(setups, float64(time.Second))
	for name, v := range map[string][]float64{
		"ns_per_ref": nsPerRef, "ns_per_ref.cpu": repCPU, "ns_per_ref.wall": repWall,
		"setup_s": setupS, "setup_s.cpu": setupCPU, "setup_s.wall": setupWall,
		"speed_kernel_ms":    clock.kernelMillis(),
		"peak_rss_mib.setup": setupPeaks, "peak_rss_mib.rep": repPeaks,
	} {
		rep.Samples[name] = summarize(v)
	}
	rep.FailedFrac = chk.failedFrac()
	rep.Problems = chk.problems
	rep.SimRefs = refs
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"ns_per_ref":   {median(nsPerRef), "ns"},
			"setup_s":      {median(setupS), "s"},
			"peak_rss_mib": {peakRSS, "MiB"},
		},
	}
	return res, rep, nil
}
