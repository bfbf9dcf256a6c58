package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"

	"mosaic"
	"mosaic/internal/invariant"
	"mosaic/internal/obs"
	"mosaic/internal/trace"
)

// The simulated configurations. fig6-gups is the BenchmarkFigure6* shape;
// replay-graph500 is the tracegen -replay / mosaicd session shape with the
// Table 1a caches and the walk cache on.
const (
	tlbEntries    = 256
	sessionWays   = 8
	sessionArity  = 4
	sessionFrames = 1 << 18 // tracegen -replay and mosaicd default
	sampleWindow  = 1 << 16 // mosaicd's default sampling window
	table4Frac    = 1.2
	asid          = 1 // the simulator's and Table 4's default address space
)

var (
	fig6Ways    = []int{1, 8, 256}
	fig6Arities = []int{4, 16, 64}
)

// sizes are the workload sizes. A fingerprint is recorded only for
// defaultSizes; the smoke test runs smokeSizes.
type sizes struct {
	Fig6Footprint   uint64
	Fig6Refs        uint64
	SwapPoolMiB     int
	SwapRefs        uint64
	ReplayFootprint uint64
	ReplayRefs      uint64
}

var (
	defaultSizes = sizes{
		Fig6Footprint: 8 << 20, Fig6Refs: 1_000_000,
		SwapPoolMiB: 8, SwapRefs: 4_000_000,
		ReplayFootprint: 8 << 20, ReplayRefs: 2_000_000,
	}
	smokeSizes = sizes{
		Fig6Footprint: 1 << 20, Fig6Refs: 50_000,
		SwapPoolMiB: 1, SwapRefs: 300_000,
		ReplayFootprint: 1 << 20, ReplayRefs: 50_000,
	}
)

// params are what one benchmark invocation was asked to do.
type params struct {
	seed  uint64
	size  sizes
	nproc int
}

// instance is one set-up workload, ready for timed repetitions.
type instance interface {
	// rep runs one repetition and returns the length of its timed phase
	// and its simulated statistics.
	rep() (elapsed, stats, error)
	// simRefs is the number of simulated references in one repetition.
	simRefs() uint64
	// audit rebuilds what the repetitions ran from the simulator's public
	// parts, checks its invariants, and returns its statistics, which
	// must agree with the repetitions' on every key both have.
	audit() (stats, error)
}

// workload names one benchmark workload. setup builds its inputs and runs
// a warm-up, everything the timed phase needs done first; ladder describes
// it to the traced run.
type workload struct {
	name   string
	setup  func(p params) (instance, error)
	ladder func(p params) ladderSpec
}

var workloadList = []workload{
	{"fig6-gups", setupFig6, fig6Ladder},
	{"swap-btree", setupSwap, swapLadder},
	{"replay-graph500", setupReplay, replayLadder},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unitName is a TLB unit's metric segment: "vanilla.w8", "mosaic-4.w8".
func unitName(label string, ways int) string {
	return fmt.Sprintf("%s.w%d", strings.ToLower(label), ways)
}

func fig6Specs(ways int) []mosaic.TLBSpec {
	g := mosaic.TLBGeometry{Entries: tlbEntries, Ways: ways}
	specs := []mosaic.TLBSpec{{Geometry: g}}
	for _, a := range fig6Arities {
		specs = append(specs, mosaic.TLBSpec{Geometry: g, Arity: a})
	}
	return specs
}

func fig6Frames(s sizes) int { return int(4 * s.Fig6Footprint / mosaic.PageSize) }

// --- fig6-gups: public Figure6 ---

type fig6Bench struct {
	opt  mosaic.Figure6Options
	refs uint64
}

// fig6Workers is the end-to-end run's sweep pool size. With one worker the
// wall of a repetition is the sum of its three points. With nproc workers on
// a small shared host it was the longest of whichever points met on one
// worker, a split that changed from repetition to repetition and spread
// repetitions of the same code over nearly a factor of two. The traced run's sweep
// rung measures the pool at nproc workers.
const fig6Workers = 1

func setupFig6(p params) (instance, error) {
	b := &fig6Bench{opt: fig6Ladder(p).figure6(p.seed, fig6Workers)}
	warm := b.opt
	warm.MaxRefs /= 4
	if _, err := mosaic.Figure6(warm); err != nil {
		return nil, err
	}
	return b, nil
}

func fig6CellStats(res mosaic.Figure6Result) stats {
	st := stats{}
	for _, c := range res.Cells {
		st.addTLB(unitName(c.Label, c.Ways), c.Stats)
	}
	return st
}

func (b *fig6Bench) rep() (elapsed, stats, error) {
	m := startTimer()
	res, err := mosaic.Figure6(b.opt)
	took := m.elapsed()
	if err != nil {
		return elapsed{}, nil, err
	}
	b.refs = res.Refs * uint64(len(b.opt.Ways))
	return took, fig6CellStats(res), nil
}

func (b *fig6Bench) simRefs() uint64 { return b.refs }

// audit replays each associativity point the way Figure6 builds it, then
// checks the simulator's invariants, which Figure6 does not expose.
func (b *fig6Bench) audit() (stats, error) {
	st := stats{}
	for _, ways := range b.opt.Ways {
		sim, err := mosaic.NewSimulator(mosaic.SimConfig{Frames: b.opt.Frames, Specs: fig6Specs(ways), Seed: b.opt.Seed})
		if err != nil {
			return nil, err
		}
		w, err := mosaic.NewWorkload(b.opt.Workload, b.opt.FootprintBytes, b.opt.Seed)
		if err != nil {
			return nil, err
		}
		mosaic.RunBatch(w, sim, b.opt.MaxRefs)
		if err := checkSim(sim); err != nil {
			return nil, fmt.Errorf("fig6 w%d: %w", ways, err)
		}
		for k, v := range simStats(sim) {
			st[k] = v
		}
	}
	return st, nil
}

// --- swap-btree: public Table4 ---

type swapBench struct {
	opt  mosaic.Table4Options
	refs uint64
}

func table4Options(p params) mosaic.Table4Options {
	return mosaic.Table4Options{
		Workloads: []string{"btree"}, MemoryMiB: p.size.SwapPoolMiB,
		FootprintFracs: []float64{table4Frac}, MaxRefs: p.size.SwapRefs,
		Runs: 1, Seed: p.seed, Workers: p.nproc,
	}
}

// swapFootprint and swapFrames size the cell exactly as Table4 does.
func swapFootprint(o mosaic.Table4Options) uint64 {
	return uint64(o.FootprintFracs[0] * float64(o.MemoryMiB) * (1 << 20))
}

func swapFrames(o mosaic.Table4Options) int { return o.MemoryMiB << 20 / mosaic.PageSize }

func setupSwap(p params) (instance, error) {
	b := &swapBench{opt: table4Options(p)}
	warm := b.opt
	warm.MaxRefs /= 4
	if _, err := mosaic.Table4(warm); err != nil {
		return nil, err
	}
	return b, nil
}

func table4Stats(rows []mosaic.Table4Row) (stats, error) {
	if len(rows) != 1 {
		return nil, fmt.Errorf("Table4 returned %d rows, want 1", len(rows))
	}
	return stats{
		"linux.swap.io":  uint64(math.Round(rows[0].LinuxKPages * 1000)),
		"mosaic.swap.io": uint64(math.Round(rows[0].MosaicKPages * 1000)),
	}, nil
}

func (b *swapBench) rep() (elapsed, stats, error) {
	m := startTimer()
	rows, err := mosaic.Table4(b.opt)
	took := m.elapsed()
	if err != nil {
		return elapsed{}, nil, err
	}
	st, err := table4Stats(rows)
	return took, st, err
}

// simRefs counts both systems' references; the count is known once the
// audit has replayed the cell.
func (b *swapBench) simRefs() uint64 { return 2 * b.refs }

// touchSink drives a vm.System the way Table4 does: one TouchVA per
// reference from the default address space.
type touchSink struct{ sys *mosaic.System }

func (s touchSink) ProcessBatch(b trace.Batch) {
	for _, r := range b {
		s.sys.TouchVA(asid, r.VA(), r.Write())
	}
}

// audit replays the cell under both systems through the public System and
// checks each system's invariants.
func (b *swapBench) audit() (stats, error) {
	st := stats{}
	for _, sysMode := range []struct {
		name string
		mode mosaic.Mode
	}{{"linux", mosaic.ModeVanilla}, {"mosaic", mosaic.ModeMosaic}} {
		sys, err := mosaic.NewSystem(mosaic.SystemConfig{Frames: swapFrames(b.opt), Mode: sysMode.mode, Seed: b.opt.Seed})
		if err != nil {
			return nil, err
		}
		w, err := mosaic.NewWorkload("btree", swapFootprint(b.opt), b.opt.Seed)
		if err != nil {
			return nil, err
		}
		b.refs = mosaic.RunBatch(w, touchSink{sys}, b.opt.MaxRefs)
		var r invariant.Report
		sys.CheckInvariants(&r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%s system: %w", sysMode.name, err)
		}
		for k, v := range systemStats(sys) {
			st[sysMode.name+"."+k] = v
		}
	}
	st["refs"] = b.refs
	return st, nil
}

// --- replay-graph500: v2 decode into a mosaicd-shaped session ---

type replayBench struct {
	data []byte
	seed uint64
	refs uint64
}

// newSession builds the tracegen -replay / mosaicd session simulator: one
// vanilla and one Mosaic-4 unit, 256 entries, 8-way, with the Table 1a
// caches and the walk cache on, sampled at mosaicd's default window when
// sampled is set.
func newSession(seed uint64, frames int, sampled bool) (*mosaic.Simulator, error) {
	var ob *obs.Observer
	if sampled {
		ob = obs.NewObserver(sampleWindow)
	}
	g := mosaic.TLBGeometry{Entries: tlbEntries, Ways: sessionWays}
	return mosaic.NewSimulator(mosaic.SimConfig{
		Frames:          frames,
		Specs:           []mosaic.TLBSpec{{Geometry: g}, {Geometry: g, Arity: sessionArity}},
		EnableCaches:    true,
		EnableWalkCache: true,
		Seed:            seed,
		Obs:             ob,
	})
}

// encodeGraph500 captures a graph500 stream and v2-encodes it in memory.
func encodeGraph500(p params) ([]byte, error) {
	w, err := mosaic.NewWorkload("graph500", p.size.ReplayFootprint, p.seed)
	if err != nil {
		return nil, err
	}
	// Sized once for graph500's ~2.4 B/ref: a buffer that regrows leaves
	// each old copy as garbage, and how much of it is resident when the
	// peak is read would depend on when the collector ran.
	var buf bytes.Buffer
	buf.Grow(int(4 * p.size.ReplayRefs))
	bw, err := trace.NewBatchWriter(&buf)
	if err != nil {
		return nil, err
	}
	mosaic.RunBatch(w, bw, p.size.ReplayRefs)
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func setupReplay(p params) (instance, error) {
	data, err := encodeGraph500(p)
	if err != nil {
		return nil, err
	}
	// The generator's garbage goes before the warm-up, so that the set-up's
	// peak memory does not depend on whether the collector ran in between.
	runtime.GC()
	b := &replayBench{data: data, seed: p.seed}
	if _, _, err := b.rep(); err != nil { // warm-up
		return nil, err
	}
	return b, nil
}

func (b *replayBench) rep() (elapsed, stats, error) {
	sim, err := newSession(b.seed, sessionFrames, true)
	if err != nil {
		return elapsed{}, nil, err
	}
	m := startTimer()
	br, err := trace.NewBatchReader(bytes.NewReader(b.data))
	if err != nil {
		return elapsed{}, nil, err
	}
	n, err := br.ReplayBatches(sim)
	took := m.elapsed()
	if err != nil {
		return elapsed{}, nil, err
	}
	b.refs = n
	if err := checkSim(sim); err != nil {
		return elapsed{}, nil, err
	}
	st := simStats(sim)
	st["sampler.points"] = uint64(sim.Sampler().Points())
	return took, st, nil
}

func (b *replayBench) simRefs() uint64 { return b.refs }

// audit has nothing to add: every repetition checks its own simulator.
func (b *replayBench) audit() (stats, error) { return stats{}, nil }

// --- statistics of the simulator's public parts ---

// checkSim runs the simulator's invariant checkers and checks that every
// unit walked once per miss.
func checkSim(sim *mosaic.Simulator) error {
	var r invariant.Report
	sim.CheckInvariants(&r)
	for _, res := range sim.Results() {
		r.Checkf(res.Walks == res.TLB.Misses, "perfbench.walks-per-miss",
			"%s: %d walks for %d misses", res.Spec.Label(), res.Walks, res.TLB.Misses)
	}
	return r.Err()
}

// simStats collects every unit's TLB, walk and cache counters and the OS
// counters.
func simStats(sim *mosaic.Simulator) stats {
	st := stats{}
	for _, r := range sim.Results() {
		u := unitName(r.Spec.Label(), r.Spec.Geometry.Ways)
		st.addTLB(u, r.TLB)
		st[u+".walks"] = r.Walks
		st[u+".walk_refs"] = r.WalkAccesses
		if r.CacheStats != nil {
			st[u+".walk_cache_hits"] = r.WalkCacheHits
			st[u+".total_cycles"] = r.TotalCycles
			st[u+".walk_cycles"] = r.WalkCycles
			st.addCache(u, r.CacheStats)
		}
	}
	for k, v := range systemStats(sim.OS()) {
		st["os."+k] = v
	}
	return st
}

func systemStats(sys *mosaic.System) stats {
	m := sys.Metrics()
	return stats{
		"fault.minor": m.CounterValue("vm.fault.minor"),
		"fault.major": m.CounterValue("vm.fault.major"),
		"evictions":   m.CounterValue("vm.evict"),
		"swap.io":     sys.Device().TotalIO(),
	}
}
