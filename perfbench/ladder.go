package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"mosaic"
	"mosaic/internal/cache"
	"mosaic/internal/core"
	"mosaic/internal/pagetable"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/vm"
)

// The traced run is the per-layer ladder. It captures the workload's
// reference stream once, then drives each layer's public functions over
// that stream, one layer at a time, with a span around every batch of
// calls:
//
//	workloads  RunBatches into a discarding sink
//	trace      BatchWriter / BatchReader
//	vm         System.Touch, Translate, CPFNFor in memsim's order
//	tlb        Vanilla / Mosaic Lookup; on a miss a page-table walk, Insert
//	pagetable  the session units' walks against memsim-shaped tables
//	cache      Hierarchy.Access on the physical addresses and walk paths
//	memsim     Simulator.ProcessBatch with and without an observer
//	sweep      public Figure6 on the stream at workers 1 and nproc
//
// Each rung's counts must equal the full simulator's on the same stream: a
// rung that disagrees measures a different program, and fails the run.

// ladderSpec is what the traced run needs from a workload.
type ladderSpec struct {
	// workload, footprint and maxRefs name the stream: the named
	// generator at that footprint, seeded by the run, cut at maxRefs.
	workload  string
	footprint uint64
	maxRefs   uint64
	// frames sizes the OS under every rung, as the end-to-end run sizes it.
	frames int
	// bothVMs: the end-to-end run simulates a Linux-like and a mosaic
	// system on the stream, so the vm counts and vm.ns_per_ref cover both.
	bothVMs bool
	// session: the end-to-end run is the sampled session simulator rather
	// than the Figure 6 points, so memsim.ns_per_ref measures that.
	session bool
	// loads lists the layers the end-to-end run does work in; the report
	// carries it. Every rung runs on every workload's stream, so the other
	// layers' metrics describe a stream that layer never sees end to end:
	// outside swap-btree, for one, the fault path's counts read 0.
	loads []string
	// endToEnd, when set, cross-checks the ladder against the workload's
	// own public entry point. Figure6, fig6-gups' entry point, is checked
	// by the sweep rung on every workload.
	endToEnd func(l *ladder) error
}

func (s ladderSpec) gen(seed uint64) (mosaic.Workload, error) {
	return mosaic.NewWorkload(s.workload, s.footprint, seed)
}

// figure6 is the public Figure6 over the spec's stream: the
// BenchmarkFigure6 TLB shape, sampling off.
func (s ladderSpec) figure6(seed uint64, workers int) mosaic.Figure6Options {
	return mosaic.Figure6Options{
		Workload: s.workload, FootprintBytes: s.footprint, MaxRefs: s.maxRefs,
		TLBEntries: tlbEntries, Ways: fig6Ways, Arities: fig6Arities,
		Seed: seed, Frames: s.frames, Workers: workers,
	}
}

func fig6Ladder(p params) ladderSpec {
	return ladderSpec{
		workload: "gups", footprint: p.size.Fig6Footprint, maxRefs: p.size.Fig6Refs,
		frames: fig6Frames(p.size),
		loads:  []string{"workloads", "vm", "tlb", "pagetable", "memsim", "sweep", "runtime"},
	}
}

func swapLadder(p params) ladderSpec {
	opt := table4Options(p)
	return ladderSpec{
		workload: "btree", footprint: swapFootprint(opt), maxRefs: opt.MaxRefs,
		frames:  swapFrames(opt),
		bothVMs: true,
		loads:   []string{"workloads", "vm", "vm.fault"},
		endToEnd: func(l *ladder) error {
			runtime.GC()
			id := l.rec.begin("table4", l.root)
			rows, err := mosaic.Table4(opt)
			l.rec.end(id)
			if err != nil {
				return err
			}
			got, err := table4Stats(rows)
			if err != nil {
				return err
			}
			l.agree("Table4 vs vm rung", stats{
				"linux.swap.io": l.vmStats["linux.swap.io"], "mosaic.swap.io": l.vmStats["mosaic.swap.io"],
			}, got, false)
			return nil
		},
	}
}

func replayLadder(p params) ladderSpec {
	return ladderSpec{
		workload: "graph500", footprint: p.size.ReplayFootprint, maxRefs: p.size.ReplayRefs,
		frames:  sessionFrames,
		session: true,
		loads:   []string{"trace", "vm", "tlb", "pagetable", "cache", "memsim", "obs"},
		endToEnd: func(l *ladder) error {
			// The end-to-end path decodes into the sampled session; it must
			// reproduce the ProcessBatch rung exactly.
			sim, err := newSession(p.seed, l.spec.frames, true)
			if err != nil {
				return err
			}
			runtime.GC()
			id := l.rec.begin("replay.end_to_end", l.root)
			br, err := trace.NewBatchReader(bytes.NewReader(l.encoded))
			if err == nil {
				_, err = br.ReplayBatches(sim)
			}
			l.rec.end(id)
			if err != nil {
				return err
			}
			l.agree("ReplayBatches vs sampled ProcessBatch rung", l.sampledStats, simStats(sim), false)
			return nil
		},
	}
}

// ladder is one traced run's state: the captured stream, the outputs one
// rung hands the next, and the consistency checks made so far.
type ladder struct {
	p        params
	spec     ladderSpec
	rec      *recorder
	root     int
	stream   trace.Batch
	encoded  []byte
	m        map[string]metric
	checks   int
	failed   int
	problems []string

	vt           vmTrace
	vmStats      stats
	tlbStats     map[string]tlb.Stats
	walks        map[string]*walkLog // the session units' walks
	cacheOut     map[string]*sessionCache
	sampledStats stats
}

// vmTrace is the vm rung's output: each reference's physical address and
// the page-table updates memsim makes, in stream order.
type vmTrace struct {
	pa     []uint64
	events []vmEvent
}

// vmEvent is an eviction (memsim clears the page-table entry and shoots
// the TLBs down) or a fault (memsim installs the new mapping). Evictions
// happen inside Touch, so they precede the same reference's fault.
type vmEvent struct {
	ref   int
	evict bool
	vpn   core.VPN
	pfn   core.PFN
	cpfn  core.CPFN
}

// walkLog is one TLB unit's walks: the reference each miss happened at,
// and the page-table entry addresses the walk read.
type walkLog struct {
	refs []int
	lens []int
	pas  []uint64
}

var sessionUnits = []string{
	unitName("Vanilla", sessionWays),
	unitName(fmt.Sprintf("Mosaic-%d", sessionArity), sessionWays),
}

func (l *ladder) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

func (l *ladder) check(ok bool, format string, args ...any) {
	l.checks++
	if !ok {
		l.failed++
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// agree records one consistency check: got must equal want (on the keys
// both have, when shared is set).
func (l *ladder) agree(what string, want, got stats, shared bool) {
	d := diff(want, got, shared)
	l.check(len(d) == 0, "%s: %s", what, strings.Join(d, "; "))
}

// rung runs body over the stream one batch at a time, a span around each
// batch, and returns the nanoseconds the batch spans cover.
func (l *ladder) rung(name string, body func(lo, hi int)) float64 {
	runtime.GC() // start each rung without the previous one's garbage
	id := l.rec.begin(name, l.root)
	for lo := 0; lo < len(l.stream); lo += trace.DefaultBatchSize {
		hi := min(lo+trace.DefaultBatchSize, len(l.stream))
		b := l.rec.begin(name+".batch", id)
		body(lo, hi)
		l.rec.end(b)
	}
	l.rec.end(id)
	return float64(l.rec.childNs(id))
}

type captureSink struct{ refs trace.Batch }

func (c *captureSink) ProcessBatch(b trace.Batch) { c.refs = append(c.refs, b...) }

type discardSink struct{}

func (discardSink) ProcessBatch(trace.Batch) {}

func runLadder(w workload, p params, spanDir string) (result, report, error) {
	l := &ladder{
		p: p, spec: w.ladder(p), rec: newRecorder(w.name), m: map[string]metric{},
		tlbStats: map[string]tlb.Stats{}, walks: map[string]*walkLog{},
	}
	rep := report{Workload: w.name, Seed: p.seed, Trace: true, Environment: readEnvironment(), Loads: l.spec.loads}
	l.root = l.rec.begin("ladder", 0)
	gen, err := l.spec.gen(p.seed)
	if err != nil {
		return result{}, rep, err
	}
	var capture captureSink
	id := l.rec.begin("capture", l.root)
	mosaic.RunBatch(gen, &capture, l.spec.maxRefs)
	l.rec.end(id)
	l.stream = capture.refs
	if len(l.stream) == 0 {
		return result{}, rep, errors.New("the workload produced no references")
	}
	steps := []func() error{
		l.workloadsRung, l.traceRung, l.vmRungs, l.tlbRungs, l.pagetableRung,
		l.cacheRung, l.memsimRungs, l.sweepRung,
	}
	if l.spec.endToEnd != nil {
		steps = append(steps, func() error { return l.spec.endToEnd(l) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, rep, err
		}
	}
	l.rec.end(l.root)
	rep.Spans = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", w.name, p.seed))
	if err := l.rec.write(rep.Spans); err != nil {
		return result{}, rep, err
	}
	rep.Problems = l.problems
	rep.FailedFrac = float64(l.failed) / float64(l.checks)
	return result{Correct: l.failed == 0, Attempted: l.checks, Failed: l.failed, Metrics: l.m}, rep, nil
}

// nsPer divides a rung's nanoseconds by the stream's references.
func (l *ladder) nsPer(ns float64) float64 { return ns / float64(len(l.stream)) }

func (l *ladder) workloadsRung() error {
	gen, err := l.spec.gen(l.p.seed)
	if err != nil {
		return err
	}
	runtime.GC()
	id := l.rec.begin("workloads.generate", l.root)
	n := mosaic.RunBatch(gen, discardSink{}, l.spec.maxRefs)
	l.rec.end(id)
	l.check(n == uint64(len(l.stream)), "workloads: generated %d references, captured %d", n, len(l.stream))
	writes := 0
	for _, r := range l.stream {
		if r.Write() {
			writes++
		}
	}
	l.set("workloads.gen_ns_per_ref", "ns", l.nsPer(float64(l.rec.dur(id))))
	l.set("workloads.refs", "count", float64(len(l.stream)))
	l.set("workloads.write_frac", "ratio", float64(writes)/float64(len(l.stream)))
	return nil
}

func (l *ladder) traceRung() error {
	var buf bytes.Buffer
	bw, err := trace.NewBatchWriter(&buf)
	if err != nil {
		return err
	}
	enc := l.rung("trace.encode", func(lo, hi int) { _ = bw.WriteBatch(l.stream[lo:hi]) }) // errors are sticky; Flush reports them
	if err := bw.Flush(); err != nil {
		return err
	}
	l.encoded = buf.Bytes()

	br, err := trace.NewBatchReader(bytes.NewReader(l.encoded))
	if err != nil {
		return err
	}
	dec := l.rec.begin("trace.decode", l.root)
	buf2 := make(trace.Batch, 0, trace.DefaultBatchSize)
	pos, same := 0, true
	for {
		b := l.rec.begin("trace.decode.batch", dec)
		got, err := br.ReadBatch(buf2)
		l.rec.end(b)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		same = same && pos+len(got) <= len(l.stream) && slices.Equal(got, l.stream[pos:pos+len(got)])
		pos += len(got)
		buf2 = got
	}
	l.rec.end(dec)
	l.check(same && pos == len(l.stream), "trace: decoded %d references, not the %d encoded", pos, len(l.stream))
	l.set("trace.encode_ns_per_ref", "ns", l.nsPer(enc))
	l.set("trace.decode_ns_per_ref", "ns", l.nsPer(float64(l.rec.childNs(dec))))
	l.set("trace.bytes_per_ref", "B", float64(len(l.encoded))/float64(len(l.stream)))
	return nil
}

// vmRungs drive a mosaic system the way memsim.step does, recording what
// the later rungs need, and a Linux-like system the way Table4 does.
func (l *ladder) vmRungs() error {
	mos, err := vm.New(vm.Config{Frames: l.spec.frames, Mode: vm.ModeMosaic, Seed: l.p.seed})
	if err != nil {
		return err
	}
	cur := 0
	mos.OnEvict(func(_ core.ASID, vpn core.VPN) {
		l.vt.events = append(l.vt.events, vmEvent{ref: cur, evict: true, vpn: vpn})
	})
	l.vt.pa = make([]uint64, len(l.stream))
	absent := 0
	mosNs := l.rung("vm.mosaic", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			va := l.stream[i].VA()
			vpn := core.VPNOf(va)
			cur = i
			hit := mos.Touch(asid, vpn, l.stream[i].Write()) == vm.Hit
			pfn, ok := mos.Translate(asid, vpn)
			if !hit {
				cpfn, cok := mos.CPFNFor(asid, vpn)
				ok = ok && cok
				l.vt.events = append(l.vt.events, vmEvent{ref: i, vpn: vpn, pfn: pfn, cpfn: cpfn})
			}
			if !ok {
				absent++
			}
			l.vt.pa[i] = uint64(pfn)*core.PageSize + core.PageOffset(va)
		}
	})
	l.check(absent == 0, "vm: %d references not resident right after Touch", absent)

	lin, err := vm.New(vm.Config{Frames: l.spec.frames, Mode: vm.ModeVanilla, Seed: l.p.seed})
	if err != nil {
		return err
	}
	linNs := l.rung("vm.linux", func(lo, hi int) {
		for _, r := range l.stream[lo:hi] {
			lin.Touch(asid, core.VPNOf(r.VA()), r.Write())
		}
	})

	l.vmStats = stats{}
	for k, v := range systemStats(mos) {
		l.vmStats["mosaic."+k] = v
	}
	for k, v := range systemStats(lin) {
		l.vmStats["linux."+k] = v
	}
	sum := func(k string) float64 {
		if l.spec.bothVMs {
			return float64(l.vmStats["mosaic."+k] + l.vmStats["linux."+k])
		}
		return float64(l.vmStats["mosaic."+k])
	}
	l.set("vm.mosaic.ns_per_ref", "ns", l.nsPer(mosNs))
	l.set("vm.linux.ns_per_ref", "ns", l.nsPer(linNs))
	if l.spec.bothVMs {
		l.set("vm.ns_per_ref", "ns", l.nsPer(mosNs+linNs)/2)
	} else {
		l.set("vm.ns_per_ref", "ns", l.nsPer(mosNs))
	}
	l.set("vm.fault.minor", "count", sum("fault.minor"))
	l.set("vm.fault.major", "count", sum("fault.major"))
	l.set("vm.evictions", "count", sum("evictions"))
	l.set("swap.io", "count", sum("swap.io"))
	return nil
}

func tagged(vpn core.VPN) core.VPN { return vpn | core.VPN(uint64(asid)<<40) } // memsim's PCID-style tag

// tlbRungs drive every Figure 6 unit alone over the stream. Each unit owns
// its page table and applies the vm rung's updates as memsim does.
func (l *ladder) tlbRungs() error {
	for _, ways := range fig6Ways {
		for _, spec := range fig6Specs(ways) {
			unit := unitName(spec.Label(), ways)
			var log *walkLog
			if slices.Contains(sessionUnits, unit) {
				log = &walkLog{}
				l.walks[unit] = log
			}
			st, ns := l.tlbRung(unit, spec, log)
			l.tlbStats[unit] = st
			l.set("tlb."+unit+".ns_per_ref", "ns", l.nsPer(ns))
			l.set("tlb."+unit+".hit_frac", "ratio", float64(st.Hits)/float64(st.Lookups()))
		}
	}
	return nil
}

func (l *ladder) tlbRung(unit string, spec mosaic.TLBSpec, log *walkLog) (tlb.Stats, float64) {
	alloc := pagetable.BumpAllocator(uint64(l.spec.frames) * core.PageSize)
	var (
		van  *tlb.Vanilla
		mos  *tlb.Mosaic
		vpt  *pagetable.Vanilla
		mpt  *pagetable.Mosaic
		path = make([]uint64, 0, 8)
		ev   = 0
		bad  = 0
	)
	if spec.Arity == 0 {
		van, vpt = tlb.NewVanilla(spec.Geometry), pagetable.NewVanilla(nil, alloc)
	} else {
		mos, mpt = tlb.NewMosaic(spec.Geometry, spec.Arity), pagetable.NewMosaic(spec.Arity, nil, alloc)
	}
	ns := l.rung("tlb."+unit, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ; ev < len(l.vt.events) && l.vt.events[ev].ref == i; ev++ {
				e := l.vt.events[ev]
				switch {
				case e.evict && van != nil:
					vpt.Unset(e.vpn)
					van.Invalidate(tagged(e.vpn))
				case e.evict:
					mpt.ClearCPFN(e.vpn)
					mos.InvalidateSub(tagged(e.vpn))
				case van != nil:
					vpt.Set(e.vpn, e.pfn)
				default:
					mpt.SetCPFN(e.vpn, e.cpfn)
				}
			}
			vpn := core.VPNOf(l.stream[i].VA())
			var ok bool
			if van != nil {
				if _, hit := van.Lookup(tagged(vpn)); hit {
					continue
				}
				var pfn core.PFN
				pfn, ok, path = vpt.Walk(vpn, path[:0])
				van.Insert(tagged(vpn), pfn)
			} else {
				if _, hit := mos.Lookup(tagged(vpn)); hit {
					continue
				}
				var toc []core.CPFN
				toc, ok, path = mpt.WalkToC(vpn, path[:0])
				mos.Insert(tagged(vpn), toc)
			}
			if !ok {
				bad++
			}
			if log != nil {
				log.refs = append(log.refs, i)
			}
		}
	})
	l.check(bad == 0, "tlb.%s: %d walks failed for resident pages", unit, bad)
	if van != nil {
		return van.Stats(), ns
	}
	return mos.Stats(), ns
}

// pagetableRung builds the page tables the way the session simulator does
// (one bump allocator, the vanilla table then the mosaic one, created at
// the first fault), so that walk addresses match memsim's, and walks for
// the session units at the references where they missed, logging the
// paths for the cache rung. It then times the logged walks again, a span
// per batch of walks, on the final tables: tables only gain entries and
// nodes, so a walk costs the same there.
func (l *ladder) pagetableRung() error {
	alloc := pagetable.BumpAllocator(uint64(l.spec.frames) * core.PageSize)
	var (
		vpt    *pagetable.Vanilla
		mpt    *pagetable.Mosaic
		ev     = 0
		next   = make([]int, len(sessionUnits))
		path   = make([]uint64, 0, 8)
		failed = 0
	)
	walk := func(u int, vpn core.VPN) (ok bool) {
		if u == 0 {
			_, ok, path = vpt.Walk(vpn, path[:0])
		} else {
			_, ok, path = mpt.WalkToC(vpn, path[:0])
		}
		return ok
	}
	l.rung("pagetable.replay", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ; ev < len(l.vt.events) && l.vt.events[ev].ref == i; ev++ {
				e := l.vt.events[ev]
				if e.evict {
					vpt.Unset(e.vpn)
					mpt.ClearCPFN(e.vpn)
					continue
				}
				if vpt == nil {
					vpt = pagetable.NewVanilla(nil, alloc)
				}
				vpt.Set(e.vpn, e.pfn)
				if mpt == nil {
					mpt = pagetable.NewMosaic(sessionArity, nil, alloc)
				}
				mpt.SetCPFN(e.vpn, e.cpfn)
			}
			for u, unit := range sessionUnits {
				log := l.walks[unit]
				if next[u] == len(log.refs) || log.refs[next[u]] != i {
					continue
				}
				next[u]++
				if !walk(u, core.VPNOf(l.stream[i].VA())) {
					failed++
				}
				log.lens = append(log.lens, len(path))
				log.pas = append(log.pas, path...)
			}
		}
	})
	l.check(failed == 0, "pagetable: %d walks failed for resident pages", failed)

	walks, refs := 0, 0
	id := l.rec.begin("pagetable.walk", l.root)
	for u, unit := range sessionUnits {
		log := l.walks[unit]
		for lo := 0; lo < len(log.refs); lo += trace.DefaultBatchSize {
			hi := min(lo+trace.DefaultBatchSize, len(log.refs))
			b := l.rec.begin("pagetable.walk.batch", id)
			for _, i := range log.refs[lo:hi] {
				walk(u, core.VPNOf(l.stream[i].VA()))
				refs += len(path)
			}
			l.rec.end(b)
			walks += hi - lo
		}
	}
	l.rec.end(id)
	l.set("pagetable.walks", "count", float64(walks))
	l.set("pagetable.walk_refs", "count", float64(refs))
	l.set("pagetable.walk_ns", "ns", float64(l.rec.childNs(id))/float64(max(walks, 1)))
	return nil
}

// walkCache replicates memsim's MMU page-walk cache model, which memsim
// keeps unexported: a fully-associative LRU over the addresses of
// upper-level page-table entries, at memsim's default of 32 entries. The
// cache rung needs it to feed each hierarchy memsim's walk traffic; the
// check of the cache rung against memsim's counters proves the replica.
type walkCache struct {
	entries []uint64 // entries[0] is the most recently used
}

const walkCacheEntries = 32

func (w *walkCache) lookupInsert(pa uint64) bool {
	for i, e := range w.entries {
		if e == pa {
			copy(w.entries[1:i+1], w.entries[:i])
			w.entries[0] = pa
			return true
		}
	}
	if len(w.entries) < walkCacheEntries {
		w.entries = append(w.entries, 0)
	}
	copy(w.entries[1:], w.entries[:len(w.entries)-1])
	w.entries[0] = pa
	return false
}

// sessionCache is one session unit's cache rung outcome.
type sessionCache struct {
	h                                 *cache.Hierarchy
	walks, walkRefs, walkCyc, pwcHits uint64
	pwcLookups                        uint64
}

// cacheRung drives a Table 1a hierarchy per session unit: for each
// reference, the unit's walk (filtered by the walk cache) and then the
// data access, as memsim orders them.
func (l *ladder) cacheRung() error {
	var total float64
	out := map[string]*sessionCache{}
	for _, unit := range sessionUnits {
		h, err := cache.NewHierarchy(0, cache.Table1a()...)
		if err != nil {
			return err
		}
		sc := &sessionCache{h: h}
		out[unit] = sc
		pwc := &walkCache{}
		log := l.walks[unit]
		k, off := 0, 0
		total += l.rung("cache."+unit, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if k < len(log.refs) && log.refs[k] == i {
					path := log.pas[off : off+log.lens[k]]
					off += log.lens[k]
					k++
					sc.walks++
					for _, pa := range path[:len(path)-1] {
						sc.pwcLookups++
						if pwc.lookupInsert(pa) {
							sc.pwcHits++
							continue
						}
						sc.walkRefs++
						sc.walkCyc += uint64(h.Access(pa, false))
					}
					sc.walkRefs++
					sc.walkCyc += uint64(h.Access(path[len(path)-1], false))
				}
				h.Access(l.vt.pa[i], l.stream[i].Write())
			}
		})
	}
	var accesses, cycles, pwcHits, pwcLookups uint64
	var hits, lookups [3]uint64
	for _, sc := range out {
		accesses += sc.h.Accesses()
		cycles += sc.h.TotalCycles()
		pwcHits += sc.pwcHits
		pwcLookups += sc.pwcLookups
		for i, lv := range sc.h.Levels() {
			hits[i] += lv.Stats().Hits
			lookups[i] += lv.Stats().Hits + lv.Stats().Misses
		}
	}
	l.cacheOut = out
	l.set("cache.ns_per_access", "ns", total/float64(accesses))
	for i, name := range []string{"l1d", "l2", "l3"} {
		l.set("cache."+name+".hit_frac", "ratio", float64(hits[i])/float64(max(lookups[i], 1)))
	}
	l.set("cache.amat_cycles", "cycles", float64(cycles)/float64(accesses))
	l.set("pwc.hit_frac", "ratio", float64(pwcHits)/float64(max(pwcLookups, 1)))
	return nil
}

// cacheRungStats renders the cache rung in simStats' keys.
func (l *ladder) cacheRungStats() stats {
	st := stats{}
	for unit, sc := range l.cacheOut {
		st[unit+".walks"] = sc.walks
		st[unit+".walk_refs"] = sc.walkRefs
		st[unit+".walk_cache_hits"] = sc.pwcHits
		st[unit+".walk_cycles"] = sc.walkCyc
		st[unit+".total_cycles"] = sc.h.TotalCycles()
		var levels []cache.Stats
		for _, lv := range sc.h.Levels() {
			levels = append(levels, lv.Stats())
		}
		st.addCache(unit, levels)
	}
	return st
}

// tlbRungStats renders the tlb rung in simStats' keys.
func (l *ladder) tlbRungStats() stats {
	st := stats{}
	for unit, t := range l.tlbStats {
		st.addTLB(unit, t)
		st[unit+".walks"] = t.Misses
	}
	for k, v := range l.vmStats {
		if rest, ok := strings.CutPrefix(k, "mosaic."); ok {
			st["os."+rest] = v
		}
	}
	return st
}

// processAll feeds the whole stream to sim, traced one span per batch
// when name is set.
func (l *ladder) processAll(sim *mosaic.Simulator, name string) float64 {
	if name != "" {
		return l.rung(name, func(lo, hi int) { sim.ProcessBatch(l.stream[lo:hi]) })
	}
	for lo := 0; lo < len(l.stream); lo += trace.DefaultBatchSize {
		sim.ProcessBatch(l.stream[lo:min(lo+trace.DefaultBatchSize, len(l.stream))])
	}
	return 0
}

// warm runs a throwaway simulator over the whole stream, so that code and
// memory are warm for the timed ones that follow.
func (l *ladder) warm(build func() (*mosaic.Simulator, error)) error {
	sim, err := build()
	if err != nil {
		return err
	}
	l.processAll(sim, "")
	return nil
}

// simRung times a fresh simulator over the whole stream, a span per
// batch, and checks it: its invariants hold and its counts equal every
// rung's above it that it shares keys with.
func (l *ladder) simRung(build func() (*mosaic.Simulator, error), name string) (stats, float64, error) {
	sim, err := build()
	if err != nil {
		return nil, 0, err
	}
	ns := l.processAll(sim, name)
	if err := checkSim(sim); err != nil {
		l.check(false, "%s invariants: %v", name, err)
	}
	st := simStats(sim)
	l.agree(name+" vs tlb and vm rungs", l.tlbRungStats(), st, true)
	return st, ns, nil
}

// sessionPairs is how many times the session runs without and then with
// its sampler, in alternating order; obs.sampler_ns_per_ref is the median
// of the paired differences.
const sessionPairs = 5

// memsimRungs run the full simulator on the stream: the Figure 6 points,
// and the session with and without its sampler. Every rung above must
// agree with them. The workload's own shape is then run once more without
// spans, to count what the simulator allocates.
func (l *ladder) memsimRungs() error {
	fig6Sim := func(ways int) func() (*mosaic.Simulator, error) {
		return func() (*mosaic.Simulator, error) {
			return mosaic.NewSimulator(mosaic.SimConfig{Frames: l.spec.frames, Specs: fig6Specs(ways), Seed: l.p.seed})
		}
	}
	session := func(sampled bool) func() (*mosaic.Simulator, error) {
		return func() (*mosaic.Simulator, error) { return newSession(l.p.seed, l.spec.frames, sampled) }
	}
	var fig6Ns float64
	for _, ways := range fig6Ways {
		if err := l.warm(fig6Sim(ways)); err != nil {
			return err
		}
		_, ns, err := l.simRung(fig6Sim(ways), fmt.Sprintf("memsim.fig6.w%d", ways))
		if err != nil {
			return err
		}
		fig6Ns += ns
	}

	for _, sampled := range []bool{false, true} {
		if err := l.warm(session(sampled)); err != nil {
			return err
		}
	}
	var sampledNs, samplerNs []float64
	for pair := range sessionPairs {
		l.rec.rep = pair + 1
		var ns [2]float64 // [unsampled, sampled]
		var st [2]stats
		order := []int{0, 1}
		if pair%2 == 1 {
			order = []int{1, 0}
		}
		for _, i := range order {
			name := "memsim.session"
			if i == 1 {
				name += ".sampled"
			}
			var err error
			if st[i], ns[i], err = l.simRung(session(i == 1), name); err != nil {
				return err
			}
			l.agree(name+" vs cache rung", l.cacheRungStats(), st[i], true)
		}
		l.agree("sampled vs unsampled session", st[0], st[1], false)
		if l.sampledStats == nil {
			l.sampledStats = st[1]
		} else {
			l.agree("sampled session vs its first run", l.sampledStats, st[1], false)
		}
		sampledNs = append(sampledNs, ns[1])
		samplerNs = append(samplerNs, ns[1]-ns[0])
	}
	l.rec.rep = 1
	l.set("obs.sampler_ns_per_ref", "ns", l.nsPer(median(samplerNs)))

	// memsim.ns_per_ref is the workload's own shape, traced.
	var builds []func() (*mosaic.Simulator, error)
	if l.spec.session {
		l.set("memsim.ns_per_ref", "ns", l.nsPer(median(sampledNs)))
		builds = append(builds, session(true))
	} else {
		l.set("memsim.ns_per_ref", "ns", l.nsPer(fig6Ns)/float64(len(fig6Ways)))
		for _, ways := range fig6Ways {
			builds = append(builds, fig6Sim(ways))
		}
	}
	// Each pass over the stream records a span per batch and one around
	// them; tracing.overhead_frac is their measured cost as a share of a
	// traced pass.
	batches := (len(l.stream) + trace.DefaultBatchSize - 1) / trace.DefaultBatchSize
	l.set("tracing.overhead_frac", "ratio", spanCostNs()*float64(batches+1)/(l.m["memsim.ns_per_ref"].Value*float64(len(l.stream))))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, build := range builds {
		sim, err := build()
		if err != nil {
			return err
		}
		l.processAll(sim, "")
	}
	runtime.ReadMemStats(&after)
	refs := float64(len(l.stream) * len(builds))
	l.set("runtime.alloc_bytes_per_ref", "B", float64(after.TotalAlloc-before.TotalAlloc)/refs)
	l.set("runtime.allocs_per_ref", "count", float64(after.Mallocs-before.Mallocs)/refs)
	l.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	return nil
}

// sweepRung runs the public Figure6 over the workload's stream at
// workers=1 and workers=nproc. Both must reproduce the tlb rung's counts;
// sweep.speedup is the ratio of their walls.
func (l *ladder) sweepRung() error {
	want := stats{}
	for unit, t := range l.tlbStats {
		want.addTLB(unit, t)
	}
	var walls []float64
	for _, workers := range []int{1, l.p.nproc} {
		runtime.GC()
		id := l.rec.begin(fmt.Sprintf("sweep.figure6.workers%d", workers), l.root)
		res, err := mosaic.Figure6(l.spec.figure6(l.p.seed, workers))
		l.rec.end(id)
		if err != nil {
			return err
		}
		walls = append(walls, float64(l.rec.dur(id)))
		l.agree(fmt.Sprintf("Figure6(workers=%d) vs tlb rung", workers), want, fig6CellStats(res), false)
	}
	l.set("sweep.speedup", "x", walls[0]/walls[1])
	return nil
}
