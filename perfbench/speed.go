package main

import (
	"runtime"
	"syscall"
	"time"
)

// The end-to-end metrics are host times on a shared virtual machine, where
// the same code runs at different speeds from one minute to the next: the
// hypervisor gives part of each vCPU to other guests (steal), and the
// guests that share the host's caches and memory slow every access. Two
// things take that out of the metrics:
//
//   - Every timed phase is measured in the process's CPU time, which the
//     kernel accounts without the time stolen from it, alongside its wall
//     time. The report carries both.
//   - Between timed phases the benchmark runs speedKernel, a fixed piece of
//     work that does not touch the simulator, and scales each phase's CPU
//     time by speedNominal ÷ the kernel's CPU time around it (the median
//     of its four nearest runs). A phase that took 10% longer
//     because the host was 10% slower then reads the same; a phase that
//     took 10% longer because the simulator did more work reads 10% more.
//
// speedNominal is the kernel's CPU time on a 2-vCPU Intel Xeon VM (go1.24.0)
// while the host was quiet, so that a scaled time reads close to what that
// machine measures when nothing else loads it.
const speedNominal = 100 * time.Millisecond

// mark is the start of a timed phase.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func startTimer() mark { return mark{time.Now(), processCPU()} }

// elapsed is the length of a timed phase in wall and in process CPU time.
type elapsed struct {
	wall, cpu time.Duration
}

func (m mark) elapsed() elapsed {
	return elapsed{wall: time.Since(m.wall), cpu: processCPU() - m.cpu}
}

// processCPU is the CPU time the process has used, user and system, over
// all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speedKernel runs the fixed reference work and returns its CPU time. It
// loads the host the way the simulator does: a dependent pointer chase
// through a table larger than the caches (memory latency), set-associative
// lookups in a 1 MiB table (cache hits and branches), and Go map lookups,
// deletes and inserts (the runtime's map code). The tables are built and
// touched, and the heap collected, before the clock starts, and the timed
// part allocates nothing, so that neither page faults nor the collector
// put the workload's heap into the kernel's time. The tables are dropped
// after every run, so that they never count towards a workload's peak
// memory.
func speedKernel() time.Duration {
	runtime.GC() // the phase's garbage goes first, so the tables reuse its pages
	k := newKernel()
	runtime.GC()
	m := startTimer()
	sink := k.chase(1_000_000) + k.lookup(2_000_000) + k.churn(600_000)
	took := m.elapsed().cpu
	if sink == 1 { // never: keeps the work from being optimised away
		println()
	}
	return took
}

const (
	chaseSize = 1 << 20   // uint32 successors: 4 MiB
	setSize   = 128 << 10 // uint64 tags in 8-way sets: 1 MiB
	mapLimit  = 1 << 16   // keys held in the map
	mapKeys   = 1 << 17   // the key space the map's keys come from
)

type kernel struct {
	next []uint32
	sets []uint64
	m    map[uint64]uint64
	// held are the map's keys in the order they went in; the oldest
	// goes when a new one comes.
	held  []uint64
	first int
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newKernel() *kernel {
	k := &kernel{
		next: make([]uint32, chaseSize), sets: make([]uint64, setSize),
		m: make(map[uint64]uint64, mapLimit), held: make([]uint64, 0, mapLimit),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.next {
		x = xorshift(x)
		k.next[i] = uint32(x) & (chaseSize - 1)
	}
	for i := range k.sets {
		k.sets[i] = 1 << 63 // no tag: every tag is below 1<<21
	}
	for len(k.held) < mapLimit {
		x = xorshift(x)
		if _, ok := k.m[x%mapKeys]; !ok {
			k.m[x%mapKeys] = x
			k.held = append(k.held, x%mapKeys)
		}
	}
	return k
}

// chase follows n dependent links through the successor table.
func (k *kernel) chase(n int) uint64 {
	var j uint32
	for i := 0; i < n; i++ {
		j = k.next[j] ^ uint32(i&7)
	}
	return uint64(j)
}

// lookup looks n random tags up in the 8-way sets, filling a way on every
// miss.
func (k *kernel) lookup(n int) uint64 {
	sets := uint64(len(k.sets) / 8)
	x := uint64(88172645463325252)
	var hits uint64
	for i := 0; i < n; i++ {
		x = xorshift(x)
		tag := x & (1<<21 - 1)
		set := (tag * 0x9E3779B97F4A7C15 >> 40) % sets
		ways := k.sets[set*8 : set*8+8]
		hit := false
		for _, e := range ways {
			if e == tag {
				hit = true
				break
			}
		}
		if hit {
			hits++
		} else {
			ways[tag&7] = tag
		}
	}
	return hits
}

// churn looks n random keys up in the map; a key that is missing replaces
// the oldest one there, so the map keeps its size and never grows.
func (k *kernel) churn(n int) uint64 {
	x := uint64(0x2545F4914F6CDD1D)
	var sum uint64
	for i := 0; i < n; i++ {
		x = xorshift(x)
		key := x % mapKeys
		if v, ok := k.m[key]; ok {
			sum += v
			continue
		}
		delete(k.m, k.held[k.first])
		k.m[key] = x
		k.held[k.first] = key
		k.first = (k.first + 1) % mapLimit
	}
	return sum
}

// hostClock scales timed phases to the nominal host speed. It runs
// speedKernel once when it is made and once after every phase. A phase is
// scaled by the median of the kernel runs nearest it, two on each side,
// which follows the host's speed from one phase to the next while no single
// kernel run's noise moves the result much.
type hostClock struct {
	runs []time.Duration
}

// phase is a timed phase and the index of the kernel run just after it.
type phase struct {
	took  elapsed
	after int
}

func newHostClock() *hostClock {
	c := &hostClock{}
	c.runs = append(c.runs, speedKernel())
	return c
}

// record runs the kernel after a phase. Call it right after the phase,
// before anything else runs.
func (c *hostClock) record(e elapsed) phase {
	c.runs = append(c.runs, speedKernel())
	return phase{took: e, after: len(c.runs) - 1}
}

// scaled is the phase's CPU time at the nominal host speed.
func (c *hostClock) scaled(p phase) time.Duration {
	near := c.runs[max(0, p.after-2):min(len(c.runs), p.after+2)]
	var ms []float64
	for _, d := range near {
		ms = append(ms, float64(d))
	}
	return time.Duration(float64(p.took.cpu) * float64(speedNominal) / median(ms))
}

// kernelMillis are the kernel's runs in milliseconds, for the report.
func (c *hostClock) kernelMillis() []float64 {
	var ms []float64
	for _, d := range c.runs {
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return ms
}
