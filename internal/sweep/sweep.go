// Package sweep is the deterministic fan-out engine behind every
// experiment driver: a sweep is a list of independent, seed-deterministic
// points (one simulation each — a fresh workload and simulator per point,
// by design, so reference streams replay identically), and Run executes
// them on a bounded worker pool while keeping the output indistinguishable
// from a sequential run.
//
// Determinism rests on three properties:
//
//  1. Points share no state. Each point constructs its own simulator and
//     workload from its own seed; the engine never passes anything between
//     points.
//  2. Results are collected in submission-index order, not completion
//     order. out[i] is always point i's result, so folds over the result
//     slice see exactly the sequence the sequential loop produced.
//  3. Errors are deterministic too: when points fail, Run returns the
//     error of the lowest-indexed failing point — the same error the
//     sequential loop would have stopped on — regardless of which worker
//     noticed a failure first. A point that panics fails with a
//     *PanicError instead of taking the process down.
//
// Workers=1 is the exact legacy path: points run in order on the calling
// goroutine with no pool, no channels, and no extra synchronization.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"mosaic/internal/obs"
)

// Options configures one Run.
type Options struct {
	// Workers bounds the worker pool. 0 means runtime.GOMAXPROCS(0);
	// 1 runs every point in order on the calling goroutine (the exact
	// sequential path); values above the point count are clamped.
	Workers int
	// Progress, when non-nil, receives a monotonic "point k/n done" line
	// as points complete. Nil-safe (the no-terminal case).
	Progress *obs.Progress
	// Name labels the progress line ("fig6 graph500").
	Name string
	// Obs, when non-nil, is sealed once every point has completed: workers
	// contribute per-point snapshots with Put during the run, and sealing
	// fixes the index-ordered merge so later Merged calls are cheap and
	// late Puts are caught as programming errors.
	Obs *Merger
}

// workers resolves the pool size for n points.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes fn over every point on a bounded worker pool and returns
// the results in submission-index order: out[i] = fn(ctx, i, points[i]).
// The first point error (lowest index) cancels the sweep's context so
// in-flight points can abort early and unstarted points never run; Run
// returns that error after all started points have settled. A canceled
// parent context is returned as its ctx.Err().
func Run[P, R any](ctx context.Context, points []P, fn func(ctx context.Context, i int, p P) (R, error), opt Options) ([]R, error) {
	n := len(points)
	out := make([]R, n)
	if n == 0 {
		opt.Obs.seal()
		return out, nil
	}
	counter := opt.Progress.StartCount(opt.Name, n)

	if opt.workers(n) == 1 {
		for i, p := range points {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := call(ctx, fn, i, p)
			if err != nil {
				return nil, err
			}
			out[i] = r
			counter.Step()
		}
		opt.Obs.seal()
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r, err := call(ctx, fn, i, points[i])
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = r
				counter.Step()
			}
		}()
	}
	wg.Wait()
	// Lowest-indexed error wins, so the reported failure matches what the
	// sequential loop would have returned no matter which worker lost the
	// race to cancel.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt.Obs.seal()
	return out, nil
}

// PanicError is a recovered panic, returned as the error of the point (or
// pool job) that raised it.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v\n\n%s", e.Value, e.Stack) }

// Catch runs fn and returns its panic, if any.
func Catch(fn func()) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// call runs one point; a panic becomes the point's error.
func call[P, R any](ctx context.Context, fn func(context.Context, int, P) (R, error), i int, p P) (r R, err error) {
	if pe := Catch(func() { r, err = fn(ctx, i, p) }); pe != nil {
		return r, fmt.Errorf("sweep: point %d: %w", i, pe)
	}
	return r, err
}

// Merger accumulates per-point obs.Snapshots from concurrent workers and
// merges them in point-index order. Index ordering matters: counter and
// histogram merges commute, but gauge merges are last-writer-wins, so only
// an index-ordered fold reproduces what a sequential sweep's single
// registry would have held.
type Merger struct {
	mu     sync.Mutex
	snaps  []indexedSnap
	sealed bool
	merged obs.Snapshot
}

type indexedSnap struct {
	index int
	snap  obs.Snapshot
}

// NewMerger creates an empty Merger.
func NewMerger() *Merger { return &Merger{} }

// Put contributes point i's snapshot. Safe for concurrent use; nil-safe.
// It panics after the owning Run has completed — a snapshot arriving late
// would be silently dropped from the merge, which is a programming error.
func (m *Merger) Put(i int, s obs.Snapshot) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		panic("sweep: Merger.Put after the sweep completed")
	}
	m.snaps = append(m.snaps, indexedSnap{index: i, snap: s})
}

// seal fixes the index-ordered merge; nil-safe, idempotent.
func (m *Merger) seal() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		return
	}
	m.sealed = true
	m.merged = m.mergeLocked()
}

// Merged returns the index-ordered merge of every contributed snapshot.
// Before the sweep completes it merges on the fly; afterwards it returns
// the sealed result.
func (m *Merger) Merged() obs.Snapshot {
	if m == nil {
		return obs.Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		return m.merged
	}
	return m.mergeLocked()
}

// Len is the number of contributed snapshots; nil-safe.
func (m *Merger) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.snaps)
}

func (m *Merger) mergeLocked() obs.Snapshot {
	ordered := make([]indexedSnap, len(m.snaps))
	copy(ordered, m.snaps)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].index < ordered[b].index })
	out := obs.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
	for _, is := range ordered {
		out = out.Merge(is.snap)
	}
	return out
}
