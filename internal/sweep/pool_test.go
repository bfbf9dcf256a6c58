package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolRunsJobs: everything admitted runs exactly once.
func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4, 16)
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		for {
			err := p.TrySubmit(func() { ran.Add(1) })
			if err == nil {
				break
			}
			if !errors.Is(err, ErrPoolSaturated) {
				t.Fatalf("TrySubmit: %v", err)
			}
		}
	}
	p.Drain()
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d jobs, want 20", got)
	}
}

// TestPoolSurvivesPanickingJob: a job that panics ends alone; the worker
// goes on to run every job queued behind it.
func TestPoolSurvivesPanickingJob(t *testing.T) {
	p := NewPool(1, 4)
	var ran atomic.Int64
	if err := p.TrySubmit(func() { panic("job exploded") }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.TrySubmit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d jobs after the panic, want 3", got)
	}
}

// TestPoolBackpressure: with one worker wedged and no queue beyond the
// worker slots, TrySubmit sheds load with ErrPoolSaturated instead of
// blocking.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(1, 0)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.TrySubmit(func() { close(started); <-block }); err != nil {
		t.Fatalf("first TrySubmit: %v", err)
	}
	<-started // the single worker is now wedged

	// One more job fits the single channel slot the worker freed; after
	// that the pool must refuse promptly.
	saturated := false
	for i := 0; i < 3; i++ {
		if err := p.TrySubmit(func() {}); errors.Is(err, ErrPoolSaturated) {
			saturated = true
			break
		}
	}
	if !saturated {
		t.Fatal("TrySubmit never reported saturation with a wedged worker")
	}
	close(block)
	p.Drain()
}

// TestPoolDrain: Drain refuses new work but finishes admitted jobs —
// including queued ones — before returning.
func TestPoolDrain(t *testing.T) {
	p := NewPool(1, 8)
	block := make(chan struct{})
	var ran atomic.Int64
	if err := p.TrySubmit(func() { <-block; ran.Add(1) }); err != nil {
		t.Fatalf("TrySubmit running job: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := p.TrySubmit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("TrySubmit queued job %d: %v", i, err)
		}
	}

	drained := make(chan struct{})
	go func() {
		p.Drain()
		close(drained)
	}()
	// Admissions stop once the drain flag flips; jobs that won the race
	// before it flipped were legitimately admitted and must still run.
	admitted := int64(5)
	for {
		err := p.TrySubmit(func() { ran.Add(1) })
		if errors.Is(err, ErrPoolDraining) {
			break
		}
		if err == nil {
			admitted++
		}
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still wedged")
	default:
	}
	close(block)
	<-drained
	if got := ran.Load(); got != admitted {
		t.Fatalf("drain finished %d jobs, want all %d admitted", got, admitted)
	}
}

// TestPoolDrainIdempotent: concurrent Drains all return, once.
func TestPoolDrainIdempotent(t *testing.T) {
	p := NewPool(2, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Drain()
		}()
	}
	wg.Wait()
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrPoolDraining) {
		t.Fatalf("TrySubmit after Drain = %v, want ErrPoolDraining", err)
	}
}
