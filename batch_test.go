package mosaic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/trace"
)

// The batched replay engine's contract is byte-identical results: every
// counter, histogram bucket, sampler window, and event reference index must
// come out exactly as the scalar Access path produces them. These tests pin
// that contract by serializing the full results.File from a scalar replay
// and a batched replay of the same stream and comparing the JSON bytes.

// captureStream runs a workload to a Batch in memory.
func captureStream(t *testing.T, name string, footprint, maxRefs uint64) trace.Batch {
	t.Helper()
	w, err := NewWorkload(name, footprint, 7)
	if err != nil {
		t.Fatal(err)
	}
	var rec batchRecorder
	RunBatch(w, &rec, maxRefs)
	return rec.refs
}

// unevenBatches slices a stream into batches of cycling, boundary-hostile
// sizes (1, 3, and around DefaultBatchSize), so equivalence cannot depend
// on any particular batch granularity.
func unevenBatches(stream trace.Batch) []trace.Batch {
	sizes := []int{1, 3, trace.DefaultBatchSize - 1, trace.DefaultBatchSize, 17, 4095}
	var out []trace.Batch
	for i, k := 0, 0; i < len(stream); k++ {
		n := sizes[k%len(sizes)]
		if i+n > len(stream) {
			n = len(stream) - i
		}
		out = append(out, stream[i:i+n])
		i += n
	}
	return out
}

// resultsJSON serializes everything a driver publishes from a simulator:
// the finalized metrics snapshot, the sampler's series, and the event log.
func resultsJSON(t *testing.T, sim *Simulator, ob *obs.Observer) []byte {
	t.Helper()
	f := results.New("equivalence")
	f.AddSnapshot("", sim.FinalizeMetrics().Snapshot())
	if ob != nil {
		f.AddSampler("", sim.Sampler())
		f.AddEvents("equiv", ob.Events)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func equivSim(t *testing.T, ob *obs.Observer) *Simulator {
	t.Helper()
	sim, err := NewSimulator(SimConfig{
		Frames: 1 << 15,
		Specs: []TLBSpec{
			{Geometry: TLBGeometry{Entries: 256, Ways: 8}},
			{Geometry: TLBGeometry{Entries: 256, Ways: 8}, Arity: 4},
			{Geometry: TLBGeometry{Entries: 256, Ways: 8}, Coalesce: 8},
		},
		Seed: 3,
		Obs:  ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestBatchReplayMatchesScalarFig6 replays a fig6-style capture through
// Access and through ProcessBatch and requires byte-identical results
// files. The sampled variant exercises the observer/sampler fallback; the
// unsampled variant pins the tight batch loop.
func TestBatchReplayMatchesScalarFig6(t *testing.T) {
	stream := captureStream(t, "gups", 4<<20, 300_000)
	for _, sampled := range []bool{false, true} {
		var obScalar, obBatch *obs.Observer
		if sampled {
			obScalar = obs.NewObserver(1 << 12)
			obBatch = obs.NewObserver(1 << 12)
		}
		scalar := equivSim(t, obScalar)
		for _, r := range stream {
			scalar.Access(r.VA(), r.Write())
		}
		batch := equivSim(t, obBatch)
		for _, b := range unevenBatches(stream) {
			batch.ProcessBatch(b)
		}
		a, b := resultsJSON(t, scalar, obScalar), resultsJSON(t, batch, obBatch)
		if !bytes.Equal(a, b) {
			t.Errorf("sampled=%v: batched replay diverged from scalar replay:\n%s",
				sampled, firstDiff(a, b))
		}
	}
}

// TestBatchReplayMatchesScalarMultiprogram pins the multiprogram shared-run
// path: two captured streams interleaved in round-robin quanta, scalar
// AccessFrom versus the quantum-sliced batch replay.
func TestBatchReplayMatchesScalarMultiprogram(t *testing.T) {
	streams := []trace.Batch{
		captureStream(t, "gups", 2<<20, 150_000),
		captureStream(t, "kvstore", 2<<20, 150_000),
	}
	// Encode each stream as a v2 trace so the batch side replays exactly
	// what Multiprogram's shared run replays.
	encoded := make([][]byte, len(streams))
	for i, s := range streams {
		var buf bytes.Buffer
		w, err := trace.NewBatchWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBatch(s); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		encoded[i] = buf.Bytes()
	}
	const quantum = 5_000

	scalar := equivSim(t, nil)
	offs := make([]int, len(streams))
	for live := len(streams); live > 0; {
		live = 0
		for i, s := range streams {
			if offs[i] == len(s) {
				continue
			}
			n := quantum
			if len(s)-offs[i] < n {
				n = len(s) - offs[i]
			}
			for _, r := range s[offs[i] : offs[i]+n] {
				scalar.AccessFrom(ASID(i+1), r.VA(), r.Write())
			}
			offs[i] += n
			if offs[i] < len(s) {
				live++
			}
		}
	}

	batch := equivSim(t, nil)
	readers := make([]*quantumStream, len(encoded))
	for i, data := range encoded {
		r, err := trace.NewBatchReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = &quantumStream{r: r, buf: make(trace.Batch, 0, trace.DefaultBatchSize)}
	}
	for live := len(readers); live > 0; {
		live = 0
		for i, r := range readers {
			if r == nil {
				continue
			}
			done, err := r.replayQuantum(batch, ASID(i+1), quantum)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				readers[i] = nil
				continue
			}
			live++
		}
	}

	a, b := resultsJSON(t, scalar, nil), resultsJSON(t, batch, nil)
	if !bytes.Equal(a, b) {
		t.Errorf("multiprogram batched replay diverged from scalar replay:\n%s", firstDiff(a, b))
	}
}

// batchRecorder retains every delivered ref in order.
type batchRecorder struct{ refs trace.Batch }

func (r *batchRecorder) ProcessBatch(b trace.Batch) { r.refs = append(r.refs, b...) }

// TestRunLimitedCapsBatchSinks reproduces the over-delivery regression: a
// finite 3000-ref stream, shorter than one DefaultBatchSize batch, capped at
// 100 must deliver exactly 100 references to the BatchSink, not its whole
// first batch. The name predates RunLimited's removal; RunBatch is now the
// only capped path.
func TestRunLimitedCapsBatchSinks(t *testing.T) {
	var s batchCountSink
	if got := RunBatch(streamWorkload{n: 3000}, &s, 100); got != 100 {
		t.Errorf("RunBatch returned %d, want 100", got)
	}
	if s.n != 100 {
		t.Errorf("sink saw %d refs, want 100", s.n)
	}
}

// TestRunBatchTrimsTailToLimit pins the cap on finite streams: a stream
// longer than the cap delivers exactly maxRefs references, in order, whether
// the cap falls inside the stream's only batch or between later batch
// boundaries. A stream shorter than the cap delivers all of itself.
func TestRunBatchTrimsTailToLimit(t *testing.T) {
	for _, tc := range []struct{ n, max, want uint64 }{
		{3000, 100, 100},
		{50, 100, 50},
		{100, 100, 100},
		{10_000, trace.DefaultBatchSize + 904, trace.DefaultBatchSize + 904},
		{10_000, 2 * trace.DefaultBatchSize, 2 * trace.DefaultBatchSize},
	} {
		var rec batchRecorder
		if got := RunBatch(streamWorkload{n: tc.n}, &rec, tc.max); got != tc.want {
			t.Errorf("%d refs capped at %d: RunBatch returned %d, want %d", tc.n, tc.max, got, tc.want)
		}
		if uint64(len(rec.refs)) != tc.want {
			t.Errorf("%d refs capped at %d: sink saw %d refs, want %d", tc.n, tc.max, len(rec.refs), tc.want)
		}
		for i, r := range rec.refs {
			if r.VA() != uint64(i)*64 {
				t.Fatalf("%d refs capped at %d: ref %d out of order", tc.n, tc.max, i)
			}
		}
	}
}

// firstDiff renders the first line where two JSON blobs diverge.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: scalar %s vs batch %s", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}
