package mosaic

// One benchmark per table/figure of the paper's evaluation, at
// benchmark-friendly scale. The cmd/ binaries regenerate the full tables;
// these benches keep the whole pipeline exercised under `go test -bench=.`
// and report the headline quantity of each experiment as a custom metric.
//
//	Figure 6  → BenchmarkFigure6* (TLB misses, vanilla vs mosaic)
//	Table 3   → BenchmarkTable3 (first-conflict utilization)
//	Table 4   → BenchmarkTable4 (swap I/O, Linux vs mosaic)
//	Table 5   → BenchmarkTable5 (circuit synthesis model)
//	§4.2 δ    → BenchmarkIcebergDelta
//	Ablations → BenchmarkAblate*
//
// Microbenchmarks of the substrates (hash throughput, TLB lookup latency,
// allocator placement, …) live in their internal packages and run under
// `go test -bench=. ./...`.

import (
	"bytes"
	"testing"

	"mosaic/internal/trace"
)

func benchFigure6(b *testing.B, workload string) {
	b.Helper()
	benchFigure6Workers(b, workload, 0)
}

func benchFigure6Workers(b *testing.B, workload string, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Figure6(Figure6Options{
			Workload:       workload,
			FootprintBytes: 8 << 20,
			MaxRefs:        1_000_000,
			TLBEntries:     256,
			Ways:           []int{1, 8, 256},
			Arities:        []int{4, 16, 64},
			Seed:           1,
			Workers:        workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			v, _ := res.MissesFor(8, "Vanilla")
			m, _ := res.MissesFor(8, "Mosaic-4")
			b.ReportMetric(float64(v), "vanilla-misses")
			b.ReportMetric(float64(m), "mosaic4-misses")
			if v > 0 {
				b.ReportMetric(100*(1-float64(m)/float64(v)), "reduction-%")
			}
		}
	}
}

func BenchmarkFigure6Graph500(b *testing.B) { benchFigure6(b, "graph500") }
func BenchmarkFigure6BTree(b *testing.B)    { benchFigure6(b, "btree") }
func BenchmarkFigure6GUPS(b *testing.B)     { benchFigure6(b, "gups") }
func BenchmarkFigure6XSBench(b *testing.B)  { benchFigure6(b, "xsbench") }

// The sequential/parallel pair measures the sweep engine's wall-clock win
// on an identical workload; results are bit-identical by construction.
func BenchmarkFigure6Sequential(b *testing.B) { benchFigure6Workers(b, "gups", 1) }
func BenchmarkFigure6Parallel(b *testing.B)   { benchFigure6Workers(b, "gups", 4) }

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table3(Table3Options{
			Workloads:      []string{"btree"},
			MemoryMiB:      8,
			FootprintFracs: []float64{1.05},
			Runs:           1,
			MaxRefs:        4_000_000,
			Seed:           uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].FirstConflict*100, "first-conflict-%")
			b.ReportMetric(rows[0].Steady*100, "steady-%")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table4(Table4Options{
			Workloads:      []string{"btree"},
			MemoryMiB:      8,
			FootprintFracs: []float64{1.2},
			MaxRefs:        4_000_000,
			Runs:           1,
			Seed:           uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].LinuxKPages, "linux-kIO")
			b.ReportMetric(rows[0].MosaicKPages, "mosaic-kIO")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table5()
		asic := Table5ASIC()
		if i == b.N-1 {
			b.ReportMetric(float64(rows[3].LUTs), "H8-LUTs")
			b.ReportMetric(rows[3].LatencyNs, "H8-latency-ns")
			b.ReportMetric(asic[3].AreaKGE, "H8-area-KGE")
		}
	}
}

func BenchmarkIcebergDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := IcebergDelta(IcebergDeltaOptions{Slots: 1 << 14, Trials: 2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Mean*100, "load-at-conflict-%")
		}
	}
}

func BenchmarkAblateChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateChoices([]int{1, 6}, 1<<13, 1, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].FirstConflict*100, "d1-%")
			b.ReportMetric(rows[1].FirstConflict*100, "d6-%")
		}
	}
}

func BenchmarkAblateEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateEviction("btree", 8, []float64{1.15}, 3_000_000, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].HorizonKIO, "horizon-kIO")
			b.ReportMetric(rows[0].NaiveKIO, "naive-kIO")
		}
	}
}

// BenchmarkAccessPipeline measures the simulator's per-reference cost —
// the number that determines how much workload the harness can replay.
func BenchmarkAccessPipeline(b *testing.B) {
	sim, err := NewSimulator(SimConfig{
		Frames: 1 << 16,
		Specs: []TLBSpec{
			{Geometry: TLBGeometry{Entries: 1024, Ways: 8}},
			{Geometry: TLBGeometry{Entries: 1024, Ways: 8}, Arity: 4},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Access(0x10000000+uint64(i%8_000_000)*64, false)
	}
}

func BenchmarkFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Fragmentation(FragmentationOptions{Frames: 1 << 13, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].HugeBackedPct, "fresh-huge-%")
			b.ReportMetric(rows[len(rows)-1].HugeBackedPct, "worst-huge-%")
			b.ReportMetric(rows[len(rows)-1].MosaicBackedPct, "worst-mosaic-%")
		}
	}
}

func BenchmarkMultiprogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := Multiprogram(MultiprogramOptions{
			Workloads:      []string{"gups", "kvstore"},
			FootprintBytes: 4 << 20,
			MaxRefsPerProc: 300_000,
			Seed:           uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res {
				if r.Label == "Mosaic-4" {
					b.ReportMetric(r.InterferencePct, "mosaic4-interference-%")
				}
			}
		}
	}
}

// streamWorkload emits a fixed number of sequential references in whole
// batches — the cheapest possible workload, so the harness benchmarks
// measure RunBatch's dispatch cost rather than workload logic.
type streamWorkload struct{ n uint64 }

func (s streamWorkload) Name() string           { return "stream" }
func (s streamWorkload) FootprintBytes() uint64 { return s.n * 64 }
func (s streamWorkload) RunBatches(sink trace.BatchSink) {
	buf := make(trace.Batch, trace.DefaultBatchSize)
	for i := uint64(0); i < s.n; {
		b := buf
		if left := s.n - i; left < uint64(len(b)) {
			b = b[:left]
		}
		for j := range b {
			b[j] = trace.MakeRef((i+uint64(j))*64, false)
		}
		i += uint64(len(b))
		sink.ProcessBatch(b)
	}
}

// batchCountSink is the minimal terminal sink: one interface call and one
// length add per batch.
type batchCountSink struct{ n uint64 }

func (s *batchCountSink) ProcessBatch(b trace.Batch) { s.n += uint64(len(b)) }

// The Harness benchmarks drive a counting sink with no simulator behind it:
// their Mrefs/s is harness throughput, never simulator throughput.
// BenchmarkHarnessRunBatch is RunBatch's dispatch cost.
func BenchmarkHarnessRunBatch(b *testing.B) {
	w := streamWorkload{n: 1 << 21}
	var s batchCountSink
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := RunBatch(w, &s, 1<<20); got != 1<<20 {
			b.Fatalf("delivered %d refs, want %d", got, 1<<20)
		}
	}
	b.ReportMetric(float64(1<<20)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkHarnessGenerateGUPS measures workload generation alone: GUPS
// emitting into a counting sink. Set against BenchmarkHarnessRunBatch's
// replay dispatch rate, it answers whether generation or simulation bounds
// a sweep.
func BenchmarkHarnessGenerateGUPS(b *testing.B) {
	const refs = 1 << 20
	w, err := NewWorkload("gups", 8<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	var s batchCountSink
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := RunBatch(w, &s, refs); got != refs {
			b.Fatalf("delivered %d refs, want %d", got, refs)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkBatchDecode measures v2 frame decoding alone — the trace-replay
// bound when the simulator is out of the picture.
func BenchmarkBatchDecode(b *testing.B) {
	var buf bytes.Buffer
	bw, err := trace.NewBatchWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	const refs = 1 << 20
	batch := make(trace.Batch, trace.DefaultBatchSize)
	for off := 0; off < refs; off += len(batch) {
		for i := range batch {
			batch[i] = trace.MakeRef(uint64(off+i)*64, i%7 == 0)
		}
		if err := bw.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.NewBatchReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		var s batchCountSink
		n, err := r.ReplayBatches(&s)
		if err != nil {
			b.Fatal(err)
		}
		if n != refs {
			b.Fatalf("decoded %d refs, want %d", n, refs)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

func BenchmarkAblateTimestamps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := AblateTimestamps("btree", 8, 1.15, []uint64{0, 4096}, 2_000_000, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].MosaicKIO, "exact-kIO")
			b.ReportMetric(rows[1].MosaicKIO, "scan-kIO")
		}
	}
}
