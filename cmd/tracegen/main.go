// Command tracegen captures a workload's memory-reference stream into a
// compact binary trace file, or replays a previously captured trace through
// the memory-system simulator. Traces let a reference stream be simulated
// many times (or inspected) without re-running the workload. Traces use the
// delta-encoded, block-framed v2 format (internal/trace).
//
// Usage:
//
//	tracegen -workload graph500 -footprint 32 -out graph500.trace
//	tracegen -replay graph500.trace [-entries 256] [-arity 4]
//	tracegen -workload gups -stats          # just count/summarize
//	tracegen -workload gups -post http://127.0.0.1:7077   # stream to mosaicd
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"

	"mosaic"
	"mosaic/internal/core"
	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/trace"
)

var progress *obs.Progress

func main() {
	workload := flag.String("workload", "", "workload to capture (graph500, btree, gups, xsbench)")
	footprint := flag.Uint64("footprint", 32, "workload footprint in MiB")
	maxRefs := flag.Uint64("maxrefs", 0, "cap on captured references (0 = full run)")
	out := flag.String("out", "", "output trace file (capture mode)")
	replay := flag.String("replay", "", "trace file to replay through the simulator")
	entries := flag.Int("entries", 256, "TLB entries for replay")
	arity := flag.Int("arity", 4, "mosaic arity for replay")
	seed := flag.Uint64("seed", 1, "random seed")
	statsOnly := flag.Bool("stats", false, "summarize the stream without writing a file")
	post := flag.String("post", "", "stream the captured trace to a mosaicd base URL as one live session")
	sample := flag.Uint64("sample", 0, "session sampling window when posting (0 = daemon default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer stop()
	}
	progress = obs.NewProgress(true)
	defer progress.Done()

	switch {
	case *replay != "":
		if err := replayTrace(*replay, *entries, *arity); err != nil {
			fail(err)
		}
	case *workload != "" && *post != "":
		if err := postSession(*post, *workload, *footprint<<20, *maxRefs, *seed, *entries, *arity, *sample); err != nil {
			fail(err)
		}
	case *workload != "" && (*out != "" || *statsOnly):
		if err := capture(*workload, *footprint<<20, *maxRefs, *seed, *out, *statsOnly); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// captureSink consumes a capture whole-batch: it tallies reads and writes,
// tracks touched pages (when pages is non-nil), reports progress at every
// 1M-reference boundary, and hands the batch to the encoder (nil when only
// summarizing).
type captureSink struct {
	name                 string
	verb                 string             // "captured" or "streamed", for the progress line
	enc                  *trace.BatchWriter // nil in -stats mode
	pages                map[core.VPN]bool
	reads, writes, total uint64
}

func (s *captureSink) ProcessBatch(b trace.Batch) {
	for _, r := range b {
		if r.Write() {
			s.writes++
		} else {
			s.reads++
		}
		if s.pages != nil {
			s.pages[core.VPNOf(r.VA())] = true
		}
	}
	if s.enc != nil {
		s.enc.ProcessBatch(b)
	}
	prev := s.total
	s.total += uint64(len(b))
	if s.total>>20 > prev>>20 {
		progress.Stepf("tracegen %s: %d M refs %s", s.name, s.total>>20, s.verb)
	}
}

func capture(name string, footprint, maxRefs, seed uint64, out string, statsOnly bool) error {
	w, err := mosaic.NewWorkload(name, footprint, seed)
	if err != nil {
		return err
	}
	cs := &captureSink{name: name, verb: "captured", pages: map[core.VPN]bool{}}
	if !statsOnly {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if cs.enc, err = trace.NewBatchWriter(f); err != nil {
			return err
		}
	}

	mosaic.RunBatch(w, cs, maxRefs)
	progress.Done()
	fmt.Printf("%s: %d refs (%d reads, %d writes), %d pages touched, footprint %d MiB\n",
		name, cs.total, cs.reads, cs.writes, len(cs.pages), w.FootprintBytes()>>20)
	if cs.enc == nil {
		return nil
	}
	if err := cs.enc.Flush(); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	n := cs.enc.Count()
	fmt.Printf("wrote %s (v2): %d records, %d bytes (%.2f bytes/record)\n",
		out, n, info.Size(), float64(info.Size())/float64(n))
	return nil
}

func replayTrace(path string, entries, arity int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewBatchReader(f)
	if err != nil {
		return err
	}
	sim, err := mosaic.NewSimulator(mosaic.SimConfig{
		Frames: 1 << 18,
		Specs: []mosaic.TLBSpec{
			{Geometry: mosaic.TLBGeometry{Entries: entries, Ways: 8}},
			{Geometry: mosaic.TLBGeometry{Entries: entries, Ways: 8}, Arity: arity},
		},
	})
	if err != nil {
		return err
	}
	progress.Stepf("tracegen: replaying %s", path)
	n, err := tr.ReplayBatches(sim)
	if err != nil {
		return err
	}
	progress.Done()
	fmt.Printf("replayed %d refs through a %d-entry 8-way TLB:\n", n, entries)
	for _, r := range sim.Results() {
		fmt.Printf("  %-10s misses=%d (%.3f%% miss rate)\n",
			r.Spec.Label(), r.TLB.Misses, 100*r.TLB.MissRate())
	}
	return nil
}

// postSession captures a workload and streams it — while it is being
// generated, via a pipe — into a running mosaicd as one live session, then
// prints the results file the daemon answers with. The session shows up in
// the daemon's /metrics and in `mosaicstat watch` as it runs.
func postSession(base, name string, footprint, maxRefs, seed uint64, entries, arity int, sample uint64) error {
	w, err := mosaic.NewWorkload(name, footprint, seed)
	if err != nil {
		return err
	}
	q := url.Values{}
	q.Set("label", name)
	q.Set("entries", strconv.Itoa(entries))
	q.Set("arity", strconv.Itoa(arity))
	q.Set("seed", strconv.FormatUint(seed, 10))
	if sample != 0 {
		q.Set("sample", strconv.FormatUint(sample, 10))
	}

	pr, pw := io.Pipe()
	werr := make(chan error, 1)
	go func() {
		// Stream the capture in the v2 format. Batches flow from the
		// generator straight into the frame encoder — no scalar
		// re-batching between the workload and the wire.
		bw, err := trace.NewBatchWriter(pw)
		if err != nil {
			werr <- err
			pw.CloseWithError(err)
			return
		}
		mosaic.RunBatch(w, &captureSink{name: name, verb: "streamed", enc: bw}, maxRefs)
		err = bw.Flush()
		werr <- err
		pw.CloseWithError(err)
	}()

	resp, err := http.Post(base+"/sessions?"+q.Encode(), "application/octet-stream", pr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := <-werr; err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", base, resp.Status, body)
	}
	f, err := results.Decode(body, base)
	if err != nil {
		return err
	}
	progress.Done()
	fmt.Print(f.Format())
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
