package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/core"
	"mosaic/internal/results"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// traceBytes builds an in-memory binary trace touching `pages` distinct
// pages round-robin for `refs` references.
func traceBytes(t testing.TB, refs, pages int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := pageRefs(refs, pages)
	for i := 0; i < refs; i += 7 {
		b[i] = trace.MakeRef(b[i].VA(), true)
	}
	if err := tw.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pageRefs is n reads cycling round-robin over `pages` heap pages.
func pageRefs(n, pages int) trace.Batch {
	b := make(trace.Batch, n)
	for i := range b {
		b[i] = trace.MakeRef(uint64(workloads.DefaultHeapBase)+uint64(i%pages)*core.PageSize, false)
	}
	return b
}

// postSession streams a trace and decodes the results-file response.
func postSession(t *testing.T, url string, query string, body io.Reader) *results.File {
	t.Helper()
	resp, err := http.Post(url+"/sessions?"+query, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sessions: %s: %s", resp.Status, data)
	}
	f, err := results.Decode(data, url)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestConcurrentSessionsIsolated is the daemon's acceptance criterion:
// four concurrent streaming sessions, each with a different reference
// count, finish with correct per-session metrics — no bleed between the
// isolated simulators — and the merged /metrics view accounts for all of
// them.
func TestConcurrentSessionsIsolated(t *testing.T) {
	srv := New(Config{Workers: 4, Queue: 4, SampleEvery: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	refCounts := []int{1000, 2000, 3000, 4000}
	files := make([]*results.File, len(refCounts))
	var wg sync.WaitGroup
	for i, refs := range refCounts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := traceBytes(t, refs, 64)
			files[i] = postSession(t, ts.URL, fmt.Sprintf("label=s%d&sample=128", refs), bytes.NewReader(body))
		}()
	}
	wg.Wait()

	for i, f := range files {
		want := float64(refCounts[i])
		if got, ok := f.Metric("vm.access"); !ok || got != want {
			t.Errorf("session %d: vm.access = %v (ok=%v), want %v", i, got, ok, want)
		}
		if got, ok := f.Metric("sim.refs.total"); !ok || got != want {
			t.Errorf("session %d: sim.refs.total = %v (ok=%v), want %v", i, got, ok, want)
		}
		hit, _ := f.Metric("tlb.vanilla.hit")
		miss, _ := f.Metric("tlb.vanilla.miss")
		if hit+miss != want {
			t.Errorf("session %d: vanilla hit+miss = %v, want %v", i, hit+miss, want)
		}
		if f.SchemaVersion != results.SchemaVersion {
			t.Errorf("session %d: schema version %d, want %d", i, f.SchemaVersion, results.SchemaVersion)
		}
	}

	// Merged daemon view: all four sessions completed, total refs summed
	// across isolated registries.
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	for _, want := range []string{
		"mosaicd_sessions_completed 4",
		"mosaicd_sessions_failed 0",
		"mosaicd_refs_total 10000",
		"vm_access 10000",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The session table reports all four done with their own ref clocks.
	code, list := get(t, ts.URL+"/sessions")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions: %d", code)
	}
	var infos []sessionInfo
	if err := json.Unmarshal([]byte(list), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("GET /sessions: %d rows, want 4", len(infos))
	}
	seen := map[uint64]bool{}
	for _, inf := range infos {
		if inf.State != stateDone {
			t.Errorf("session %d state %q, want done", inf.ID, inf.State)
		}
		seen[inf.Refs] = true
	}
	for _, refs := range refCounts {
		if !seen[uint64(refs)] {
			t.Errorf("no session finished with refs=%d (table: %+v)", refs, infos)
		}
	}
}

// TestPerSessionEndpoints: one finished session's /metrics and
// /results.json views are self-consistent with the POST response.
func TestPerSessionEndpoints(t *testing.T) {
	srv := New(Config{Workers: 2, SampleEvery: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	posted := postSession(t, ts.URL, "label=solo", bytes.NewReader(traceBytes(t, 1500, 32)))

	code, text := get(t, ts.URL+"/sessions/1/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions/1/metrics: %d: %s", code, text)
	}
	if !strings.Contains(text, "vm_access 1500") {
		t.Errorf("per-session metrics missing vm_access 1500:\n%s", text)
	}
	if strings.Contains(text, "mosaicd_sessions") {
		t.Error("per-session metrics leaked daemon-level counters")
	}

	code, body := get(t, ts.URL+"/sessions/1/results.json")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions/1/results.json: %d", code)
	}
	f, err := results.Decode([]byte(body), "endpoint")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Metric("vm.access"); got != 1500 {
		t.Errorf("results.json vm.access = %v, want 1500", got)
	}
	pv, _ := posted.Metric("tlb.vanilla.miss")
	ev, _ := f.Metric("tlb.vanilla.miss")
	if pv != ev {
		t.Errorf("POST response and endpoint disagree on tlb.vanilla.miss: %v vs %v", pv, ev)
	}
	if _, ok := f.Config["live"]; ok {
		t.Error("finished session's results.json marked live")
	}

	for _, path := range []string{"/sessions/99/metrics", "/sessions/0/results.json", "/sessions/x/metrics"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
}

// TestLiveScrapeMidRun: while a session is wedged mid-stream, /metrics and
// the live results.json serve its latest window without blocking on the
// simulation.
func TestLiveScrapeMidRun(t *testing.T) {
	srv := New(Config{Workers: 1, SampleEvery: 100})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		resp, err := http.Post(ts.URL+"/sessions?label=live&sample=100", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()

	tw, err := trace.NewBatchWriter(pw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch(pageRefs(250, 16)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Two windows (200 refs) are published once the pipe hands them over;
	// poll until the scrape sees the second window.
	var live *results.File
	for {
		code, body := get(t, ts.URL+"/sessions/1/results.json")
		if code == http.StatusOK {
			f, err := results.Decode([]byte(body), "live")
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := f.Metric("sim.refs.total"); ok && v >= 200 {
				live = f
				break
			}
		}
	}
	if live.Config["live"] != true {
		t.Errorf("mid-run results.json not marked live: %v", live.Config)
	}
	if v, _ := live.Metric("sim.refs.total"); v != 200 {
		t.Errorf("mid-run sim.refs.total = %v, want 200 (last full window)", v)
	}

	pw.Close() // clean EOF ends the trace; session finishes
	srv.Drain()
	code, body := get(t, ts.URL+"/sessions/1/results.json")
	if code != http.StatusOK {
		t.Fatalf("final results.json: %d", code)
	}
	f, err := results.Decode([]byte(body), "final")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Metric("vm.access"); v != 250 {
		t.Errorf("final vm.access = %v, want 250", v)
	}
}

// TestBackpressure: with one worker wedged and no queue, the next POST is
// refused with 503 and counted as rejected, never blocking the client.
func TestBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, Queue: -1, SampleEvery: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	tw, err := trace.NewBatchWriter(pw)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wedge the single worker: stream half a window and stall.
	if err := tw.WriteBatch(pageRefs(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, 1, stateRunning)

	// The pool has one channel slot beyond the busy worker; fill it from a
	// goroutine (its POST blocks until the worker frees up) …
	fillerDone := make(chan struct{})
	go func() {
		defer close(fillerDone)
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(traceBytes(t, 10, 4)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitState(t, srv, 2, stateQueued)

	// … then the next admission must shed with a 503, promptly, while both
	// earlier sessions are still outstanding.
	resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(traceBytes(t, 10, 4)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST with wedged worker and full queue: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(metrics, "mosaicd_sessions_rejected 1") {
		t.Errorf("/metrics missing mosaicd_sessions_rejected 1:\n%s", metrics)
	}

	pw.Close()
	<-fillerDone
	srv.Drain()
}

// TestDrain: draining refuses new sessions but finishes the in-flight one,
// and the drain artifact is a schema-valid results file covering it.
func TestDrain(t *testing.T) {
	srv := New(Config{Workers: 2, SampleEvery: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	tw, err := trace.NewBatchWriter(pw)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan *results.File, 1)
	go func() {
		finished <- postSession(t, ts.URL, "", pr)
	}()
	if err := tw.WriteBatch(pageRefs(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, 1, stateRunning)

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	// New work is refused as soon as the drain flag flips; posts that won
	// the race before it flipped were legitimately admitted, complete
	// normally, and must be accounted for below.
	raced := 0
	for {
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(traceBytes(t, 10, 4)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode == http.StatusOK {
			raced++
		}
	}
	if err := tw.WriteBatch(pageRefs(99, 8)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-drained

	f := <-finished
	if v, _ := f.Metric("vm.access"); v != 100 {
		t.Errorf("drained session vm.access = %v, want 100", v)
	}

	// The drain artifact: same schema as every results file, carrying every
	// finished session's metrics through the merged snapshot.
	wantAccess := float64(100 + 10*raced)
	artifact := srv.ResultsFile()
	data, err := json.Marshal(artifact)
	if err != nil {
		t.Fatal(err)
	}
	back, err := results.Decode(data, "artifact")
	if err != nil {
		t.Fatalf("drain artifact does not round-trip: %v", err)
	}
	if v, _ := back.Metric("vm.access"); v != wantAccess {
		t.Errorf("artifact vm.access = %v, want %v", v, wantAccess)
	}
	if v, _ := back.Metric("mosaicd.sessions.completed"); v != float64(1+raced) {
		t.Errorf("artifact mosaicd.sessions.completed = %v, want %d", v, 1+raced)
	}
}

// TestBadTrace: a body the v2 decoder rejects settles the session as
// failed — reported on the POST, in the session table, and in the failure
// counter. That includes a stream in the retired v1 format and a frame
// whose VA decodes outside the canonical 62-bit range.
func TestBadTrace(t *testing.T) {
	// Two records: VA 2^62-1 (zigzag 2^63-2, shifted left), then +1.
	payload := binary.AppendUvarint(nil, (1<<63-2)<<1)
	payload = binary.AppendUvarint(payload, 1<<1<<1)
	nonCanonical := binary.AppendUvarint([]byte("MTR2"), 2)
	nonCanonical = binary.AppendUvarint(nonCanonical, uint64(len(payload)))
	nonCanonical = append(nonCanonical, payload...)

	for name, body := range map[string][]byte{
		"garbage":       []byte("not a trace"),
		"v1 stream":     []byte("MTR1\x02"),
		"VA above 2^62": nonCanonical,
	} {
		t.Run(name, func(t *testing.T) {
			srv := New(Config{Workers: 1, SampleEvery: 64})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Drain()

			resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %q: %d, want 400", body, resp.StatusCode)
			}
			code, metrics := get(t, ts.URL+"/metrics")
			if code != http.StatusOK || !strings.Contains(metrics, "mosaicd_sessions_failed 1") {
				t.Errorf("/metrics missing mosaicd_sessions_failed 1:\n%s", metrics)
			}
			if code, _ := get(t, ts.URL+"/sessions/1/results.json"); code != http.StatusConflict {
				t.Errorf("failed session results.json: %d, want 409", code)
			}
		})
	}
}

// TestBadQuery: malformed session parameters are rejected up front.
func TestBadQuery(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	for _, q := range []string{"entries=zero", "arity=-1", "sample=0", "frames=0", "arity=3"} {
		resp, err := http.Post(ts.URL+"/sessions?"+q, "application/octet-stream", bytes.NewReader(traceBytes(t, 4, 2)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST ?%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestQueryCaps: a session shape above the package caps is answered 400
// before anything is allocated; the caps themselves are accepted.
func TestQueryCaps(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	for _, tc := range []struct {
		query string
		ok    bool
	}{
		{fmt.Sprintf("entries=%d", maxSessionEntries+1), false},
		{fmt.Sprintf("arity=%d", maxSessionArity*2), false},
		{fmt.Sprintf("frames=%d", maxSessionFrames+1), false},
		{"frames=99999999999999999999", false},
		{fmt.Sprintf("entries=%d", maxSessionEntries), true},
		{fmt.Sprintf("arity=%d", maxSessionArity), true},
	} {
		_, err := sessionConfigFromQuery(mustQuery(t, tc.query), 64)
		if (err == nil) != tc.ok {
			t.Errorf("?%s: err = %v, want ok=%v", tc.query, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		resp, err := http.Post(ts.URL+"/sessions?"+tc.query, "application/octet-stream", bytes.NewReader(traceBytes(t, 4, 2)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST ?%s: %d, want 400", tc.query, resp.StatusCode)
		}
	}
}

func mustQuery(t testing.TB, raw string) url.Values {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// FuzzSessionQuery: the query parser never panics, and every shape it
// accepts is within the caps.
func FuzzSessionQuery(f *testing.F) {
	for _, seed := range []string{"", "entries=64&arity=16", "frames=1024&sample=7&seed=3",
		"arity=3", "entries=-1", "frames=1e9", "label=x&entries=65536"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		cfg, err := sessionConfigFromQuery(q, 64)
		if err != nil {
			return
		}
		if cfg.Entries < 1 || cfg.Entries > maxSessionEntries ||
			cfg.Arity < 1 || cfg.Arity > maxSessionArity || cfg.Arity&(cfg.Arity-1) != 0 ||
			cfg.Frames < 1 || cfg.Frames > maxSessionFrames || cfg.Sample < 1 {
			t.Fatalf("accepted out-of-range config %+v from %q", cfg, raw)
		}
	})
}

// FuzzSessionBody: an arbitrary frame stream after the v2 magic is answered
// 200 or 400 — never a 5xx, never a crash — and the server that took it
// still completes a well-formed session afterwards. Each input gets its own
// small-memory server: a finished session keeps its simulator reachable
// for the live endpoints, so one server shared across inputs would grow
// without bound.
func FuzzSessionBody(f *testing.F) {
	good := traceBytes(f, 100, 4)
	f.Add([]byte{})
	f.Add(good[4:])
	f.Add([]byte{0x01, 0x02, 0x00, 0x00})             // leftover payload bytes
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01}) // count over the cap
	f.Add([]byte{0x01, 0x01, 0x02})                   // VA 0 - 1 wraps past 2^62

	f.Fuzz(func(t *testing.T, frames []byte) {
		srv := New(Config{Workers: 1, SampleEvery: 64})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Drain()

		const query = "frames=64&entries=8"
		body := append([]byte("MTR2"), frames...)
		resp, err := http.Post(ts.URL+"/sessions?"+query, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST MTR2+%x: %d, want 200 or 400", frames, resp.StatusCode)
		}
		postSession(t, ts.URL, query, bytes.NewReader(good))
	})
}

// panicReader panics on its first read, standing in for any fault inside a
// running session.
type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("reader exploded") }

// TestSessionPanicFailsSession: a panic inside one session settles that
// session as failed with the panic text; the pool worker and the daemon
// live on to run the next session.
func TestSessionPanicFailsSession(t *testing.T) {
	srv := New(Config{Workers: 1, SampleEvery: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	cfg, err := sessionConfigFromQuery(url.Values{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.admit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.pool.TrySubmit(func() { srv.runSession(sess, panicReader{}) }); err != nil {
		t.Fatal(err)
	}
	<-sess.done
	if _, err := sess.Result(); err == nil || !strings.Contains(err.Error(), "reader exploded") {
		t.Fatalf("panicking session: err = %v, want the panic text", err)
	}
	postSession(t, ts.URL, "", bytes.NewReader(traceBytes(t, 100, 4)))
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "mosaicd_sessions_failed 1") || !strings.Contains(metrics, "mosaicd_sessions_completed 1") {
		t.Errorf("/metrics after one panicking and one good session:\n%s", metrics)
	}
}

// waitState spins until session id reaches the given state.
func waitState(t *testing.T, srv *Server, id int, state string) {
	t.Helper()
	for {
		srv.mu.Lock()
		var sess *Session
		if id >= 1 && id <= len(srv.sessions) {
			sess = srv.sessions[id-1]
		}
		srv.mu.Unlock()
		if sess != nil {
			sess.mu.Lock()
			got := sess.state
			sess.mu.Unlock()
			if got == state {
				return
			}
		}
	}
}
