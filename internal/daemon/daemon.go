// Package daemon turns the batch experiment harness into a long-running
// simulation service: an HTTP server that accepts streaming trace
// sessions — each an isolated simulator instance scheduled onto a
// persistent internal/sweep pool with bounded concurrency and
// backpressure — and exposes live telemetry while they run.
//
// Endpoints:
//
//	POST /sessions                    stream a binary trace (cmd/tracegen
//	                                  format) as the request body; the
//	                                  response, sent when the stream ends,
//	                                  is the session's schema-versioned
//	                                  results JSON. 503 + Retry-After when
//	                                  the pool is saturated or draining.
//	GET  /metrics                     merged Prometheus text across the
//	                                  daemon's own counters and every
//	                                  session's latest published snapshot
//	GET  /sessions                    JSON session table (id, state, refs)
//	GET  /sessions/{id}/metrics       one session's Prometheus text
//	GET  /sessions/{id}/results.json  one session's results JSON — final
//	                                  after completion, a live snapshot
//	                                  (config.live = true) while running
//
// The isolation story mirrors internal/sweep: a session owns its whole
// simulator, registry, sampler, and event log; nothing is shared between
// sessions, so any interleaving of concurrent sessions yields the same
// per-session results as running each alone. The only cross-session
// surfaces are the read-only merged /metrics view and the daemon's own
// admission counters (guarded by one mutex, touched per request — never
// per reference).
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mosaic/internal/obs"
	"mosaic/internal/results"
	"mosaic/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrently running sessions (0 = GOMAXPROCS).
	Workers int
	// Queue bounds sessions admitted beyond the running ones (waiting for
	// a worker, their clients still streaming or about to). Admissions
	// past workers+queue are refused with 503. Default 8.
	Queue int
	// SampleEvery is the default per-session sampling/publication window
	// in references, overridable per session with ?sample=N. Default 65536.
	SampleEvery uint64
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 8
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 65536
	}
}

// Server is the daemon: session table, scheduling pool, and admission
// metrics. Create with New, expose with Handler, stop with Drain.
type Server struct {
	cfg  Config
	pool *sweep.Pool

	mu       sync.Mutex
	sessions []*Session // ID = index+1; append-only
	draining bool

	// Admission metrics live in their own registry, guarded by mu (the
	// per-request path can afford a mutex; per-reference paths never
	// touch this). Sessions publish their own registries lock-free.
	reg        *obs.Registry
	cStarted   *obs.Counter // mosaicd.sessions.started
	cCompleted *obs.Counter // mosaicd.sessions.completed
	cFailed    *obs.Counter // mosaicd.sessions.failed
	cRejected  *obs.Counter // mosaicd.sessions.rejected
	cRefs      *obs.Counter // mosaicd.refs.total
	gActive    *obs.Gauge   // mosaicd.sessions.active
}

// New builds a Server and starts its session pool.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	reg := obs.NewRegistry()
	return &Server{
		cfg:        cfg,
		pool:       sweep.NewPool(cfg.Workers, cfg.Queue),
		reg:        reg,
		cStarted:   reg.Counter("mosaicd.sessions.started"),
		cCompleted: reg.Counter("mosaicd.sessions.completed"),
		cFailed:    reg.Counter("mosaicd.sessions.failed"),
		cRejected:  reg.Counter("mosaicd.sessions.rejected"),
		cRefs:      reg.Counter("mosaicd.refs.total"),
		gActive:    reg.Gauge("mosaicd.sessions.active"),
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}/metrics", s.handleSessionMetrics)
	mux.HandleFunc("GET /sessions/{id}/results.json", s.handleSessionResults)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain stops admitting sessions (new POSTs get 503) and blocks until
// every admitted session has run to completion. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.pool.Drain()
}

// handleCreate admits one streaming session: the request body is the
// binary trace, the response is the finished session's results JSON.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	cfg, err := sessionConfigFromQuery(r.URL.Query(), s.cfg.SampleEvery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := s.admit(cfg)
	if err != nil {
		s.mu.Lock()
		s.cRejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	body := r.Body
	if err := s.pool.TrySubmit(func() { s.runSession(sess, body) }); err != nil {
		// Admission raced a concurrent drain; the session never ran.
		s.mu.Lock()
		s.cRejected.Inc()
		sess.fail(fmt.Errorf("daemon: %w", err))
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	<-sess.done

	f, runErr := sess.Result()
	if runErr != nil {
		http.Error(w, fmt.Sprintf("session %d: %v", sess.ID, runErr), http.StatusBadRequest)
		return
	}
	writeJSON(w, f)
}

// admit reserves a session slot unless the daemon is draining or the
// table is full; the pool enforces the concurrency/queue bound itself at
// submit time.
func (s *Server) admit(cfg SessionConfig) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, fmt.Errorf("daemon: %w", sweep.ErrPoolDraining)
	}
	sess := newSession(len(s.sessions)+1, cfg)
	s.sessions = append(s.sessions, sess)
	s.cStarted.Inc()
	return sess, nil
}

// runSession executes one session on a pool worker and settles the
// daemon-level admission metrics around it. A panic in the session fails
// that session alone.
func (s *Server) runSession(sess *Session, body io.Reader) {
	s.mu.Lock()
	s.gActive.Add(1)
	s.mu.Unlock()

	if pe := sweep.Catch(func() { sess.run(body) }); pe != nil {
		sess.fail(fmt.Errorf("daemon: session panicked: %v", pe.Value))
	}

	s.mu.Lock()
	s.gActive.Add(-1)
	if _, err := sess.Result(); err != nil {
		s.cFailed.Inc()
	} else {
		s.cCompleted.Inc()
		s.cRefs.Add(sess.Refs())
	}
	s.mu.Unlock()
}

// handleMetrics serves the merged Prometheus view: daemon admission
// metrics plus every session's latest publication, merged in session-ID
// order (counters and histograms sum; session gauges are last-writer-wins
// and are meaningful per session, so scrape /sessions/{id}/metrics for
// per-session gauge fidelity).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := s.reg.Snapshot()
	sessions := append([]*Session(nil), s.sessions...)
	s.mu.Unlock()
	for _, sess := range sessions {
		if pub, ok := sess.Published(); ok {
			snap = snap.Merge(pub.Snap)
		}
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	fmt.Fprint(w, snap.Prometheus())
}

// sessionByID resolves the {id} path value, or writes a 404.
func (s *Server) sessionByID(w http.ResponseWriter, r *http.Request) *Session {
	id, err := strconv.Atoi(r.PathValue("id"))
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	if err != nil || id < 1 || id > n {
		http.Error(w, fmt.Sprintf("no session %q", r.PathValue("id")), http.StatusNotFound)
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id-1]
}

func (s *Server) handleSessionMetrics(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionByID(w, r)
	if sess == nil {
		return
	}
	pub, ok := sess.Published()
	if !ok {
		http.Error(w, fmt.Sprintf("session %d has not published yet", sess.ID), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	fmt.Fprint(w, pub.Snap.Prometheus())
}

func (s *Server) handleSessionResults(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionByID(w, r)
	if sess == nil {
		return
	}
	f, err := sess.ResultsFile()
	if err != nil {
		http.Error(w, fmt.Sprintf("session %d: %v", sess.ID, err), http.StatusConflict)
		return
	}
	writeJSON(w, f)
}

// sessionInfo is one row of the GET /sessions table.
type sessionInfo struct {
	ID      int     `json:"id"`
	Label   string  `json:"label,omitempty"`
	State   string  `json:"state"`
	Refs    uint64  `json:"refs"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := append([]*Session(nil), s.sessions...)
	s.mu.Unlock()
	now := time.Now()
	infos := make([]sessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.info(now)
	}
	writeJSON(w, infos)
}

// writeJSON marshals v indented; results.File values serialize exactly as
// results.Write lays them down on disk.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// ResultsFile renders the daemon's final merged snapshot — the drain
// artifact cmd/mosaicd writes on SIGTERM — in the same schema-versioned
// format every batch driver emits.
func (s *Server) ResultsFile() *results.File {
	s.mu.Lock()
	snap := s.reg.Snapshot()
	sessions := append([]*Session(nil), s.sessions...)
	s.mu.Unlock()
	f := results.New("mosaicd")
	f.Config["workers"] = s.cfg.Workers
	f.Config["queue"] = s.cfg.Queue
	f.Config["sessions"] = len(sessions)
	for _, sess := range sessions {
		if pub, ok := sess.Published(); ok {
			snap = snap.Merge(pub.Snap)
		}
	}
	f.AddSnapshot("", snap)
	return f
}
