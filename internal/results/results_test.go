package results

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/obs"
)

func TestNumberJSONNullRoundTrip(t *testing.T) {
	vals := []Number{1.5, Number(math.NaN()), Number(math.Inf(1)), Number(math.Inf(-1)), 0}
	data, err := json.Marshal(vals)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got, want := string(data), "[1.5,null,null,null,0]"; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var back []Number
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back[0] != 1.5 || !math.IsNaN(float64(back[1])) || !math.IsNaN(float64(back[2])) {
		t.Fatalf("round trip = %v", back)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "fig6.json")

	f := New("fig6")
	f.Config["workload"] = "gups"
	f.SetMetric("tlb.miss", 1234)
	f.SetMetric("vm.ratio", math.NaN())
	f.Series = append(f.Series, Series{Name: "tlb.hit_rate", Refs: []uint64{100, 200}, Values: []Number{0.5, Number(math.NaN())}})
	f.Events = append(f.Events, obs.Event{Ref: 7, Component: "vm", Kind: "horizon.advance", Severity: obs.Info})

	if err := Write(path, f); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.SchemaVersion != SchemaVersion || got.Experiment != "fig6" {
		t.Fatalf("header = v%d %q", got.SchemaVersion, got.Experiment)
	}
	if v, ok := got.Metric("tlb.miss"); !ok || v != 1234 {
		t.Fatalf("tlb.miss = %v %v", v, ok)
	}
	if v, ok := got.Metric("vm.ratio"); !ok || !math.IsNaN(v) {
		t.Fatalf("NaN metric should survive as null→NaN, got %v %v", v, ok)
	}
	if len(got.Series) != 1 || !math.IsNaN(float64(got.Series[0].Values[1])) {
		t.Fatalf("series = %+v", got.Series)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != "horizon.advance" {
		t.Fatalf("events = %+v", got.Events)
	}
	// The file on disk must be plain JSON with nulls, no NaN literals.
	raw, _ := os.ReadFile(path)
	if strings.Contains(string(raw), "NaN") {
		t.Fatalf("file contains NaN literal:\n%s", raw)
	}
}

func TestReadRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	os.WriteFile(path, []byte(`{"schema_version": 99, "experiment": "x", "metrics": {}}`), 0o644)
	if _, err := Read(path); err == nil {
		t.Fatal("expected schema version error")
	}
	os.WriteFile(path, []byte(`{"experiment": "x", "metrics": {}}`), 0o644)
	if _, err := Read(path); err == nil {
		t.Fatal("expected missing schema version error")
	}
	os.WriteFile(path, []byte(`not json`), 0o644)
	if _, err := Read(path); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestAddSnapshotAndSampler(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("tlb.miss").Add(3)
	r.Histogram("walk.latency").Observe(8)

	f := New("t")
	f.AddSnapshot("gups", r.Snapshot())
	if v, ok := f.Metric("gups.tlb.miss"); !ok || v != 3 {
		t.Fatalf("prefixed counter = %v %v", v, ok)
	}
	if _, ok := f.Metric("gups.walk.latency.p99"); !ok {
		t.Fatal("histogram expansion missing under prefix")
	}

	s := obs.NewSampler(2)
	x := 0.0
	s.Gauge("vm.utilization", func() float64 { return x })
	x = 1
	s.Tick()
	s.Tick()
	f.AddSampler("gups", s)
	if len(f.Series) != 1 || f.Series[0].Name != "gups.vm.utilization" {
		t.Fatalf("series = %+v", f.Series)
	}
	f.AddSampler("", nil) // nil sampler is a no-op
	if len(f.Series) != 1 {
		t.Fatal("nil sampler added series")
	}
}

func TestAddEventsScoping(t *testing.T) {
	l := obs.NewEventLog(nil)
	l.Emit(obs.Event{Ref: 1, Component: "vm", Kind: "a.b", Severity: obs.Info})
	l.Emit(obs.Event{Ref: 2, Component: "vm", Kind: "a.b", Severity: obs.Info, Scope: "keep"})
	f := New("t")
	f.AddEvents("gups", l)
	if f.Events[0].Scope != "gups" || f.Events[1].Scope != "keep" {
		t.Fatalf("scopes = %q %q", f.Events[0].Scope, f.Events[1].Scope)
	}
	f.AddEvents("x", nil) // nil log is a no-op
	if len(f.Events) != 2 {
		t.Fatal("nil event log added events")
	}
}

func TestDiffAndFormat(t *testing.T) {
	a := New("fig6")
	a.SetMetric("tlb.miss", 100)
	a.SetMetric("only.a", 1)
	a.SetMetric("zero.base", 0)
	b := New("fig6")
	b.SetMetric("tlb.miss", 80)
	b.SetMetric("only.b", 2)
	b.SetMetric("zero.base", 5)

	rows := Diff(a, b)
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Metric] = r
	}
	if r := byName["tlb.miss"]; math.Abs(r.DeltaPct-(-20)) > 1e-12 {
		t.Fatalf("tlb.miss delta = %v, want -20", r.DeltaPct)
	}
	if r := byName["only.a"]; r.InB || !math.IsNaN(r.DeltaPct) {
		t.Fatalf("one-sided row = %+v", r)
	}
	if r := byName["zero.base"]; !math.IsNaN(r.DeltaPct) {
		t.Fatalf("zero-base delta = %v, want NaN", r.DeltaPct)
	}

	out := FormatDiff("a.json", "b.json", rows)
	if !strings.Contains(out, "tlb.miss") || !strings.Contains(out, "-20") {
		t.Errorf("diff table missing delta:\n%s", out)
	}
	if !strings.Contains(out, "null") {
		t.Errorf("diff table should render NaN deltas as null:\n%s", out)
	}

	a.Series = append(a.Series, Series{Name: "s.x", Refs: []uint64{10}, Values: []Number{1}})
	show := a.Format()
	if !strings.Contains(show, "experiment: fig6") || !strings.Contains(show, "tlb.miss") || !strings.Contains(show, "s.x") {
		t.Errorf("format output incomplete:\n%s", show)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"GUPS":              "gups",
		"graph500 (s=20)":   "graph500_s_20",
		"x86-64":            "x86_64",
		"429.mcf":           "w429_mcf",
		"  weird__name  ":   "weird_name",
		"":                  "unnamed",
		"fully-associative": "fully_associative",
	}
	for in, want := range cases {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
