package obs

import (
	"encoding/json"
	"io"
	"math"
)

// Severity classifies an event.
type Severity string

// The three severities. Info marks expected-but-notable transitions,
// Warn marks pressure signals (eviction storms), Error marks states that
// should never occur in a healthy run.
const (
	Info  Severity = "info"
	Warn  Severity = "warn"
	Error Severity = "error"
)

// Event is one structured log record: a rare, discrete occurrence worth
// pinpointing on the reference-index axis (unlike metrics, which aggregate).
type Event struct {
	// Ref is the reference index (the OS access clock) at which the event
	// occurred.
	Ref uint64 `json:"ref"`
	// Component names the emitting subsystem ("vm", "memsim", "iceberg").
	Component string `json:"component"`
	// Kind is the event type, a lowercase dotted identifier
	// ("horizon.advance", "eviction.storm", "invariant.pass").
	Kind string `json:"kind"`
	// Severity is info, warn, or error.
	Severity Severity `json:"severity"`
	// Scope optionally qualifies the run the event belongs to (e.g. the
	// workload name when one results file covers several runs).
	Scope string `json:"scope,omitempty"`
	// Message is an optional human-readable elaboration.
	Message string `json:"message,omitempty"`
	// Fields carries numeric payload ("horizon": 123456). Non-finite
	// values are replaced with null on encoding.
	Fields map[string]float64 `json:"fields,omitempty"`
}

// MarshalJSON encodes the event with non-finite field values as null, so
// an event stream is always valid JSONL.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Ref       uint64              `json:"ref"`
		Component string              `json:"component"`
		Kind      string              `json:"kind"`
		Severity  Severity            `json:"severity"`
		Scope     string              `json:"scope,omitempty"`
		Message   string              `json:"message,omitempty"`
		Fields    map[string]*float64 `json:"fields,omitempty"`
	}
	w := wire{Ref: e.Ref, Component: e.Component, Kind: e.Kind, Severity: e.Severity, Scope: e.Scope, Message: e.Message}
	if len(e.Fields) > 0 {
		w.Fields = make(map[string]*float64, len(e.Fields))
		for k, v := range e.Fields {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				w.Fields[k] = nil
				continue
			}
			v := v
			w.Fields[k] = &v
		}
	}
	return json.Marshal(w)
}

// defaultEventCap bounds the in-memory event ring. Rare events stay rare;
// if a run emits more than this, the oldest are dropped (and counted), the
// JSONL stream — if attached — still sees every record.
const defaultEventCap = 4096

// EventLog collects events in a bounded in-memory ring and optionally
// streams them as JSONL to a writer. Emit on a nil *EventLog is a no-op,
// so components hold the pointer unconditionally. Like trace.BatchWriter,
// write errors are sticky and reported by Err rather than interrupting a
// simulation mid-run.
type EventLog struct {
	enc     *json.Encoder
	ring    []Event
	start   int
	cap     int
	dropped uint64
	err     error
}

// NewEventLog creates an event log. w may be nil for in-memory only.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{cap: defaultEventCap}
	if w != nil {
		l.enc = json.NewEncoder(w)
	}
	return l
}

// SetWriter attaches (or replaces) the JSONL stream. Events already in the
// ring are not replayed.
func (l *EventLog) SetWriter(w io.Writer) {
	if w == nil {
		l.enc = nil
		return
	}
	l.enc = json.NewEncoder(w)
}

// SetCap resizes the in-memory ring bound (minimum 1). Existing events are
// kept up to the new bound, oldest dropped first.
func (l *EventLog) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	for len(l.ring) > n {
		l.evictOldest()
	}
	l.cap = n
}

// Emit records one event; nil-safe.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	if l.enc != nil && l.err == nil {
		if err := l.enc.Encode(e); err != nil {
			l.err = err
		}
	}
	if len(l.ring) >= l.cap {
		l.evictOldest()
	}
	l.ring = append(l.ring, Event{})
	idx := (l.start + len(l.ring) - 1) % len(l.ring)
	l.ring[idx] = e
}

// evictOldest drops the oldest ring entry.
func (l *EventLog) evictOldest() {
	// Ring stored as a slice rotated by start; dropping the oldest advances
	// start and shrinks by re-slicing after compaction. Simplest correct
	// form: materialize in order, drop head.
	evs := l.eventsInOrder()
	l.ring = evs[1:]
	l.start = 0
	l.dropped++
}

func (l *EventLog) eventsInOrder() []Event {
	if l.start == 0 {
		return l.ring
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.start:]...)
	out = append(out, l.ring[:l.start]...)
	l.start = 0
	l.ring = out
	return out
}

// Events returns the retained events, oldest first; nil-safe.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	return append([]Event(nil), l.eventsInOrder()...)
}

// Len is the number of retained events; nil-safe.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// Dropped is the number of events evicted from the ring; nil-safe.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Err reports the first JSONL encoding error, if any; nil-safe.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}
