package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSinkHelpers(t *testing.T) {
	var c Counter
	b := Batch{MakeRef(100, false), MakeRef(200, true)}
	c.ProcessBatch(b)
	Discard.ProcessBatch(b)
	if c.Reads != 1 || c.Writes != 1 || c.Total() != 2 {
		t.Errorf("counter = %+v", c)
	}
}

func TestCounterClassifiesReadsAndWrites(t *testing.T) {
	var c Counter
	rng := rand.New(rand.NewSource(3))
	var reads, writes uint64
	var b Batch
	for i := 0; i < 1000; i++ {
		w := rng.Intn(2) == 1
		if w {
			writes++
		} else {
			reads++
		}
		b = append(b, MakeRef(rng.Uint64()>>2, w))
	}
	c.ProcessBatch(b[:400])
	c.ProcessBatch(b[400:])
	if c.Reads != reads || c.Writes != writes {
		t.Errorf("counter = %+v, want reads=%d writes=%d", c, reads, writes)
	}
	if c.Total() != reads+writes {
		t.Errorf("Total() = %d, want %d", c.Total(), reads+writes)
	}
}

// TestRecorderReplay: a stream replayed into a Recorder in several batches
// is retained in stream order.
func TestRecorderReplay(t *testing.T) {
	var r Recorder
	r.ProcessBatch(Batch{MakeRef(10, false)})
	r.ProcessBatch(Batch{MakeRef(20, true)})
	want := []Access{{VA: 10}, {VA: 20, Write: true}}
	if len(r.Accesses) != len(want) || r.Accesses[0] != want[0] || r.Accesses[1] != want[1] {
		t.Errorf("recorded = %+v, want %+v", r.Accesses, want)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []Access
	va := uint64(0x10000000)
	for i := 0; i < 10000; i++ {
		switch rng.Intn(3) {
		case 0:
			va += 8 // sequential
		case 1:
			va -= 16
		case 2:
			va = uint64(rng.Int63()) & (1<<57 - 1) // canonical VA range
		}
		a := Access{VA: va, Write: rng.Intn(4) == 0}
		want = append(want, a)
		w.Access(a.VA, a.Write)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(want)) {
		t.Fatalf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, wa := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wa {
			t.Fatalf("record %d = %+v, want %+v", i, got, wa)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReplayAll(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		w.Access(uint64(i)*4096, i%2 == 0)
	}
	_ = w.Flush()
	r, _ := NewReader(&buf)
	var c Counter
	b := NewBatcher(&c, 0)
	n, err := r.ReplayAll(b)
	b.Flush()
	if err != nil || n != 100 {
		t.Fatalf("ReplayAll = %d, %v", n, err)
	}
	if c.Reads != 50 || c.Writes != 50 {
		t.Errorf("counter = %+v", c)
	}
}

func TestSequentialTraceIsCompact(t *testing.T) {
	// Delta encoding: a sequential scan must cost ~1 byte per record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Access(0x10000000+uint64(i)*8, false)
	}
	_ = w.Flush()
	if perRec := float64(buf.Len()) / 10000; perRec > 1.5 {
		t.Errorf("sequential trace costs %.2f bytes/record", perRec)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX123"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("MT"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("short header: %v", err)
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVARoundTripProperty(t *testing.T) {
	f := func(vas []uint64) bool {
		for i := range vas {
			vas[i] &= 1<<57 - 1 // canonical VA range
		}
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, va := range vas {
			w.Access(va, va%3 == 0)
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, va := range vas {
			a, err := r.Next()
			if err != nil || a.VA != va || a.Write != (va%3 == 0) {
				return false
			}
		}
		_, err = r.Next()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWriterNonCanonicalAddress verifies the steady-state failure mode: a
// non-canonical VA must not panic (the writer may sit under a long-running
// capture); it sets a sticky error surfaced by both Err and Flush, and the
// writer drops all subsequent records.
func TestWriterNonCanonicalAddress(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Access(0x1000, false)
	w.Access(1<<62, true) // non-canonical
	w.Access(0x2000, false)
	if w.Count() != 1 {
		t.Errorf("Count = %d, want 1 (records after the error must be dropped)", w.Count())
	}
	if err := w.Err(); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("Err() = %v, want ErrNonCanonical", err)
	}
	if err := w.Flush(); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("Flush() = %v, want ErrNonCanonical", err)
	}
}

// TestWriterCanonicalBoundary pins the boundary: 2^62-1 encodes, 2^62 fails.
func TestWriterCanonicalBoundary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Access(1<<62-1, false)
	if w.Err() != nil {
		t.Fatalf("2^62-1 must be canonical, got %v", w.Err())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Next()
	if err != nil || a.VA != 1<<62-1 {
		t.Fatalf("round trip of boundary VA: %+v, %v", a, err)
	}
}
