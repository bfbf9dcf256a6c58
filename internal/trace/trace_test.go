package trace

import (
	"bytes"
	"errors"
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

// TestSequentialTraceIsCompact: delta encoding makes a sequential 8-byte
// stride scan cost about one byte per record.
func TestSequentialTraceIsCompact(t *testing.T) {
	accesses := make([]Access, 10000)
	for i := range accesses {
		accesses[i] = Access{VA: 0x10000000 + uint64(i)*8}
	}
	data := writeV2(t, accesses, DefaultBatchSize)
	if perRec := float64(len(data)) / float64(len(accesses)); perRec > 1.5 {
		t.Errorf("sequential trace costs %.2f bytes/record", perRec)
	}
}

// TestWriterCanonicalBoundary: 2^62-1, the largest canonical VA, is
// accepted by the writer and survives the round trip.
func TestWriterCanonicalBoundary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.WriteBatch(Batch{MakeRef(1<<62-1, false)})
	if w.Err() != nil {
		t.Fatalf("2^62-1 must be canonical, got %v", w.Err())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readAllV2(t, buf.Bytes())
	if len(got) != 1 || got[0].VA != 1<<62-1 || got[0].Write {
		t.Fatalf("round trip of boundary VA: %+v", got)
	}
}

// TestBadHeader: a stream without the MTR2 magic — foreign bytes, a short
// header, or another format's magic — is rejected before any frame.
func TestBadHeader(t *testing.T) {
	for _, hdr := range []string{"XXXX123", "MT", "MTR1\x10"} {
		if _, err := NewBatchReader(bytes.NewReader([]byte(hdr))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("header %q: err = %v, want ErrBadTrace", hdr, err)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVARoundTripProperty: arbitrary canonical VA streams survive a
// one-frame encode/decode.
func TestVARoundTripProperty(t *testing.T) {
	f := func(vas []uint64) bool {
		b := make(Batch, len(vas))
		for i, va := range vas {
			b[i] = MakeRef(va&(1<<62-1), va%3 == 0)
		}
		var buf bytes.Buffer
		w, _ := NewBatchWriter(&buf)
		if w.WriteBatch(b) != nil || w.Flush() != nil {
			return false
		}
		r, err := NewBatchReader(&buf)
		if err != nil {
			return false
		}
		var rec Recorder
		n, err := r.ReplayBatches(&rec)
		if err != nil || n != uint64(len(b)) {
			return false
		}
		for i, a := range rec.Accesses {
			if MakeRef(a.VA, a.Write) != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
