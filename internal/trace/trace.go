// Package trace defines the memory-reference stream flowing from workloads
// into the memory-system simulator, with capture, replay, and a compact
// binary encoding for storing traces on disk.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Access is one data memory reference.
type Access struct {
	// VA is the virtual address.
	VA uint64
	// Write reports whether the reference is a store.
	Write bool
}

// Sink is the per-reference emit interface: a generator's inner loop calls
// Access on a *Batcher, which packs the stream into Batches for its
// BatchSink, and the v1 Writer encodes one record per call. Consumers take
// whole batches (BatchSink).
type Sink interface {
	Access(va uint64, write bool)
}

// Discard is a BatchSink that drops all references (for dry runs).
var Discard BatchSink = discard{}

type discard struct{}

func (discard) ProcessBatch(Batch) {}

// Counter is a BatchSink that counts references.
type Counter struct {
	Reads, Writes uint64
}

// ProcessBatch implements BatchSink.
func (c *Counter) ProcessBatch(b Batch) {
	for _, r := range b {
		if r.Write() {
			c.Writes++
		} else {
			c.Reads++
		}
	}
}

// Total is Reads + Writes.
func (c *Counter) Total() uint64 { return c.Reads + c.Writes }

// Recorder is a BatchSink that retains the stream in memory.
type Recorder struct {
	Accesses []Access
}

// ProcessBatch implements BatchSink.
func (r *Recorder) ProcessBatch(b Batch) {
	for _, ref := range b {
		r.Accesses = append(r.Accesses, Access{VA: ref.VA(), Write: ref.Write()})
	}
}

// Binary format: magic, version, then per record a varint holding
// (zigzag(VA delta) << 1 | write). Deltas keep sequential patterns tiny.
var magic = [4]byte{'M', 'T', 'R', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace")

// ErrNonCanonical reports a stream outside the canonical encoding: an
// access whose virtual address exceeds the canonical 62-bit range the
// record format can represent, or (format v2) a frame whose bytes do not
// decode to exactly its declared shape — truncated header or payload,
// varints that under- or over-fill the declared length, or a decoded VA
// beyond the canonical range.
var ErrNonCanonical = errors.New("trace: stream outside the canonical encoding")

// Writer streams accesses to an io.Writer in the binary format.
type Writer struct {
	w      *bufio.Writer
	prevVA uint64
	n      uint64
	err    error
	buf    [binary.MaxVarintLen64 + 1]byte
}

// NewWriter creates a Writer and emits the header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Access implements Sink. va must be a canonical virtual address (below
// 2^62, comfortably above any architecture's VA width) so that the
// zigzagged delta fits the 63 bits the record format allots it. A
// non-canonical address sets a sticky ErrNonCanonical and drops the record
// (and all subsequent ones): Sink has no error return, so — like encoding
// errors — the failure is reported by Err and Flush rather than by
// panicking in the middle of a long-running capture.
func (w *Writer) Access(va uint64, write bool) {
	if w.err != nil {
		return
	}
	if va >= 1<<62 {
		w.err = fmt.Errorf("%w: %#x in record %d", ErrNonCanonical, va, w.n)
		return
	}
	d := zigzag(int64(va - w.prevVA))
	w.prevVA = va
	v := d << 1
	if write {
		v |= 1
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, _ = w.w.Write(w.buf[:n])
	w.n++
}

// ProcessBatch implements BatchSink, so a Writer can terminate a batch
// pipeline: each reference is encoded exactly as Access would encode it.
func (w *Writer) ProcessBatch(b Batch) {
	for _, r := range b {
		w.Access(r.VA(), r.Write())
	}
}

// Count is the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Err reports the first error the Writer encountered (ErrNonCanonical
// input, for now), or nil. Once set, the Writer drops further records.
func (w *Writer) Err() error { return w.err }

// Flush commits buffered records. It returns the Writer's sticky error, if
// any, so capture pipelines that only check Flush still see encoding
// failures.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes a binary trace.
type Reader struct {
	r      *bufio.Reader
	prevVA uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:])
	}
	return &Reader{r: br}, nil
}

// Next decodes one record; it returns io.EOF at a clean end of stream.
func (r *Reader) Next() (Access, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Access{}, io.EOF
		}
		return Access{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	write := v&1 != 0
	r.prevVA += uint64(unzigzag(v >> 1))
	return Access{VA: r.prevVA, Write: write}, nil
}

// ReplayAll streams every record into sink, returning the record count.
func (r *Reader) ReplayAll(sink Sink) (uint64, error) {
	var n uint64
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sink.Access(a.VA, a.Write)
		n++
	}
}
