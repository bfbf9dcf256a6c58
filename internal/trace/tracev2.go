package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format v2, the only on-disk and on-wire trace format: one
// varint per record — (zigzag(VA delta) << 1 | write) — block-framed so
// readers decode whole frames straight into reusable Batch buffers and
// validate each frame against its declared shape. The stream is the 4-byte
// magic "MTR2" followed by frames, each:
//
//	uvarint record count | uvarint payload byte length | payload
//
// The delta base resets to zero at every frame boundary (a frame's first
// record carries its absolute VA), so each frame is self-contained: a
// reader can skip frames by their declared length without decoding, frames
// can be appended to an existing file with no shared state beyond the
// header, and a memory-mapped trace can be decoded from any frame boundary.
var magicV2 = [4]byte{'M', 'T', 'R', '2'}

// MaxFrameRecords bounds a frame's record count. The writer splits larger
// batches across frames; the reader rejects a declared count beyond it
// before allocating, so a corrupt header cannot demand an absurd buffer.
const MaxFrameRecords = 1 << 20

// maxRecordBytes is the worst-case encoded size of one record: a full
// 64-bit varint.
const maxRecordBytes = binary.MaxVarintLen64

// BatchWriter streams batches to an io.Writer in the v2 format, one frame
// per WriteBatch call. Errors are sticky: a non-canonical VA or an
// underlying write failure drops all further frames and is reported by Err
// and Flush.
type BatchWriter struct {
	w       *bufio.Writer
	payload []byte
	n       uint64
	frames  uint64
	err     error
	scratch [2 * binary.MaxVarintLen64]byte
}

// NewBatchWriter creates a BatchWriter and emits the v2 header.
func NewBatchWriter(w io.Writer) (*BatchWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return nil, err
	}
	return &BatchWriter{w: bw}, nil
}

// WriteBatch encodes one batch as one frame (several frames when the batch
// exceeds MaxFrameRecords). An empty batch writes nothing.
func (w *BatchWriter) WriteBatch(b Batch) error {
	for w.err == nil && len(b) > MaxFrameRecords {
		w.writeFrame(b[:MaxFrameRecords])
		b = b[MaxFrameRecords:]
	}
	if w.err == nil && len(b) > 0 {
		w.writeFrame(b)
	}
	return w.err
}

func (w *BatchWriter) writeFrame(b Batch) {
	w.payload = w.payload[:0]
	prevVA := uint64(0)
	for _, r := range b {
		va := r.VA()
		if va >= 1<<62 {
			w.err = fmt.Errorf("%w: %#x in record %d", ErrNonCanonical, va, w.n)
			return
		}
		v := zigzag(int64(va-prevVA)) << 1
		prevVA = va
		if r.Write() {
			v |= 1
		}
		w.payload = binary.AppendUvarint(w.payload, v)
		w.n++
	}
	hdr := binary.PutUvarint(w.scratch[:], uint64(len(b)))
	hdr += binary.PutUvarint(w.scratch[hdr:], uint64(len(w.payload)))
	if _, err := w.w.Write(w.scratch[:hdr]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(w.payload); err != nil {
		w.err = err
		return
	}
	w.frames++
}

// ProcessBatch implements BatchSink, so a BatchWriter can terminate a
// batched capture pipeline directly; errors stay sticky for Err/Flush.
func (w *BatchWriter) ProcessBatch(b Batch) { _ = w.WriteBatch(b) }

// Count is the number of records written.
func (w *BatchWriter) Count() uint64 { return w.n }

// Frames is the number of frames written.
func (w *BatchWriter) Frames() uint64 { return w.frames }

// Err reports the first error the writer encountered, or nil.
func (w *BatchWriter) Err() error { return w.err }

// Flush commits buffered frames, returning the sticky error if any.
func (w *BatchWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// BatchReader decodes a v2 trace frame by frame.
type BatchReader struct {
	r       *bufio.Reader
	payload []byte
	n       uint64
}

// NewBatchReader validates the v2 header and returns a BatchReader.
func NewBatchReader(r io.Reader) (*BatchReader, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if hdr != magicV2 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:])
	}
	return &BatchReader{r: br}, nil
}

// nonCanonicalf wraps ErrNonCanonical with frame context.
func (r *BatchReader) nonCanonicalf(format string, args ...any) error {
	return fmt.Errorf("%w: frame after record %d: %s", ErrNonCanonical, r.n, fmt.Sprintf(format, args...))
}

// ReadBatch decodes the next frame into buf's backing storage (growing it
// as needed) and returns the decoded batch; it returns io.EOF at a clean
// end of stream. A frame that is truncated, overlong, or misdeclared —
// header cut short, payload shorter than declared, varints not filling the
// declared length exactly, a VA outside the canonical 62-bit range —
// yields ErrNonCanonical.
func (r *BatchReader) ReadBatch(buf Batch) (Batch, error) {
	count, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, r.nonCanonicalf("truncated frame header: %v", err)
	}
	plen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, r.nonCanonicalf("truncated frame header: %v", err)
	}
	if count == 0 || count > MaxFrameRecords {
		return nil, r.nonCanonicalf("record count %d outside [1, %d]", count, MaxFrameRecords)
	}
	if plen < count || plen > count*maxRecordBytes {
		return nil, r.nonCanonicalf("payload length %d impossible for %d records", plen, count)
	}
	if uint64(cap(r.payload)) < plen {
		r.payload = make([]byte, plen)
	}
	payload := r.payload[:plen]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, r.nonCanonicalf("truncated payload: %v", err)
	}
	buf = buf[:0]
	va := uint64(0)
	off := 0
	for k := uint64(0); k < count; k++ {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, r.nonCanonicalf("record %d: truncated or oversized varint", k)
		}
		off += n
		va += uint64(unzigzag(v >> 1))
		if va >= 1<<62 {
			return nil, r.nonCanonicalf("record %d: VA %#x outside the canonical range", k, va)
		}
		buf = append(buf, Ref(va<<1|v&1))
	}
	if off != len(payload) {
		return nil, r.nonCanonicalf("%d payload bytes left after %d records", len(payload)-off, count)
	}
	r.n += count
	return buf, nil
}

// Count is the number of records decoded so far.
func (r *BatchReader) Count() uint64 { return r.n }

// ReplayBatches streams every frame into sink, reusing one decode buffer,
// and returns the record count.
func (r *BatchReader) ReplayBatches(sink BatchSink) (uint64, error) {
	var n uint64
	buf := make(Batch, 0, DefaultBatchSize)
	for {
		b, err := r.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sink.ProcessBatch(b)
		n += uint64(len(b))
		buf = b
	}
}

var _ BatchSink = (*BatchWriter)(nil)
