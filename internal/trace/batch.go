package trace

import "sync"

// Batched references: every producer hands its stream to its consumer as
// whole Batches. A Batch packs many references into one contiguous []Ref so
// the stream crosses interface boundaries once per few thousand references,
// the consumer's inner loop runs over cache-resident words, and decoders
// can reuse one buffer for the life of a replay.

// Ref packs one reference into a single word: VA<<1 | writeBit. The VA must
// be canonical (below 2^62, as the binary trace formats already require), so
// the shifted form always fits.
type Ref uint64

// MakeRef packs a reference.
func MakeRef(va uint64, write bool) Ref {
	r := Ref(va << 1)
	if write {
		r |= 1
	}
	return r
}

// VA is the reference's virtual address.
func (r Ref) VA() uint64 { return uint64(r) >> 1 }

// Write reports whether the reference is a store.
func (r Ref) Write() bool { return r&1 != 0 }

// Batch is a run of packed references in stream order.
type Batch []Ref

// DefaultBatchSize is the batch granularity the replay engine uses when the
// caller does not choose one: 4096 refs = 32 KiB of packed words, small
// enough to stay L1/L2-resident while amortizing per-batch dispatch to
// nothing.
const DefaultBatchSize = 4096

// BatchSink consumes whole batches: it is the one interface every reference
// producer (workload generators, trace decoders) delivers through. The
// references in a batch are in stream order; a BatchSink may amortize
// dispatch and per-reference branching, but not reorder or drop.
type BatchSink interface {
	ProcessBatch(b Batch)
}

// Batcher is a Sink that accumulates references into a fixed-capacity batch
// and hands full batches to Next. The per-reference cost is one packed store
// and a boundary compare — no dynamic dispatch until a batch fills. Call
// Flush after the stream ends to deliver the partial tail.
type Batcher struct {
	// Next receives each full batch and the flushed tail.
	Next BatchSink
	buf  Batch
	i    int
}

// NewBatcher builds a Batcher delivering batches of the given size
// (DefaultBatchSize when size <= 0) to next.
func NewBatcher(next BatchSink, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &Batcher{Next: next, buf: make(Batch, size)}
}

// Access implements Sink. The body is MakeRef flattened by hand and the
// batch-boundary store lives out of line in deliver: what remains — pack,
// store, increment, one compare — sits under the compiler's inlining budget,
// so producers that call Access on the concrete *Batcher get the whole fast
// path inlined into their innermost loop.
func (b *Batcher) Access(va uint64, write bool) {
	r := Ref(va << 1)
	if write {
		r |= 1
	}
	if b.i == len(b.buf)-1 {
		b.deliver(r)
		return
	}
	b.buf[b.i] = r
	b.i++
}

// deliver stores the batch's final reference and hands the full buffer
// downstream. It must stay out of line: inlined into Access, its dynamic
// ProcessBatch call would push Access past the inlining budget, putting a
// call back into every producer's innermost loop.
//
//go:noinline
func (b *Batcher) deliver(r Ref) {
	b.buf[b.i] = r
	b.Next.ProcessBatch(b.buf)
	b.i = 0
}

// Flush delivers the buffered tail, if any. A stream ending mid-buffer hands
// its partial batch downstream exactly once: delivery resets the fill index,
// so a second Flush (or one right after a full-batch boundary) is a no-op.
func (b *Batcher) Flush() {
	if b.i > 0 {
		b.Next.ProcessBatch(b.buf[:b.i])
		b.i = 0
	}
}

// batcherPool recycles Batcher buffers across workload runs so a generator's
// whole batch leg costs no per-run allocation beyond the pool hit.
var batcherPool = sync.Pool{
	New: func() any { return &Batcher{buf: make(Batch, DefaultBatchSize)} },
}

// GetBatcher returns a pooled Batcher (DefaultBatchSize) delivering to next.
// Return it with PutBatcher when the run ends; the caller still flushes the
// tail itself, on the normal path only, so an aborted run delivers nothing
// past its abort point.
func GetBatcher(next BatchSink) *Batcher {
	b := batcherPool.Get().(*Batcher)
	b.Next = next
	b.i = 0
	return b
}

// PutBatcher recycles b. Safe to call with undelivered references buffered
// (an aborted run): they are discarded, never delivered. The sink reference
// is dropped so the pool does not pin it.
func PutBatcher(b *Batcher) {
	b.Next = nil
	b.i = 0
	batcherPool.Put(b)
}

var _ Sink = (*Batcher)(nil)
