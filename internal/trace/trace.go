// Package trace defines the memory-reference stream flowing from workloads
// into the memory-system simulator, with capture, replay, and a compact
// binary encoding for storing traces on disk.
package trace

import "errors"

// Access is one data memory reference.
type Access struct {
	// VA is the virtual address.
	VA uint64
	// Write reports whether the reference is a store.
	Write bool
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

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace")

// ErrNonCanonical reports a stream outside the canonical encoding: an
// access whose virtual address exceeds the canonical 62-bit range the
// record format can represent, or a frame whose bytes do not decode to
// exactly its declared shape — truncated header or payload, varints that
// under- or over-fill the declared length, or a decoded VA beyond the
// canonical range.
var ErrNonCanonical = errors.New("trace: stream outside the canonical encoding")

// zigzag maps a signed VA delta onto an unsigned varint payload so small
// deltas of either sign stay small; unzigzag inverts it.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
