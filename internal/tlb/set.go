// Package tlb implements the set-associative TLB models of §3.1: a
// conventional ("vanilla") TLB mapping VPNs to PFNs, and a mosaic TLB
// mapping MVPNs to tables of contents (ToCs) of compressed physical frame
// numbers. Both share the same cache geometry machinery so that, as in the
// paper's gem5 model, the two designs differ only in what an entry stores.
package tlb

import "fmt"

// set is one associativity set with O(1) lookup and true-LRU replacement,
// generic over the entry payload. Slot 0..ways-1 are chained into an LRU
// list; a map provides tag lookup so fully-associative configurations stay
// O(1).
type set[P any] struct {
	index   map[uint64]int32
	tags    []uint64
	payload []P
	prev    []int32
	next    []int32
	free    []int32
	head    int32 // most recently used
	tail    int32 // least recently used
}

// newSets builds all of a TLB's sets at once, carving every per-slot array
// out of one shared backing allocation per field. The per-set state is
// struct-of-arrays and contiguous across sets — tags with tags, payloads
// with payloads — so a probe touches a handful of adjacent cache lines
// instead of chasing a heap pointer per set, and a whole TLB costs five
// slice allocations (plus the per-set tag indexes) rather than six per
// set. Each set's slices are full-capacity subslices (three-index), so the
// in-place append in invalidate/clear can never write into a neighbour.
func newSets[P any](numSets, ways int) []set[P] {
	n := numSets * ways
	var (
		tags    = make([]uint64, n)
		payload = make([]P, n)
		prev    = make([]int32, n)
		next    = make([]int32, n)
		free    = make([]int32, n)
	)
	sets := make([]set[P], numSets)
	for i := range sets {
		lo, hi := i*ways, (i+1)*ways
		s := &sets[i]
		s.index = make(map[uint64]int32, ways)
		s.tags = tags[lo:hi:hi]
		s.payload = payload[lo:hi:hi]
		s.prev = prev[lo:hi:hi]
		s.next = next[lo:hi:hi]
		s.free = free[lo:lo:hi]
		for j := ways - 1; j >= 0; j-- {
			s.free = append(s.free, int32(j))
		}
		s.head, s.tail = -1, -1
	}
	return sets
}

// table is the storage every TLB design shares: the sets, the index mask,
// and the event counters. Vanilla, Mosaic and Coalesced embed it, so they
// differ only in what an entry stores and how a key picks its set.
type table[P any] struct {
	sets  []set[P]
	mask  uint64
	stats Stats
}

func newTable[P any](geom Geometry) table[P] {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return table[P]{sets: newSets[P](geom.Sets(), geom.Ways), mask: uint64(geom.Sets() - 1)}
}

// set is the set that key indexes, by its low bits.
func (t *table[P]) set(key uint64) *set[P] { return &t.sets[key&t.mask] }

// Stats returns the event counters accumulated so far.
func (t *table[P]) Stats() Stats { return t.stats }

// Flush invalidates every entry (a full TLB flush, as on a non-PCID
// context switch).
func (t *table[P]) Flush() {
	for i := range t.sets {
		t.sets[i].clear()
	}
}

// Len is the number of valid entries.
func (t *table[P]) Len() int {
	n := 0
	for i := range t.sets {
		n += t.sets[i].len()
	}
	return n
}

// Range calls fn for every valid entry, in unspecified order, without
// affecting recency or the counters. The key is the entry's tag: the VPN
// a Vanilla entry was inserted under, the MVPN of a Mosaic entry (in
// memsim, both derive from the ASID-tagged VPN). A payload such as a ToC
// is live and must not be mutated. Range exists for the invariant
// checkers, which audit TLB contents against the page tables.
func (t *table[P]) Range(fn func(key uint64, p P)) {
	for i := range t.sets {
		s := &t.sets[i]
		for tag, slot := range s.index {
			fn(tag, s.payload[slot])
		}
	}
}

// lookup returns the slot holding tag without touching recency. It is the
// probe half of get, kept to a bare map access so the inliner flattens it
// (and therefore the whole TLB probe) into Lookup — inlinegate pins this.
func (s *set[P]) lookup(tag uint64) (int32, bool) {
	i, ok := s.index[tag]
	return i, ok
}

// touch promotes slot i to MRU. The head comparison is the hit fast path
// (repeated lookups of the same tag do no list surgery); only a genuine
// reordering pays the promote call. touch stays under the inlining budget
// precisely because the slow path is a call — inlinegate pins this too.
func (s *set[P]) touch(i int32) {
	if s.head != i {
		s.promote(i)
	}
}

// get returns a pointer to the payload for tag, promoting it to MRU.
func (s *set[P]) get(tag uint64) (*P, bool) {
	i, ok := s.lookup(tag)
	if !ok {
		return nil, false
	}
	s.touch(i)
	return &s.payload[i], true
}

// peek returns the payload without touching recency.
func (s *set[P]) peek(tag uint64) (*P, bool) {
	i, ok := s.index[tag]
	if !ok {
		return nil, false
	}
	return &s.payload[i], true
}

func (s *set[P]) unlink(i int32) {
	if s.prev[i] >= 0 {
		s.next[s.prev[i]] = s.next[i]
	} else {
		s.head = s.next[i]
	}
	if s.next[i] >= 0 {
		s.prev[s.next[i]] = s.prev[i]
	} else {
		s.tail = s.prev[i]
	}
}

func (s *set[P]) pushFront(i int32) {
	s.prev[i] = -1
	s.next[i] = s.head
	if s.head >= 0 {
		s.prev[s.head] = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *set[P]) promote(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// insert adds tag with payload, evicting the LRU entry if the set is full.
// It returns the evicted tag and whether an eviction happened. Inserting an
// existing tag replaces its payload and promotes it.
func (s *set[P]) insert(tag uint64, p P) (evictedTag uint64, evicted bool) {
	if i, ok := s.index[tag]; ok {
		s.payload[i] = p
		s.promote(i)
		return 0, false
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = s.tail
		evictedTag, evicted = s.tags[slot], true
		delete(s.index, evictedTag)
		s.unlink(slot)
	}
	s.tags[slot] = tag
	s.payload[slot] = p
	s.index[tag] = slot
	s.pushFront(slot)
	return evictedTag, evicted
}

// invalidate removes tag from the set, reporting whether it was present.
// The recency order of the remaining entries is unaffected.
func (s *set[P]) invalidate(tag uint64) bool {
	i, ok := s.index[tag]
	if !ok {
		return false
	}
	delete(s.index, tag)
	s.unlink(i)
	var zero P
	s.payload[i] = zero
	s.free = append(s.free, i)
	return true
}

// len is the number of valid entries in the set.
func (s *set[P]) len() int { return len(s.tags) - len(s.free) }

// clear invalidates every entry in the set.
func (s *set[P]) clear() {
	clear(s.index)
	var zero P
	for i := range s.payload {
		s.payload[i] = zero
	}
	s.free = s.free[:0]
	for i := len(s.tags) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.head, s.tail = -1, -1
}

// Geometry describes a TLB's size and associativity.
type Geometry struct {
	// Entries is the total entry count (1024 in Table 1a).
	Entries int
	// Ways is the set associativity; Ways == Entries means fully
	// associative, 1 means direct-mapped.
	Ways int
}

// Validate checks size/associativity consistency; Sets() must be a power of
// two because the index is taken from the low tag bits.
func (g Geometry) Validate() error {
	if g.Entries <= 0 || g.Ways <= 0 {
		return fmt.Errorf("tlb: entries %d and ways %d must be positive", g.Entries, g.Ways)
	}
	if g.Entries%g.Ways != 0 {
		return fmt.Errorf("tlb: entries %d not divisible by ways %d", g.Entries, g.Ways)
	}
	sets := g.Entries / g.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets is the number of associativity sets.
func (g Geometry) Sets() int { return g.Entries / g.Ways }

// String renders the geometry like the paper's figure labels.
func (g Geometry) String() string {
	switch {
	case g.Ways == 1:
		return fmt.Sprintf("%d-entry direct-mapped", g.Entries)
	case g.Ways == g.Entries:
		return fmt.Sprintf("%d-entry fully-associative", g.Entries)
	default:
		return fmt.Sprintf("%d-entry %d-way", g.Entries, g.Ways)
	}
}

// Stats counts TLB events.
type Stats struct {
	// Hits and Misses partition lookups.
	Hits, Misses uint64
	// EntryMisses are misses where no entry matched the tag; SubMisses
	// (mosaic only) are misses where the entry was present but the
	// sub-page's CPFN was invalid. EntryMisses + SubMisses == Misses.
	EntryMisses, SubMisses uint64
	// Evictions counts capacity replacements.
	Evictions uint64
}

// Lookups is Hits + Misses.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// MissRate is Misses / Lookups (zero when idle).
func (s Stats) MissRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Misses) / float64(l)
	}
	return 0
}
