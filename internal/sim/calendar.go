package sim

import (
	"math"
	"slices"
)

// This file implements the Scheduler's pending-event queue: a
// Brown-style calendar queue (R. Brown, "Calendar Queues: A Fast O(1)
// Priority Queue Implementation for the Simulation Event Set Problem",
// CACM 1988) behind the At/AtArg/Cancel/Step API. The queue is an array
// of "day" buckets, each holding the events of one width-sized slice of
// simulated time, sorted by (time, insertion sequence). Insertion
// hashes the event's time to its bucket and binary-inserts; popping
// walks the calendar "day by day", firing events whose virtual day has
// arrived. When a full rotation finds nothing (a sparse far-future
// queue), a direct scan of all bucket heads locates the global minimum
// and the calendar jumps there.
//
// Cancellation is lazy: Cancel only bumps the slot generation and drops
// the live count; the stale entry stays in its bucket and is discarded
// when the scan reaches it (slot generations make staleness exact).
// The bucket count and width adapt to the live population, so both a
// 1k-event figure run and a 1M-flow scenario keep O(1) expected
// insert/pop cost.
//
// Every sort key decision is integer-exact and shared between insert
// and scan: an event's virtual day is int64(at/width), computed by the
// same expression everywhere, so no accumulated floating-point drift
// can disagree about which day an event belongs to. FIFO tie-break
// among equal-time events is inherited from the per-bucket (at, seq)
// ordering: equal times always hash to the same bucket.

const (
	// calMinBuckets is the resting bucket-array size (power of two).
	calMinBuckets = 256
	// calMaxBuckets caps adaptive growth; 2^21 buckets comfortably
	// spreads a ~1M-event population at one to two events per bucket.
	calMaxBuckets = 1 << 21
	// calDefaultWidth is the initial day width in simulated seconds,
	// replaced by the measured event-spacing on the first resize.
	calDefaultWidth = 1e-3
)

// calEntry is one pending event in a calendar bucket. It carries the
// (time, sequence) sort key inline, so bucket searches never chase a
// pointer into the slot table, plus the slot generation, so
// lazily-cancelled entries are recognized as dead without a separate
// tombstone structure.
type calEntry struct {
	at   float64
	seq  uint64
	gen  uint64
	slot int32
}

// calQueue is the calendar state embedded in Scheduler. All backing
// storage is value-only (no pointers), so Reset/Release only truncate.
type calQueue struct {
	buckets [][]calEntry // power-of-two day buckets, each (at, seq)-sorted
	heads   []int32      // per-bucket consumed-prefix cursor
	width   float64      // seconds of simulated time per day bucket
	live    int          // pending (non-cancelled) entries
	curV    int64        // virtual day the scan is positioned at
	scratch []calEntry   // resize collection buffer, reused
}

// calReset rewinds the calendar for a fresh scenario, keeping grown
// bucket storage for reuse.
func (s *Scheduler) calReset() {
	c := &s.cal
	if c.buckets == nil {
		c.buckets = make([][]calEntry, calMinBuckets)
		c.heads = make([]int32, calMinBuckets)
	} else {
		for i := range c.buckets {
			c.buckets[i] = c.buckets[i][:0]
			c.heads[i] = 0
		}
	}
	c.width = calDefaultWidth
	c.live = 0
	c.curV = 0
	c.scratch = c.scratch[:0]
}

// calInsert files a claimed slot's entry into its day bucket, keeping
// the bucket (at, seq)-sorted. New events always carry the largest
// sequence number, so among equal times the insertion point is after
// every existing equal-time entry — FIFO for free.
//
// A bucket that always holds a later-year entry never drains, so its
// consumed prefix b[:head] is reclaimed here: when the append would grow
// the backing array, the unconsumed suffix slides to the front instead.
// Bucket capacity therefore tracks the bucket's peak occupancy, not the
// simulated duration.
//
//tfrc:hotpath
func (s *Scheduler) calInsert(at float64, seq uint64, slot int32) {
	c := &s.cal
	idx := int(int64(at/c.width) & int64(len(c.buckets)-1))
	b := c.buckets[idx]
	h := int(c.heads[idx])
	if len(b) == cap(b) && h > 0 {
		b = b[:copy(b, b[h:])]
		h = 0
		c.heads[idx] = 0
	}
	lo, hi := h, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at < b[mid].at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b = append(b, calEntry{}) //tfrclint:allow hotpathalloc amortized bucket growth
	copy(b[lo+1:], b[lo:])
	b[lo] = calEntry{at: at, seq: seq, gen: s.slots[slot].gen, slot: slot}
	c.buckets[idx] = b
	c.live++
	if c.live > 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		s.calResize()
	}
}

// calFind positions the scan at the bucket holding the earliest pending
// entry and returns its index. It advances day by day from curV,
// discarding dead (cancelled) prefix entries as it goes; if a full
// rotation fires nothing — the queue is sparse relative to its span —
// it falls back to a direct minimum scan over all bucket heads and
// jumps the calendar there. Idempotent: a second call without an
// intervening pop/insert returns the same bucket immediately.
//
//tfrc:hotpath
func (s *Scheduler) calFind() (int, bool) {
	c := &s.cal
	if c.live == 0 {
		return 0, false
	}
	mask := int64(len(c.buckets) - 1)
	for range c.buckets {
		idx := int(c.curV & mask)
		b := c.buckets[idx]
		h := int(c.heads[idx])
		for h < len(b) && s.slots[b[h].slot].gen != b[h].gen {
			h++
		}
		if h == len(b) {
			c.buckets[idx] = b[:0]
			c.heads[idx] = 0
		} else {
			c.heads[idx] = int32(h)
			if int64(b[h].at/c.width) <= c.curV {
				return idx, true
			}
		}
		c.curV++
	}
	// Nothing due within one rotation: jump to the global minimum head.
	best := -1
	var bestAt float64
	for idx := range c.buckets {
		b := c.buckets[idx]
		h := int(c.heads[idx])
		for h < len(b) && s.slots[b[h].slot].gen != b[h].gen {
			h++
		}
		if h == len(b) {
			c.buckets[idx] = b[:0]
			c.heads[idx] = 0
			continue
		}
		c.heads[idx] = int32(h)
		if best < 0 || b[h].at < bestAt {
			best, bestAt = idx, b[h].at
		}
	}
	if best < 0 {
		return 0, false
	}
	c.curV = int64(bestAt / c.width)
	return best, true
}

// calPop removes the earliest pending entry and returns its slot and
// firing time.
//
//tfrc:hotpath
func (s *Scheduler) calPop() (int32, float64, bool) {
	idx, ok := s.calFind()
	if !ok {
		return 0, 0, false
	}
	c := &s.cal
	b := c.buckets[idx]
	h := int(c.heads[idx])
	e := b[h]
	if h+1 == len(b) {
		c.buckets[idx] = b[:0]
		c.heads[idx] = 0
	} else {
		c.heads[idx] = int32(h + 1)
	}
	c.live--
	if c.live < len(c.buckets)/8 && len(c.buckets) > calMinBuckets {
		s.calResize()
	}
	return e.slot, e.at, true
}

// calPeek returns the firing time of the earliest pending entry.
//
//tfrc:hotpath
func (s *Scheduler) calPeek() (float64, bool) {
	idx, ok := s.calFind()
	if !ok {
		return 0, false
	}
	c := &s.cal
	return c.buckets[idx][c.heads[idx]].at, true
}

// calResize rebuilds the calendar for the current live population:
// bucket count grows/shrinks to the next power of two covering the
// population (one to two entries per bucket), and the day width is
// re-derived from the live span so a rotation visits the population in
// roughly bucket order. Amortized: triggered only on 2× population
// swings, and the collection buffer is reused across resizes.
func (s *Scheduler) calResize() {
	c := &s.cal
	sc := c.scratch[:0]
	for idx := range c.buckets {
		b := c.buckets[idx]
		for i := int(c.heads[idx]); i < len(b); i++ {
			if s.slots[b[i].slot].gen == b[i].gen {
				sc = append(sc, b[i])
			}
		}
		c.buckets[idx] = b[:0]
		c.heads[idx] = 0
	}
	c.scratch = sc
	c.live = len(sc) // dead entries are gone for good
	slices.SortFunc(sc, func(a, b calEntry) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	nb := calMinBuckets
	for nb < len(sc) && nb < calMaxBuckets {
		nb <<= 1
	}
	if nb != len(c.buckets) {
		if nb <= cap(c.buckets) {
			// Re-extended buckets were left truncated (with reusable
			// capacity) when the calendar last shrank past them.
			c.buckets = c.buckets[:nb]
			c.heads = c.heads[:nb]
		} else {
			nbk := make([][]calEntry, nb)
			copy(nbk, c.buckets) // keep old backing slices for reuse
			c.buckets = nbk
			c.heads = make([]int32, nb)
		}
	}
	if n := len(sc); n >= 2 {
		if span := sc[n-1].at - sc[0].at; span > 0 {
			w := 3 * span / float64(n)
			if !math.IsInf(w, 0) && w > 1e-12 {
				c.width = w
			}
		}
	}
	// Refill in ascending (at, seq) order: per-bucket order holds by
	// construction.
	mask := int64(len(c.buckets) - 1)
	for _, e := range sc {
		idx := int(int64(e.at/c.width) & mask)
		c.buckets[idx] = append(c.buckets[idx], e)
	}
	if len(sc) > 0 {
		c.curV = int64(sc[0].at / c.width)
	} else {
		c.curV = int64(s.now / c.width)
	}
}
