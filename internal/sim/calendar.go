package sim

import (
	"math"
	"math/bits"
	"slices"
)

// This file implements the Scheduler's pending-event queue: a
// Brown-style calendar queue (R. Brown, "Calendar Queues: A Fast O(1)
// Priority Queue Implementation for the Simulation Event Set Problem",
// CACM 1988) behind the At/AtArg/Cancel/Step API. The queue is an array
// of "day" buckets, each holding the events of one width-sized slice of
// simulated time, sorted by (time, insertion sequence). Insertion
// hashes the event's time to its bucket and appends when the event sorts
// last there (the common case), binary-inserting otherwise; popping
// walks the calendar "day by day", firing events whose virtual day has
// arrived. When a full rotation finds nothing (a sparse far-future
// queue), a direct scan of all bucket heads locates the global minimum
// and the calendar jumps there. One search serves each fired event:
// calFind leaves the scan on the earliest entry, and Step and RunUntil
// pop it from there.
//
// Entries are settled lazily, when the scan reaches them. A cancelled
// event's entry is dead — its slot generation has moved on — and the
// scan discards it. A postponed event (Timer.Reset to a deadline no
// earlier than the pending one) keeps its entry at the old key while its
// slot carries the new (time, sequence); the scan, or a resize, re-files
// the entry at the slot's key when it reaches it. A stored key is never
// later than its event's true key, so the scan still meets every event
// no later than its turn.
//
// Bucket storage follows the occupied buckets, not their history. A
// bucket that drains hands an array above calRestCap to the spare
// stacks, one per power-of-two capacity class, and a bucket that must
// grow takes an array of the next class from them before it allocates,
// leaving its outgrown array behind. A bucket that never drains (it
// holds a later-year entry) reclaims its consumed prefix before it
// grows. The bucket count and width adapt to the live
// population, so both a 1k-event figure run and a 1M-flow scenario keep
// O(1) expected insert/pop cost.
//
// Every sort key decision is integer-exact and shared between insert
// and scan: an event's virtual day is int64(at*inv), where the
// reciprocal width inv is stored once at each width change and used by
// every site, so no accumulated floating-point drift can disagree about
// which day an event belongs to. FIFO tie-break among equal-time events
// is inherited from the per-bucket (at, seq) ordering: equal times
// always hash to the same bucket.

const (
	// calMinBuckets is the resting bucket-array size (power of two).
	calMinBuckets = 256
	// calMaxBuckets caps adaptive growth; 2^21 buckets comfortably
	// spreads a ~1M-event population at one to two events per bucket.
	calMaxBuckets = 1 << 21
	// calDefaultWidth is the initial day width in simulated seconds,
	// replaced by the measured event-spacing on the first resize.
	calDefaultWidth = 1e-3
	// calRestCap, 2^calRestClass, is the resting bucket capacity: the
	// smallest array a bucket is given and the largest a drained bucket
	// keeps. A larger one goes to the spare stacks for the next bucket
	// that must grow.
	calRestClass = 2
	calRestCap   = 1 << calRestClass
	// calClasses is the number of spare capacity classes: class k holds
	// arrays with capacity in [2^k, 2^(k+1)), and a bucket's length fits
	// in the int32 head cursor.
	calClasses = 32
)

// calEntry is one pending event in a calendar bucket. It carries the
// (time, sequence) sort key inline, so bucket searches never chase a
// pointer into the slot table, plus the slot generation, so
// lazily-cancelled entries are recognized as dead without a separate
// tombstone structure. A live entry whose seq differs from its slot's
// was postponed and is re-filed at the slot's key.
type calEntry struct {
	at   float64
	seq  uint64
	gen  uint64
	slot int32
}

// calQueue is the calendar state embedded in Scheduler. All backing
// storage is value-only (no pointers), so Reset/Release never clear it.
type calQueue struct {
	buckets [][]calEntry             // power-of-two day buckets, each (at, seq)-sorted
	heads   []int32                  // per-bucket consumed-prefix cursor
	inv     float64                  // days per simulated second: 1/width
	live    int                      // pending (non-cancelled) entries
	curV    int64                    // virtual day the scan is positioned at
	spare   [calClasses][][]calEntry // empty bucket arrays by capacity class
	scratch []calEntry               // resize collection buffer, reused
}

// day returns the virtual day of time at.
//
//tfrc:hotpath
func (c *calQueue) day(at float64) int64 { return int64(at * c.inv) }

// calReset rewinds the calendar for a fresh scenario, keeping grown
// bucket storage for reuse.
func (s *Scheduler) calReset() {
	c := &s.cal
	if c.buckets == nil {
		c.buckets = make([][]calEntry, calMinBuckets)
		c.heads = make([]int32, calMinBuckets)
	}
	for i := range c.buckets {
		c.drain(i)
	}
	c.inv = 1 / calDefaultWidth
	c.live = 0
	c.curV = 0
	c.scratch = c.scratch[:0]
}

// calInsert files a claimed slot's entry and counts it live.
//
//tfrc:hotpath
func (s *Scheduler) calInsert(at float64, seq uint64, slot int32) {
	s.calFile(calEntry{at: at, seq: seq, gen: s.slots[slot].gen, slot: slot})
	c := &s.cal
	c.live++
	if c.live > 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		s.calResize()
	}
}

// calFile files e into its day bucket, keeping the bucket (at, seq)-
// sorted. A fresh insert carries the largest sequence yet, so it lands
// after every equal-time entry — FIFO for free; a re-filed postponed
// entry carries the sequence its postpone reserved.
//
// A full bucket first reclaims its consumed prefix b[:head], sliding the
// unconsumed suffix to the front; only a bucket with no prefix to
// reclaim grows. Bucket capacity therefore tracks the bucket's
// occupancy, not the simulated duration.
//
//tfrc:hotpath
func (s *Scheduler) calFile(e calEntry) {
	c := &s.cal
	v := c.day(e.at)
	if v < c.curV {
		// RunUntil's lookahead or a resize left the scan on the earliest
		// pending entry, and e sorts ahead of it.
		c.curV = v
	}
	idx := int(v & int64(len(c.buckets)-1))
	b := c.buckets[idx]
	h := int(c.heads[idx])
	if len(b) == cap(b) {
		if h > 0 {
			b = b[:copy(b, b[h:])]
			h = 0
			c.heads[idx] = 0
		} else {
			b = c.grow(b)
		}
	}
	n := len(b)
	b = b[:n+1]
	p := n
	if n > h && e.at < b[n-1].at {
		lo, hi := h, n-1 // the first later entry lies in [lo, hi]
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if e.at < b[mid].at {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		p = lo
	}
	for p > h && b[p-1].at == e.at && b[p-1].seq > e.seq {
		p-- // a re-filed entry goes ahead of later-sequenced ties
	}
	copy(b[p+1:], b[p:n])
	b[p] = e
	c.buckets[idx] = b
}

// grow returns an array holding the full bucket b's entries with room
// for more, and files b's own array as spare. It takes the array from
// the smallest spare class whose every array holds more than b, and
// allocates (doubling) only when that class is empty, so a run whose
// occupancy pattern repeats stops allocating after its first cycle.
//
//tfrc:hotpath
func (c *calQueue) grow(b []calEntry) []calEntry {
	var nb []calEntry
	k := max(bits.Len(uint(len(b))), calRestClass)
	if st := c.spare[k]; len(st) > 0 {
		nb, c.spare[k] = st[len(st)-1], st[:len(st)-1]
	} else if cap(b) < calRestCap {
		nb = append(b, make([]calEntry, calRestCap)...)[:0] //tfrclint:allow hotpathalloc amortized bucket growth
	} else {
		nb = append(b, calEntry{})[:0] //tfrclint:allow hotpathalloc amortized bucket growth
	}
	c.putSpare(b)
	return append(nb, b...) //tfrclint:allow hotpathalloc copy into nb's free capacity
}

// putSpare files b's backing array on the spare stack of its capacity
// class. The entries are value-only, so nothing needs clearing.
//
//tfrc:hotpath
func (c *calQueue) putSpare(b []calEntry) {
	if cap(b) == 0 {
		return
	}
	k := bits.Len(uint(cap(b))) - 1
	c.spare[k] = append(c.spare[k], b[:0]) //tfrclint:allow hotpathalloc amortized stack growth
}

// drain empties bucket idx. An array above calRestCap goes to the spare
// stacks and the bucket is left without one until its next insert.
//
//tfrc:hotpath
func (c *calQueue) drain(idx int) {
	b := c.buckets[idx][:0]
	c.heads[idx] = 0
	if cap(b) > calRestCap {
		c.putSpare(b)
		b = nil
	}
	c.buckets[idx] = b
}

// calFind positions the scan at the bucket holding the earliest pending
// entry and returns its index and firing time. It advances day by day
// from curV, discarding dead (cancelled) prefix entries and re-filing
// postponed ones as it goes; if a full rotation fires nothing — the
// queue is sparse relative to its span — it falls back to a direct
// minimum scan over all bucket heads and jumps the calendar there.
// Idempotent: a second call without an intervening pop/insert returns
// the same bucket immediately.
//
//tfrc:hotpath
func (s *Scheduler) calFind() (int, float64, bool) {
	c := &s.cal
	if c.live == 0 {
		return 0, 0, false
	}
	mask := int64(len(c.buckets) - 1)
	for {
		for range c.buckets {
			idx := int(c.curV & mask)
			b := c.buckets[idx]
			h := int(c.heads[idx])
			for h < len(b) {
				e := &b[h]
				sl := &s.slots[e.slot]
				if sl.gen != e.gen {
					h++ // cancelled
					continue
				}
				if c.day(e.at) > c.curV {
					break // the bucket's next entry is a later year's
				}
				if sl.seq == e.seq {
					c.heads[idx] = int32(h)
					return idx, e.at, true
				}
				// Postponed: re-file at the slot's key, then look again.
				c.heads[idx] = int32(h + 1)
				s.calFile(calEntry{at: sl.at, seq: sl.seq, gen: e.gen, slot: e.slot})
				b, h = c.buckets[idx], int(c.heads[idx])
			}
			if h == len(b) {
				c.drain(idx)
			} else {
				c.heads[idx] = int32(h)
			}
			c.curV++
		}
		// Nothing due within one rotation: jump to the earliest head.
		// Its stored key may be a postponed entry's old one, which the
		// rotation then re-files.
		best := -1
		var bestAt float64
		for idx := range c.buckets {
			b := c.buckets[idx]
			h := int(c.heads[idx])
			for h < len(b) && s.slots[b[h].slot].gen != b[h].gen {
				h++
			}
			if h == len(b) {
				c.drain(idx)
				continue
			}
			c.heads[idx] = int32(h)
			if best < 0 || b[h].at < bestAt {
				best, bestAt = idx, b[h].at
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		c.curV = c.day(bestAt)
	}
}

// calPopHead removes the entry calFind just returned from the head of
// bucket idx and returns its slot.
//
//tfrc:hotpath
func (s *Scheduler) calPopHead(idx int) int32 {
	c := &s.cal
	b := c.buckets[idx]
	h := int(c.heads[idx])
	slot := b[h].slot
	if h+1 == len(b) {
		c.drain(idx)
	} else {
		c.heads[idx] = int32(h + 1)
	}
	c.live--
	if c.live < len(c.buckets)/8 && len(c.buckets) > calMinBuckets {
		s.calResize()
	}
	return slot
}

// calResize rebuilds the calendar for the current live population:
// bucket count grows/shrinks to the next power of two covering the
// population (one to two entries per bucket), and the day width is
// re-derived from the live span so a rotation visits the population in
// roughly bucket order. Postponed entries are re-filed at their slots'
// keys. Amortized: triggered only on 2× population swings, and the
// collection buffer is reused across resizes.
func (s *Scheduler) calResize() {
	c := &s.cal
	sc := c.scratch[:0]
	for idx := range c.buckets {
		b := c.buckets[idx]
		for i := int(c.heads[idx]); i < len(b); i++ {
			e := b[i]
			if sl := &s.slots[e.slot]; sl.gen == e.gen {
				e.at, e.seq = sl.at, sl.seq
				sc = append(sc, e)
			}
		}
		c.drain(idx)
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
	if nb < len(c.buckets) {
		// The dropped buckets' resting arrays serve later inserts.
		for idx := nb; idx < len(c.buckets); idx++ {
			c.putSpare(c.buckets[idx])
			c.buckets[idx] = nil
		}
		c.buckets = c.buckets[:nb]
		c.heads = c.heads[:nb]
	} else if nb > len(c.buckets) {
		if nb <= cap(c.buckets) {
			// Re-extended buckets were left nil when the calendar last
			// shrank past them.
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
				c.inv = 1 / w
			}
		}
	}
	// Refill in ascending (at, seq) order: per-bucket order holds by
	// construction.
	mask := int64(len(c.buckets) - 1)
	for _, e := range sc {
		idx := int(c.day(e.at) & mask)
		b := c.buckets[idx]
		if len(b) == cap(b) {
			b = c.grow(b)
		}
		c.buckets[idx] = append(b, e)
	}
	if len(sc) > 0 {
		c.curV = c.day(sc[0].at)
	} else {
		c.curV = c.day(s.now)
	}
}
