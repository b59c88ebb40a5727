package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []float64
	times := []float64{5, 1, 3, 2, 4, 0.5, 2.5}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d events, want %d", len(got), len(times))
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestSchedulerFIFOAtEqualTimes(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d] = %d", i, v)
		}
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var fired float64
	s.At(2, func() {
		s.After(3, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 5 {
		t.Fatalf("After fired at %v, want 5", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.At(1, func() { ran = true })
	s.Cancel(e)
	s.Run()
	if ran {
		t.Fatal("cancelled event still fired")
	}
	// Double-cancel and cancel-after-fire must be safe.
	s.Cancel(e)
	e2 := s.At(2, func() {})
	s.Run()
	s.Cancel(e2)
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=2.5, want 2", len(fired))
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	if s.Len() != 7 {
		t.Fatalf("queue has %d events, want 7", s.Len())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestSchedulerEventReuse(t *testing.T) {
	// Recycled Event structs must not resurrect stale callbacks.
	s := NewScheduler()
	bad := false
	e := s.At(1, func() { bad = true })
	s.Cancel(e)
	ok := false
	s.At(1, func() { ok = true })
	s.Run()
	if bad || !ok {
		t.Fatalf("event reuse broken: bad=%v ok=%v", bad, ok)
	}
}

func TestSchedulerStaleHandleCannotCancelReusedEvent(t *testing.T) {
	// Regression: the free list recycles Event structs, so a handle kept
	// past its event's firing may point at a struct reused by a later,
	// unrelated event. Cancelling through the stale handle must not touch
	// the new event.
	s := NewScheduler()
	stale := s.At(1, func() {})
	s.Run() // fires; the Event struct goes back on the free list

	ran := false
	fresh := s.At(2, func() { ran = true }) // reuses the recycled struct
	if stale.Scheduled() {
		t.Fatal("stale handle reports Scheduled after its event fired")
	}
	s.Cancel(stale) // must be a no-op
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel killed an unrelated later event")
	}
	s.Run()
	if !ran {
		t.Fatal("reused event did not fire")
	}

	// Same via cancellation: a handle invalidated by Cancel must not be
	// able to cancel the struct's next occupant either.
	cancelled := s.At(3, func() {})
	s.Cancel(cancelled)
	ran2 := false
	fresh2 := s.At(4, func() { ran2 = true })
	s.Cancel(cancelled)
	if !fresh2.Scheduled() {
		t.Fatal("double Cancel through a stale handle killed a new event")
	}
	s.Run()
	if !ran2 {
		t.Fatal("event after stale double-cancel did not fire")
	}
}

func TestSchedulerAtArg(t *testing.T) {
	s := NewScheduler()
	var got []int
	record := func(x any) { got = append(got, x.(int)) }
	s.AtArg(2, record, 2)
	s.AfterArg(1, record, 1)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AtArg order/args wrong: %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.AfterArg(1, record, 7)
		s.Step()
	}); allocs > 0 {
		t.Fatalf("AtArg steady state allocates %v per event, want 0", allocs)
	}
}

func TestSchedulerPropertyOrdered(t *testing.T) {
	// Property: for any set of event times, firing order is sorted.
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var got []float64
		for _, v := range raw {
			at := float64(v) / 100
			s.At(at, func() { got = append(got, at) })
		}
		s.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetStop(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(1)
	tm.Reset(2) // supersedes the first arm
	if d, ok := tm.Deadline(); !ok || d != 2 {
		t.Fatalf("deadline = %v,%v want 2,true", d, ok)
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after fire")
	}
	tm.Reset(1)
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Fatalf("stopped timer fired; count = %d", fired)
	}
	if _, ok := tm.Deadline(); ok {
		t.Fatal("idle timer reports a deadline")
	}
}

func TestTimerResetNonFinitePanics(t *testing.T) {
	// A pending timer pushed to +Inf takes the postpone path, which must
	// reject the time as scheduling would.
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	tm.Reset(1)
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a pending timer at +Inf did not panic")
		}
	}()
	tm.ResetAt(math.Inf(1))
}

func TestTimerRearmFromCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		n++
		if n < 5 {
			tm.Reset(1)
		}
	})
	tm.Reset(1)
	s.Run()
	if n != 5 {
		t.Fatalf("periodic rearm ran %d times, want 5", n)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandUniformRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(0.080, 0.120)
		if v < 0.080 || v >= 0.120 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRandParetoMean(t *testing.T) {
	r := NewRand(7)
	const mean, alpha, n = 1.0, 1.5, 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Pareto(mean, alpha)
	}
	got := sum / n
	// Heavy tail converges slowly; allow 15%.
	if got < mean*0.85 || got > mean*1.15 {
		t.Fatalf("Pareto sample mean = %v, want ≈ %v", got, mean)
	}
}

func TestRandParetoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto with alpha ≤ 1 did not panic")
		}
	}()
	NewRand(1).Pareto(1, 1)
}

func TestRandExponentialMean(t *testing.T) {
	r := NewRand(3)
	const mean, n = 2.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	if got := sum / n; got < mean*0.97 || got > mean*1.03 {
		t.Fatalf("Exponential sample mean = %v, want ≈ %v", got, mean)
	}
}

func TestRandBernoulli(t *testing.T) {
	r := NewRand(9)
	hits := 0
	const n, p = 100000, 0.3
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < p-0.01 || got > p+0.01 {
		t.Fatalf("Bernoulli rate = %v, want ≈ %v", got, p)
	}
}

// --- Differential test: calendar queue vs a naive sorted-slice queue ---

// refEvent is one event in the reference implementation: a slice kept
// sorted by (time, sequence) with linear insertion, too slow to use but
// trivially correct.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

type refQueue struct {
	events []refEvent
	seq    uint64
}

func (q *refQueue) schedule(at float64, id int) uint64 {
	e := refEvent{at: at, seq: q.seq, id: id}
	q.seq++
	i := len(q.events)
	for i > 0 {
		p := q.events[i-1]
		if p.at < e.at || (p.at == e.at && p.seq < e.seq) {
			break
		}
		i--
	}
	q.events = append(q.events, refEvent{})
	copy(q.events[i+1:], q.events[i:])
	q.events[i] = e
	return e.seq
}

func (q *refQueue) cancel(seq uint64) {
	for i, e := range q.events {
		if e.seq == seq {
			q.events = append(q.events[:i], q.events[i+1:]...)
			return
		}
	}
}

func (q *refQueue) pop() (refEvent, bool) {
	if len(q.events) == 0 {
		return refEvent{}, false
	}
	e := q.events[0]
	q.events = q.events[1:]
	return e, true
}

// lockstep drives a Scheduler and the reference queue through the same
// operations and fails the test at the first disagreement.
type lockstep struct {
	t      *testing.T
	name   string
	s      *Scheduler
	ref    refQueue
	fired  []int
	nextID int
}

// issued is one event scheduled through a lockstep.
type issued struct {
	h   Handle
	seq uint64
	id  int
}

func (l *lockstep) record(x any) { l.fired = append(l.fired, x.(int)) }

// schedule queues one event at absolute time at in both queues, through
// At (the func() form) or AtArg (the arg form).
func (l *lockstep) schedule(at float64, closure bool) issued {
	id := l.nextID
	l.nextID++
	var h Handle
	if closure {
		h = l.s.At(at, func() { l.fired = append(l.fired, id) })
	} else {
		h = l.s.AtArg(at, l.record, id)
	}
	return issued{h: h, seq: l.ref.schedule(at, id), id: id}
}

// cancel cancels x in both queues; x may be live or stale.
func (l *lockstep) cancel(x issued) {
	l.s.Cancel(x.h)
	l.ref.cancel(x.seq)
}

// step fires the earliest event in both queues and checks identity and
// time. It returns the fired id, or -1 once both are empty.
func (l *lockstep) step() int {
	l.t.Helper()
	l.fired = l.fired[:0]
	want, ok := l.ref.pop()
	if got := l.s.Step(); got != ok {
		l.t.Fatalf("%s: Step = %v, reference = %v", l.name, got, ok)
	}
	if !ok {
		return -1
	}
	if len(l.fired) != 1 || l.fired[0] != want.id {
		l.t.Fatalf("%s: fired %v, reference expects id %d", l.name, l.fired, want.id)
	}
	if l.s.Now() != want.at {
		l.t.Fatalf("%s: clock %v after firing, reference says %v", l.name, l.s.Now(), want.at)
	}
	return want.id
}

// lockTimer is one Timer driven through a lockstep. The reference
// models every re-arm as a cancel plus a fresh insert.
type lockTimer struct {
	tm      Timer
	id      int
	seq     uint64  // reference sequence of the pending firing
	at      float64 // pending deadline, valid while pending
	pending bool
}

// newTimer returns an idle timer whose firing records its id.
func (l *lockstep) newTimer() *lockTimer {
	x := &lockTimer{id: l.nextID}
	l.nextID++
	x.tm.InitArg(l.s, l.record, x.id)
	return x
}

// rearm re-arms x at absolute time at in both queues and checks that a
// pending exact timer pushed no earlier keeps its Handle, which reports
// the new deadline, while an earlier deadline retires the old Handle.
func (l *lockstep) rearm(x *lockTimer, at float64) {
	l.t.Helper()
	h := x.tm.ev
	postpone := x.pending && at >= x.at
	if x.pending {
		l.ref.cancel(x.seq)
	}
	x.tm.ResetAt(at)
	x.seq = l.ref.schedule(at, x.id)
	x.at, x.pending = at, true
	switch {
	case postpone && (x.tm.ev != h || !h.Scheduled() || h.Time() != at):
		l.t.Fatalf("%s: postponed timer %d: handle kept %v, scheduled %v, time %v; want kept, true, %v",
			l.name, x.id, x.tm.ev == h, h.Scheduled(), h.Time(), at)
	case !postpone && h.Scheduled():
		l.t.Fatalf("%s: timer %d moved earlier but its old handle is still scheduled", l.name, x.id)
	}
}

// stop stops x in both queues, through Timer.Stop or by cancelling the
// Handle it holds.
func (l *lockstep) stop(x *lockTimer, viaHandle bool) {
	if viaHandle {
		l.s.Cancel(x.tm.ev)
	} else {
		x.tm.Stop()
	}
	if x.pending {
		l.ref.cancel(x.seq)
	}
	x.pending = false
}

// checkTimer compares x's Deadline and Pending with the reference.
func (l *lockstep) checkTimer(x *lockTimer) {
	l.t.Helper()
	d, ok := x.tm.Deadline()
	if ok != x.pending || x.tm.Pending() != x.pending || (ok && d != x.at) {
		l.t.Fatalf("%s: timer %d Deadline = %v,%v Pending = %v; reference %v,%v",
			l.name, x.id, d, ok, x.tm.Pending(), x.at, x.pending)
	}
}

func (l *lockstep) checkLen() {
	l.t.Helper()
	if l.s.Len() != len(l.ref.events) {
		l.t.Fatalf("%s: queue length %d, reference %d", l.name, l.s.Len(), len(l.ref.events))
	}
}

// drain fires everything left: the remaining order must match exactly.
func (l *lockstep) drain() {
	l.t.Helper()
	for l.step() >= 0 {
	}
}

// TestSchedulerDifferential drives the calendar queue and the naive
// sorted-slice reference in lockstep, checking that every firing matches
// the reference in both identity and time and that the pending count
// agrees after every operation. Two inputs:
//
//   - mixed: a randomized interleaving of At, AtArg, Cancel, stale-handle
//     Cancel, and Step (seeds 1–5), which also checks that Scheduled
//     agrees with the reference's liveness and that stale handles never
//     disturb live events;
//   - churn: 20k operations at seed 99 with a short 3 s horizon and
//     cancels drawn from every handle ever issued, live or stale — the
//     dense re-arm pattern of the packet hot path;
//   - postpone: exact Timers re-armed later (postponed in place),
//     earlier, to their own deadline and onto other events' times, on a
//     1/64 s grid so equal-time ties are common, interleaved with plain
//     events, Stop, Cancel through a postponed timer's Handle, and
//     forced resizes while postponed entries are pending (seeds 1–5).
func TestSchedulerDifferential(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			differentialMixed(t, seed)
		}
	})
	t.Run("churn", func(t *testing.T) {
		r := rand.New(rand.NewSource(99))
		l := &lockstep{t: t, name: "churn seed 99", s: NewScheduler()}
		var handles []issued
		for op := 0; op < 20000; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				handles = append(handles, l.schedule(l.s.Now()+r.Float64()*3, false))
			case k < 7 && len(handles) > 0:
				l.cancel(handles[r.Intn(len(handles))])
			default:
				l.step()
			}
			l.checkLen()
		}
		l.drain()
	})
	t.Run("postpone", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			// Without a resize over stale postponed entries the input
			// would pin nothing about calResize re-filing them.
			if n := differentialPostpone(t, seed); n == 0 {
				t.Fatalf("seed %d: no resize ran while postponed entries were pending", seed)
			}
		}
	})
}

// postponedEntries counts live calendar entries whose slot has since
// been postponed to a new key.
func postponedEntries(s *Scheduler) int {
	n := 0
	for idx, b := range s.cal.buckets {
		for _, e := range b[s.cal.heads[idx]:] {
			if sl := s.slots[e.slot]; sl.gen == e.gen && sl.seq != e.seq {
				n++
			}
		}
	}
	return n
}

// differentialPostpone runs the postpone input at one seed and returns
// how many resizes ran with postponed entries pending.
func differentialPostpone(t *testing.T, seed int64) int {
	r := rand.New(rand.NewSource(seed))
	l := &lockstep{t: t, name: fmt.Sprintf("postpone seed %d", seed), s: NewScheduler()}
	s := l.s
	timers := make([]*lockTimer, 48)
	byID := map[int]*lockTimer{}
	for i := range timers {
		timers[i] = l.newTimer()
		byID[timers[i].id] = timers[i]
	}
	// grid returns a time k/64 s past the first grid point at or after
	// now: exact binary fractions, so ties are exact.
	grid := func(k int) float64 { return (math.Ceil(s.Now()*64) + float64(k)) / 64 }
	var plain []float64 // times of plain events, for cross-event ties
	resized := 0
	for op := 0; op < 4000; op++ {
		x := timers[r.Intn(len(timers))]
		switch k := r.Intn(100); {
		case k < 20:
			at := grid(r.Intn(256))
			if x.pending && r.Intn(3) == 0 {
				at = x.at // tie behind a possibly postponed timer
			}
			plain = append(plain, at)
			l.schedule(at, r.Intn(2) == 0)
		case k < 50:
			at := grid(r.Intn(256))
			switch m := r.Intn(4); {
			case !x.pending:
			case m == 0:
				at = x.at // re-arm to its own deadline
			case m == 1 && len(plain) > 0:
				if p := plain[r.Intn(len(plain))]; p >= s.Now() {
					at = p // tie with a plain event
				}
			case m == 2:
				at = x.at + float64(r.Intn(64))/64 // later
			}
			l.rearm(x, at)
		case k < 58:
			l.stop(x, r.Intn(2) == 0)
		case k < 59:
			if postponedEntries(s) > 0 {
				resized++
			}
			s.calResize()
		case k < 61 && s.Len() < calMinBuckets:
			// A burst crosses the grow trigger; stepping it off later
			// crosses the shrink trigger.
			for i := 0; i < 2*calMinBuckets; i++ {
				at := grid(r.Intn(1024))
				plain = append(plain, at)
				l.schedule(at, false)
			}
		default:
			if id := l.step(); id >= 0 {
				if y := byID[id]; y != nil {
					y.pending = false
				}
			}
		}
		l.checkLen()
		for _, y := range timers {
			l.checkTimer(y)
		}
	}
	for {
		id := l.step()
		if id < 0 {
			break
		}
		if y := byID[id]; y != nil {
			y.pending = false
		}
	}
	for _, y := range timers {
		l.checkTimer(y)
	}
	return resized
}

func differentialMixed(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	l := &lockstep{t: t, name: fmt.Sprintf("seed %d", seed), s: NewScheduler()}
	s := l.s
	var pending []issued
	var stale []Handle

	for op := 0; op < 3000; op++ {
		switch k := r.Intn(10); {
		case k < 4:
			at := s.Now() + r.Float64()*10
			if r.Intn(8) == 0 {
				at = s.Now() // equal-time events exercise FIFO tie-break
			}
			pending = append(pending, l.schedule(at, r.Intn(2) == 0))
		case k < 6 && len(pending) > 0:
			// Cancel a random live event in both implementations.
			i := r.Intn(len(pending))
			p := pending[i]
			if !p.h.Scheduled() {
				t.Fatalf("seed %d: live handle id %d reports not Scheduled", seed, p.id)
			}
			l.cancel(p)
			stale = append(stale, p.h)
			pending = append(pending[:i], pending[i+1:]...)
		case k < 7 && len(stale) > 0:
			// A stale Cancel must be a no-op on live state.
			h := stale[r.Intn(len(stale))]
			if h.Scheduled() {
				t.Fatalf("seed %d: stale handle reports Scheduled", seed)
			}
			before := s.Len()
			s.Cancel(h)
			if s.Len() != before {
				t.Fatalf("seed %d: stale Cancel changed queue length %d -> %d", seed, before, s.Len())
			}
		default:
			id := l.step()
			for i, p := range pending {
				if p.id == id {
					stale = append(stale, p.h)
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
		}
		l.checkLen()
	}
	l.drain()
}

// TestSchedulerReleaseReuse checks that a scheduler built from recycled
// backing arrays behaves identically to a fresh one, whether it is
// recycled through the shared pool (Release, NewScheduler) or in place
// by its owner (Reset on a pinned scheduler), and when the two paths
// alternate.
func TestSchedulerReleaseReuse(t *testing.T) {
	run := func(s *Scheduler) []float64 {
		var got []float64
		for _, at := range []float64{3, 1, 2, 1, 5} {
			at := at
			s.At(at, func() { got = append(got, at) })
		}
		h := s.At(4, func() { got = append(got, -1) })
		s.Cancel(h)
		s.Run()
		return got
	}
	want := []float64{1, 1, 2, 3, 5}
	check := func(round int, got []float64) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("recycled scheduler round %d fired %v, want %v", round, got, want)
		}
	}
	t.Run("pool", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			s := NewScheduler()
			check(i, run(s))
			s.Release()
		}
	})
	t.Run("alternating", func(t *testing.T) {
		pinned := NewScheduler()
		pinned.Pin()
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				s := NewScheduler()
				check(i, run(s))
				s.Release()
				continue
			}
			pinned.Reset()
			check(i, run(pinned))
			pinned.Release() // a no-op: the owner keeps it
		}
	})
}

// TestHandlesFromBeforeResetAreInert pins the epoch guard: a Handle
// issued before Scheduler.Reset must be completely inert afterwards —
// Scheduled false, Time zero, Cancel a no-op — even when the new
// scenario's slot table is smaller than the old slot index (which would
// otherwise index out of range) or reuses the same (slot, generation)
// pair for an unrelated event (which a stale Cancel would otherwise
// kill).
func TestHandlesFromBeforeResetAreInert(t *testing.T) {
	// The scheduler keeps its pending events in a calendar queue.
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		// Grow the slot table, keeping a pending handle at a high slot and
		// one at slot 0 with generation 0 — the aliasing candidates.
		var stale []Handle
		for i := 0; i < 32; i++ {
			stale = append(stale, s.At(float64(i+1), func() {}))
		}

		s.Reset()
		if stale[7].Scheduled() {
			t.Fatal("pre-Reset handle still reports Scheduled")
		}
		if got := stale[7].Time(); got != 0 {
			t.Fatalf("pre-Reset handle Time = %v, want 0", got)
		}
		// One fresh event: its slot 0 / generation 0 collides with stale[0]'s
		// identity, and every higher stale slot exceeds the new table.
		fired := false
		s.At(1, func() { fired = true })
		for _, h := range stale {
			s.Cancel(h) // must not panic and must not cancel the new event
		}
		s.Run()
		if !fired {
			t.Fatal("stale pre-Reset Cancel killed an unrelated post-Reset event")
		}
	})
}

// TestCalendarResizeStress pushes the calendar through several grow and
// shrink cycles while checking global firing order.
func TestCalendarResizeStress(t *testing.T) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(5))
	last := -1.0
	n := 0
	rec := func(any) {
		if s.Now() < last {
			t.Fatalf("time went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		n++
	}
	// Grow: far past the 2×256 resize trigger, with a wide time span.
	for i := 0; i < 5000; i++ {
		s.AtArg(r.Float64()*1000, rec, nil)
	}
	// Drain most of it (shrink path), then refill around the new clock.
	for i := 0; i < 4500; i++ {
		s.Step()
	}
	for i := 0; i < 3000; i++ {
		s.AtArg(s.Now()+r.Float64(), rec, nil)
	}
	s.Run()
	if n != 8000 {
		t.Fatalf("fired %d events, want 8000", n)
	}
}

// TestCalendarRunUntil pins RunUntil's peek path on the calendar.
func TestCalendarRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 || s.Now() != 2.5 {
		t.Fatalf("RunUntil(2.5): fired %v, clock %v", fired, s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 || s.Now() != 10 {
		t.Fatalf("RunUntil(10): fired %v, clock %v", fired, s.Now())
	}
}

// TestCalendarBucketCapacityIndependentOfDuration pins the reclamation
// of consumed bucket prefixes. One far-future event per bucket (a long
// timer) keeps every bucket from ever draining, while a standing churn
// of periodic events, each re-arming two calendar years ahead, files new
// entries behind it. Without reclamation every bucket's capacity grows
// with the number of events ever filed into it, i.e. with simulated
// time; with it, capacity tracks the (periodic, hence bounded) peak
// occupancy.
func TestCalendarBucketCapacityIndependentOfDuration(t *testing.T) {
	const (
		pending = 250 // with the long timers, below the 2×256 grow trigger
		period  = 0.5 // two calendar years of 256 × 1 ms days
	)
	bucketCap := func(duration float64) int {
		s := new(Scheduler) // not from the pool: recycled buckets keep capacity
		s.Reset()
		for i := 0; i < calMinBuckets; i++ {
			s.AtArg(1e6+float64(i)*calDefaultWidth, func(any) {}, nil)
		}
		var rearm func(any)
		rearm = func(any) { s.AfterArg(period, rearm, nil) }
		for i := 0; i < pending; i++ {
			s.AtArg(period*float64(i)/pending, rearm, nil)
		}
		s.RunUntil(duration)
		if len(s.cal.buckets) != calMinBuckets {
			t.Fatalf("calendar resized to %d buckets; the test needs the resting size", len(s.cal.buckets))
		}
		total := 0
		for _, b := range s.cal.buckets {
			total += cap(b)
		}
		return total
	}
	short, long := bucketCap(30), bucketCap(300)
	if long > short {
		t.Fatalf("summed bucket capacity grew with duration: %d entries after 30 s, %d after 300 s", short, long)
	}
}

// calCapacity sums the entry capacity the calendar holds: every bucket
// array, including buckets a shrink left beyond the live count, and
// every spare.
func calCapacity(s *Scheduler) int {
	n := 0
	for _, b := range s.cal.buckets[:cap(s.cal.buckets)] {
		n += cap(b)
	}
	for _, st := range s.cal.spare {
		for _, b := range st {
			n += cap(b)
		}
	}
	return n
}

// TestCalendarCapacityTracksLiveSet pins the recycling of drained bucket
// arrays. Thousands of standing long timers, re-armed a horizon ahead,
// and a dense cluster of short timers grow the calendar past 16k
// buckets; a width set by the long horizon packs the cluster some 20
// deep into each bucket it covers. Over one full rotation the cluster
// sweeps every bucket. If a bucket kept its array after the cluster
// passed, summed capacity would approach the bucket count times the
// cluster depth; recycled, it stays within a small multiple of the live
// entries.
func TestCalendarCapacityTracksLiveSet(t *testing.T) {
	const (
		standing = 4096
		cluster  = 32768
		horizon  = 8.0 // standing timers' period
		period   = 1.0 // cluster timers' period
		bound    = 4   // allowed capacity per peak live entry
	)
	s := new(Scheduler) // not from the pool: recycled buckets keep capacity
	s.Reset()
	arm := func(ts []Timer, d float64) {
		rearm := func(x any) { x.(*Timer).Reset(d) }
		for i := range ts {
			ts[i].InitArg(s, rearm, &ts[i])
			ts[i].ResetAt(d * float64(i) / float64(len(ts)))
		}
	}
	arm(make([]Timer, standing), horizon)
	arm(make([]Timer, cluster), period)
	peak := s.Len()
	if n := len(s.cal.buckets); n <= 16384 {
		t.Fatalf("calendar has %d buckets; the test needs more than 16k", n)
	}
	rotation := float64(len(s.cal.buckets)) / s.cal.inv
	worst := 0
	for end := period; end <= rotation+period; end += period {
		s.RunUntil(end)
		if s.Len() != peak {
			t.Fatalf("live set changed: %d, want %d", s.Len(), peak)
		}
		worst = max(worst, calCapacity(s))
	}
	if worst > bound*peak {
		t.Fatalf("calendar capacity reached %d entries for %d live (%.1f per live entry, bound %d)",
			worst, peak, float64(worst)/float64(peak), bound)
	}
}

// TestCalendarInsertBehindScan pins inserts that land behind the scan
// position. RunUntil's lookahead leaves the scan on the next event past
// its end, and a resize leaves it on the earliest entry; an event then
// scheduled between now and that entry must still fire first.
func TestCalendarInsertBehindScan(t *testing.T) {
	t.Run("rununtil", func(t *testing.T) {
		s := NewScheduler()
		var got []float64
		rec := func(x any) { got = append(got, x.(float64)) }
		s.AtArg(1, rec, 1.0)
		s.AtArg(10, rec, 10.0)
		s.RunUntil(1.5)
		s.AtArg(2, rec, 2.0)
		s.Run()
		if !slices.Equal(got, []float64{1, 2, 10}) {
			t.Fatalf("fired %v, want [1 2 10]", got)
		}
	})
	t.Run("resize", func(t *testing.T) {
		s := NewScheduler()
		var got []float64
		rec := func(x any) { got = append(got, x.(float64)) }
		for i := 0; i <= 2*calMinBuckets; i++ { // the last insert resizes
			s.AtArg(10+float64(i), rec, 10+float64(i))
		}
		s.AtArg(0.5, rec, 0.5)
		s.Step()
		if !slices.Equal(got, []float64{0.5}) {
			t.Fatalf("fired %v first, want [0.5]", got)
		}
	})
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(1))
	// Keep a standing population of events, pop one, push one.
	for i := 0; i < 1024; i++ {
		s.At(r.Float64(), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(r.Float64(), func() {})
		s.Step()
	}
}

// BenchmarkSchedulerEventsPerSecond measures raw queue throughput on the
// allocation-free AtArg path with a standing population of 4096 events —
// the regime the simulator hot path operates in. The headline metric is
// scheduler events per wall-clock second.
func BenchmarkSchedulerEventsPerSecond(b *testing.B) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(1))
	delays := make([]float64, 8192)
	for i := range delays {
		delays[i] = r.Float64()
	}
	fn := func(any) {}
	for i := 0; i < 4096; i++ {
		s.AfterArg(delays[i%len(delays)], fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(delays[i%len(delays)], fn, nil)
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSchedulerPopulation measures the calendar queue across
// standing event populations of 1k, 100k and 1M. Every event re-arms
// itself when it fires, so the population stays constant and each op is
// one Step plus one insert. The rearm sub-cases add the timer-reset mix:
// every op also cancels and re-arms one pending event, as the TCP RTO
// does on every ACK, so lazily-cancelled tombstones accumulate in the
// buckets. The timer-rearm sub-cases run the same mix through Timer.Reset,
// which postpones a pending timer in place when the new deadline is no
// earlier (about half the re-arms here) instead of cancelling it.
func BenchmarkSchedulerPopulation(b *testing.B) {
	for _, pop := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pop=%d/timer-rearm", pop), func(b *testing.B) {
			benchTimerRearm(b, pop)
		})
		for _, mix := range []string{"churn", "rearm"} {
			b.Run(fmt.Sprintf("pop=%d/%s", pop, mix), func(b *testing.B) {
				s := NewScheduler()
				s.Pin() // keep the 1M-population backing out of the shared pool
				r := rand.New(rand.NewSource(1))
				delays := make([]float64, 8192)
				for i := range delays {
					delays[i] = r.Float64()
				}
				next := 0
				delay := func() float64 {
					next++
					return delays[next%len(delays)]
				}
				// Each event's arg is its own handle cell, so re-arming
				// boxes a pointer and allocates nothing.
				handles := make([]Handle, pop)
				var fire func(any)
				fire = func(x any) {
					h := x.(*Handle)
					*h = s.AfterArg(delay(), fire, h)
				}
				for i := range handles {
					handles[i] = s.AfterArg(delay(), fire, &handles[i])
				}
				rearm := mix == "rearm"
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rearm {
						h := &handles[i%pop]
						s.Cancel(*h)
						*h = s.AfterArg(delay(), fire, h)
					}
					s.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

// benchTimerRearm is BenchmarkSchedulerPopulation's timer-rearm mix: pop
// Timers, each re-armed when it fires, and one more Timer.Reset per op.
func benchTimerRearm(b *testing.B, pop int) {
	s := NewScheduler()
	s.Pin() // keep the 1M-population backing out of the shared pool
	r := rand.New(rand.NewSource(1))
	delays := make([]float64, 8192)
	for i := range delays {
		delays[i] = r.Float64()
	}
	next := 0
	delay := func() float64 {
		next++
		return delays[next%len(delays)]
	}
	timers := make([]Timer, pop)
	fire := func(x any) { x.(*Timer).Reset(delay()) }
	for i := range timers {
		timers[i].InitArg(s, fire, &timers[i])
		timers[i].Reset(delay())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers[i%pop].Reset(delay())
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
