package netsim

// Queue is a link buffer discipline. Enqueue either accepts the packet or
// rejects it (drop decision); Dequeue hands the next packet to the link
// transmitter. Queues never own packet memory — the caller frees rejected
// packets.
type Queue interface {
	// Enqueue offers a packet; it returns false if the packet is dropped.
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the next packet, or nil when empty.
	Dequeue() *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
}

// fifo is the shared ring-buffer backing for the queue disciplines.
type fifo struct {
	buf   []*Packet
	head  int
	n     int
	bytes int
}

func newFIFO(capHint int) fifo {
	if capHint < 8 {
		capHint = 8
	}
	return fifo{buf: make([]*Packet, capHint)}
}

//tfrc:hotpath
func (f *fifo) push(p *Packet) {
	if f.n == len(f.buf) {
		grown := make([]*Packet, 2*len(f.buf)) //tfrclint:allow hotpathalloc amortized ring growth
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)%len(f.buf)]
		}
		f.buf = grown
		f.head = 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = p
	f.n++
	f.bytes += p.Size
}

//tfrc:hotpath
func (f *fifo) pop() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	f.bytes -= p.Size
	return p
}

// DropTail is a FIFO queue with a fixed packet-count limit: arrivals that
// find the buffer full are dropped.
type DropTail struct {
	fifo
	limit int
}

// NewDropTail returns a DropTail queue holding at most limit packets.
func NewDropTail(limit int) *DropTail {
	if limit < 1 {
		panic("netsim: DropTail limit must be ≥ 1")
	}
	return &DropTail{fifo: newFIFO(limit), limit: limit}
}

// newDropTail is the arena-backed variant used by the topology layer:
// the struct comes from the scheduler's netsim arena and the ring buffer
// from its packet-pointer arena, both recycled across Release/New.
func (nw *Network) newDropTail(limit int) *DropTail {
	if limit < 1 {
		panic("netsim: DropTail limit must be ≥ 1")
	}
	q := arenaOf(nw.sched).dropTails.Get()
	n := limit
	if n < 8 {
		n = 8
	}
	*q = DropTail{fifo: fifo{buf: nw.pktRing(n)}, limit: limit}
	return q
}

// Enqueue implements Queue.
//
//tfrc:hotpath
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.n >= q.limit {
		return false
	}
	q.push(p)
	return true
}

// Dequeue implements Queue.
//
//tfrc:hotpath
func (q *DropTail) Dequeue() *Packet { return q.pop() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.n }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// Limit returns the configured packet limit.
func (q *DropTail) Limit() int { return q.limit }
