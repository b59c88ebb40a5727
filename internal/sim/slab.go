package sim

// Slab is a chunked value pool: a bump pointer over chunks that are
// never relocated, plus a free list for values handed back mid-scenario.
// Addresses into a chunk stay stable for the slab's whole lifetime, so
// agents, controllers, monitors and networks live as values in slabs
// instead of as individually heap-allocated structs — at a million
// agents that is a few thousand chunk headers instead of a million
// pointer-chased allocations.
//
// Get hands out values in a fixed order after every Reset, and a reused
// value keeps whatever its previous life left in it: constructors
// overwrite what they own and may keep grown slice capacity. Chunks
// start small and double up to slabMaxChunk, so a slab holding one
// network per scenario costs one small chunk. The zero Slab is empty
// and ready for use.
type Slab[T any] struct {
	chunks [][]T //tfrc:keep value chunks; addresses into them are stable across reuse
	ci     int   // chunk the bump pointer is in
	off    int   // next fresh value is chunks[ci][off]
	free   []*T  //tfrc:keep values returned by Put, reissued before bumping
}

const (
	slabFirstChunk = 4
	slabMaxChunk   = 256
)

// Get returns a value from the slab: the most recently Put one if any,
// otherwise the next value past the bump pointer.
func (p *Slab[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	if p.ci < len(p.chunks) && p.off == len(p.chunks[p.ci]) {
		p.ci++
		p.off = 0
	}
	if p.ci == len(p.chunks) {
		n := slabFirstChunk
		if p.ci > 0 {
			n = min(2*len(p.chunks[p.ci-1]), slabMaxChunk)
		}
		p.chunks = append(p.chunks, make([]T, n))
	}
	x := &p.chunks[p.ci][p.off]
	p.off++
	return x
}

// Put hands x back for reuse by a later Get before the next Reset. x
// must have come from this slab and must not be used afterwards.
func (p *Slab[T]) Put(x *T) { p.free = append(p.free, x) }

// Reset makes every value the slab ever handed out available again, in
// the original order. Chunk storage is kept.
func (p *Slab[T]) Reset() {
	p.ci = 0
	p.off = 0
	p.free = p.free[:0]
}
