package sim

import "testing"

// TestSlabReuseOrderAndStableAddresses pins the Slab contract the arenas
// rely on: values are distinct and never move while chunks grow past
// the doubling steps and the size cap, Reset hands the same values out
// again in the same order, and Put values are reissued first.
func TestSlabReuseOrderAndStableAddresses(t *testing.T) {
	const n = 3*slabMaxChunk + 7
	var s Slab[[3]int]
	first := make([]*[3]int, n)
	seen := make(map[*[3]int]bool, n)
	for i := range first {
		x := s.Get()
		if seen[x] {
			t.Fatalf("Get %d returned a value already handed out", i)
		}
		seen[x] = true
		x[0] = i
		first[i] = x
	}
	for i, x := range first {
		if x[0] != i {
			t.Fatalf("value %d was overwritten or moved: holds %d", i, x[0])
		}
	}

	s.Reset()
	for i := range first {
		if x := s.Get(); x != first[i] {
			t.Fatalf("after Reset, Get %d returned a different value", i)
		}
	}

	s.Put(first[5])
	s.Put(first[9])
	if x := s.Get(); x != first[9] {
		t.Fatal("Get did not reissue the last Put value first")
	}
	if x := s.Get(); x != first[5] {
		t.Fatal("Get did not reissue the earlier Put value second")
	}
	if x := s.Get(); seen[x] {
		t.Fatal("Get after draining Puts returned a value already in use")
	}
}
