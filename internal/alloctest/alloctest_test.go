package alloctest

import "testing"

var sink []byte

// TestMinCountsWhatFnAllocates: a function that allocates one 64-byte
// block every run measures one allocation of at least 64 bytes; one that
// allocates nothing measures none.
func TestMinCountsWhatFnAllocates(t *testing.T) {
	if n, b := Min(5, func() { sink = make([]byte, 64) }); n != 1 || b < 64 {
		t.Errorf("one 64-byte block a run measured %d allocations, %d bytes", n, b)
	}
	if n, b := Min(5, func() {}); n != 0 || b != 0 {
		t.Errorf("an empty function measured %d allocations, %d bytes", n, b)
	}
}
