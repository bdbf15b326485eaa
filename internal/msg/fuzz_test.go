package msg

import (
	"math"
	"testing"
)

// FuzzDecodeDeltas: the delta decoder takes bytes off the wire, so on any
// input it must not panic, must fail exactly when the payload is not a
// whole number of updates, and must round-trip with AppendDelta bit for bit.
func FuzzDecodeDeltas(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add(AppendDelta(AppendDelta(nil, 7, -1.5), 1<<31, math.NaN()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var again []byte
		n := 0
		err := DecodeDeltas(payload, func(v uint32, val float64) {
			again = AppendDelta(again, v, val)
			n++
		})
		if whole := len(payload)%DeltaBytes == 0; (err == nil) != whole {
			t.Fatalf("len %d: err = %v", len(payload), err)
		}
		if err != nil {
			return
		}
		if n != DeltaCount(payload) || string(again) != string(payload) {
			t.Fatalf("%d of %d updates re-encode to different bytes", n, DeltaCount(payload))
		}
	})
}
