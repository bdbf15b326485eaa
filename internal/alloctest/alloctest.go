// Package alloctest measures what a function allocates, for tests.
package alloctest

import (
	"math"
	"runtime"
)

// Min runs fn k times and returns the fewest allocations and, separately,
// the fewest bytes of any run: an allocation fn makes shows in every run,
// one the runtime makes meanwhile (a goroutine descriptor, a sudog) not.
func Min(k int, fn func()) (mallocs, bytes uint64) {
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range k {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}
