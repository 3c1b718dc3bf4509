// Package leakcheck holds the tests' shared leak assertions: goroutines,
// fixed buffer frames, spill files and governor grants. The buffer and
// storage packages check their own state directly, since importing this
// package from their tests would be an import cycle.
package leakcheck

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// settle is how long the polling checks wait for state released by
// goroutines unwinding after a failure or a close.
const settle = 2 * time.Second

// Goroutines waits up to 2 s for the goroutine count to fall back to before,
// the count taken before the code under test started; goroutines unwinding
// after a failure or a close need a moment to observe it. On timeout it
// fails t with a dump of every goroutine's stack.
func Goroutines(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FixedFrames drains each pool's read-ahead prefetcher, whose in-flight
// loads hold a pin until they publish, and then fails t if any frame of the
// pool is still fixed.
func FixedFrames(t testing.TB, pools ...*buffer.Pool) {
	t.Helper()
	for _, p := range pools {
		p.ReadAhead().Drain()
		if n := p.FixedFrames(); n != 0 {
			t.Fatalf("buffer frames leaked: %d still fixed", n)
		}
	}
}

// SpillFiles waits up to 2 s for the live spill files to fall back to
// before, the storage.LiveSpillFiles count taken before the code under test
// started, as Goroutines waits for goroutines.
func SpillFiles(t testing.TB, before int64) {
	t.Helper()
	deadline := time.Now().Add(settle)
	for storage.LiveSpillFiles() != before {
		if time.Now().After(deadline) {
			t.Fatalf("spill files leaked: %d before, %d after", before, storage.LiveSpillFiles())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Grants fails t if gov still has memory granted.
func Grants(t testing.TB, gov *buffer.Governor) {
	t.Helper()
	if n := gov.InUse(); n != 0 {
		t.Fatalf("governor grants leaked: %d bytes in use", n)
	}
}
