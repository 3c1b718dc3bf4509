// Package leakcheck holds the tests' shared leak assertions.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines waits up to 2 s for the goroutine count to fall back to before,
// the count taken before the code under test started; goroutines unwinding
// after a failure or a close need a moment to observe it. On timeout it
// fails t with a dump of every goroutine's stack.
func Goroutines(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
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
