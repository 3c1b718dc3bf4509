//go:build !race

package storage

import (
	"runtime"
	"testing"
)

// TestRescanRecyclesFrames: a second full scan of a heap file three times
// its pool misses on every page, and each miss reuses the buffer of an
// evicted frame. What is left per miss is the small bookkeeping (frame,
// ready channel, handle, LRU element), under 1 KB against the 8 KB a
// fresh frame would cost.
func TestRescanRecyclesFrames(t *testing.T) {
	f := rescanFile(t)
	misses := f.Pool().Stats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scanAll(t, f)
	runtime.ReadMemStats(&after)
	missed := f.Pool().Stats().Misses - misses
	if missed != f.NumPages() {
		t.Fatalf("rescan missed %d of %d pages", missed, f.NumPages())
	}
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / uint64(missed); perMiss >= 1024 {
		t.Errorf("rescan allocated %d bytes per missed page, want < 1024", perMiss)
	}
}
