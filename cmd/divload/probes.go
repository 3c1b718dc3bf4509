package main

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// devTimes accumulates the wall time the timedDev wrappers sharing it spend
// inside Read and Write, and keeps the duration of each Sync, once on is set.
type devTimes struct {
	on              atomic.Bool
	readNs, writeNs atomic.Int64
	mu              sync.Mutex // guards syncs
	syncs           []time.Duration
}

// syncTimes returns the durations of the syncs so far, sorted.
func (t *devTimes) syncTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := slices.Clone(t.syncs)
	slices.Sort(d)
	return d
}

// timedDev is a disk.Dev that times its transfers and flushes into t. The
// benchmark wraps devices it hands to the system; the system's code is
// unchanged.
type timedDev struct {
	disk.Dev
	t *devTimes
}

func (d *timedDev) Read(p disk.PageID, buf []byte) error {
	if !d.t.on.Load() {
		return d.Dev.Read(p, buf)
	}
	t0 := time.Now()
	err := d.Dev.Read(p, buf)
	d.t.readNs.Add(int64(time.Since(t0)))
	return err
}

func (d *timedDev) Write(p disk.PageID, buf []byte) error {
	if !d.t.on.Load() {
		return d.Dev.Write(p, buf)
	}
	t0 := time.Now()
	err := d.Dev.Write(p, buf)
	d.t.writeNs.Add(int64(time.Since(t0)))
	return err
}

func (d *timedDev) Sync() error {
	if !d.t.on.Load() {
		return d.Dev.Sync()
	}
	t0 := time.Now()
	err := d.Dev.Sync()
	lat := time.Since(t0)
	d.t.mu.Lock()
	d.t.syncs = append(d.t.syncs, lat)
	d.t.mu.Unlock()
	return err
}

// workerConn wraps the worker end of an exchange link and times the worker
// goroutine's conn I/O during traced operations: window holds the start of
// the operation in flight (Unix ns, 0 when none). A read that began before
// the operation counts only from its start, so the idle wait for the next
// job is not charged to the operation that ends it. Time neither reading
// nor writing is the worker's busy time.
type workerConn struct {
	net.Conn
	window          *atomic.Int64
	readNs, writeNs atomic.Int64
}

func (c *workerConn) Read(b []byte) (int, error) {
	t0 := time.Now().UnixNano()
	n, err := c.Conn.Read(b)
	if w := c.window.Load(); w != 0 {
		c.readNs.Add(time.Now().UnixNano() - max(t0, w))
	}
	return n, err
}

func (c *workerConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	if c.window.Load() != 0 {
		c.writeNs.Add(int64(time.Since(t0)))
	}
	return n, err
}
