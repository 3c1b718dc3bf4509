package server

// Server chaos suite: concurrent sessions against one server while
// connections are killed mid-query and the spill path runs over a
// fault-injected temp device. Every completed query must return the exact
// quotient or a typed error — never a wrong answer or a panic — and after
// the storm the server must hold zero goroutines, zero live spill files, and
// zero granted bytes.

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	reldiv "repro"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/storage"
)

// chaosFault reports whether err is an outcome a session is allowed to see
// under the storm: a killed connection (transport error on the client side),
// a cancelled query, or an injected storage fault surfaced as a typed error.
func chaosFault(err error) bool {
	var srvErr *ServerError
	if errors.As(err, &srvErr) {
		return srvErr.Code == CodeCancelled || srvErr.Code == CodeInternal
	}
	return true // transport error: the connection was killed under the query
}

func TestServerChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("server chaos in short mode")
	}
	liveBefore := storage.LiveSpillFiles()
	goroutinesBefore := runtime.NumGoroutine()

	// Temp devices carry transient faults (the pool retries through them)
	// and rare permanent corruption (typed error).
	s := NewServer(Options{
		MemoryBytes: 1 << 20,
		TempDevFactory: func(name string) disk.Dev {
			return faultinject.Wrap(disk.NewDevice(name, disk.PaperRunPageSize),
				faultinject.Plan{Seed: 99, ReadErrEvery: 13, WriteErrEvery: 17})
		},
	})

	setup := startPipeSession(t, s)
	transcript, courses := loadWorkload(t, setup, 2000, 8, 42)
	wantRows := mustQuotientRows(t, transcript, courses)
	setup.Close()

	// A grant small enough that every query recursively partitions and
	// spills through the faulty temp device.
	const grantBytes = 128 << 10

	const sessions = 12
	done := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			rng := rand.New(rand.NewSource(int64(i)))
			cc, sc := net.Pipe()
			go s.ServeConn(sc)
			c := NewClient(cc)
			defer c.Close()

			for q := 0; q < 4; q++ {
				// A third of the sessions kill their connection mid-query:
				// the write happens, then the conn dies while the server
				// divides.
				if i%3 == 0 && q == 2 {
					go func() {
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
						cc.Close()
					}()
				}
				resp, err := c.Do(Request{Op: "divide", Dividend: "transcript",
					Divisor: "courses", MemoryBudget: grantBytes})
				if err != nil {
					done <- nil // transport: killed connection
					return
				}
				if err := resp.Err(); err != nil {
					if !chaosFault(err) {
						done <- err
						return
					}
					continue
				}
				if got := len(resp.Rows); got != wantRows {
					done <- errors.New("wrong quotient under chaos")
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}

	s.Close()
	leakcheck.Goroutines(t, goroutinesBefore)
	leakcheck.SpillFiles(t, liveBefore)
	leakcheck.Grants(t, s.Governor())
	if hw, total := s.Governor().HighWater(), s.Governor().Total(); hw > total {
		t.Fatalf("governor oversubscribed under chaos: %d > %d", hw, total)
	}
}

// mustQuotientRows computes the reference quotient size via the library.
func mustQuotientRows(t *testing.T, dividend, divisor *reldiv.Relation) int {
	t.Helper()
	want, err := reldiv.Divide(dividend, divisor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want.NumRows()
}
