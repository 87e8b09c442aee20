package crturn_test

import (
	"sync"
	"testing"

	"wfe/internal/ds/crturn"
	"wfe/internal/ds/queuetest"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

func TestCRTurnSuite(t *testing.T) {
	queuetest.RunQueueSuite(t, func(smr reclaim.Scheme, maxThreads int) queuetest.Queue {
		return crturn.New(smr, maxThreads, reclaim.MustAlloc(smr, 0))
	})
}

func newWFEQueue(t *testing.T, threads int) *queuetest.Payloads {
	t.Helper()
	a := mem.New(mem.Config{Capacity: 1 << 14, MaxThreads: threads, Debug: true})
	s, err := schemes.New("WFE", a, reclaim.Config{MaxThreads: threads, EraFreq: 16, CleanupFreq: 8})
	if err != nil {
		t.Fatal(err)
	}
	return queuetest.WithPayloads(crturn.New(s, threads, reclaim.MustAlloc(s, 0)), s)
}

// TestEmptyRace hammers the give-up path: consumers repeatedly poll an
// almost-always-empty queue while a producer trickles values; the absorb
// logic must deliver every value exactly once.
func TestEmptyRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const total = 5000
	q := newWFEQueue(t, 3)

	var got sync.Map
	var wg sync.WaitGroup
	var count sync.WaitGroup
	count.Add(total)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			misses := 0
			for misses < 1_000_000 {
				if v, ok := q.Dequeue(tid); ok {
					if _, dup := got.LoadOrStore(v, tid); dup {
						panic("duplicate delivery")
					}
					count.Done()
					misses = 0
				} else {
					misses++
				}
			}
		}(c + 1)
	}
	for i := uint64(0); i < total; i++ {
		q.Enqueue(0, i+1)
	}
	count.Wait() // all values delivered exactly once
	wg.Wait()

	n := 0
	got.Range(func(_, _ any) bool { n++; return true })
	if n != total {
		t.Fatalf("delivered %d values, want %d", n, total)
	}
}

func TestMaxThreadsLimit(t *testing.T) {
	a := mem.New(mem.Config{Capacity: 64, MaxThreads: 1, Debug: true})
	s, _ := schemes.New("WFE", a, reclaim.Config{MaxThreads: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("255-thread queue did not panic")
		}
	}()
	crturn.New(s, 255, 0)
}
