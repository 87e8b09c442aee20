package kpqueue_test

import (
	"errors"
	"testing"

	"wfe/internal/core"
	"wfe/internal/ds/kpqueue"
	"wfe/internal/ds/queuetest"
	"wfe/internal/failpoint"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

func build(smr reclaim.Scheme, maxThreads int) queuetest.Queue {
	return kpqueue.New(smr.Arena(), maxThreads, reclaim.MustAlloc(smr, 0))
}

// TestKPQueueSuite runs the conformance suite in three rows: as shipped,
// where uncontended operations take the fast path; with kpqueue-fast
// firing on every operation, so every operation runs the 2011 phase and
// descriptor protocol; and with it firing on half the operations, so fast
// and slow operations race on the same nodes.
func TestKPQueueSuite(t *testing.T) {
	queuetest.RunQueueSuite(t, build)

	site, ok := failpoint.Lookup("kpqueue-fast")
	if !ok {
		t.Fatal("kpqueue-fast site not registered")
	}
	skip := errors.New("skip the fast path")
	for _, row := range []struct {
		name string
		trig failpoint.Trigger
	}{
		{"AllSlow", failpoint.Trigger{EveryNth: 1, Err: skip}},
		{"Mixed", failpoint.Trigger{Prob: 0.5, Seed: 26, Err: skip}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fires := site.Fires()
			site.Arm(row.trig)
			t.Cleanup(site.Disarm)
			queuetest.RunQueueSuite(t, build)
			if site.Fires() == fires {
				t.Fatal("kpqueue-fast never fired; the row ran only the fast path")
			}
		})
	}
}

func TestKPQueueLen(t *testing.T) {
	a := mem.New(mem.Config{Capacity: 1 << 10, MaxThreads: 1, Debug: true})
	s, err := core.New("WFE", a, reclaim.Config{MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := kpqueue.New(a, 1, reclaim.MustAlloc(s, 0))
	for i := 0; i < 10; i++ {
		q.EnqueueNode(s, 0, reclaim.MustAlloc(s, 0))
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Dequeue(s, 0)
	if q.Len() != 9 {
		t.Fatalf("Len after dequeue = %d", q.Len())
	}
}
