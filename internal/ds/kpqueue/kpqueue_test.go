package kpqueue_test

import (
	"testing"

	"wfe/internal/ds/kpqueue"
	"wfe/internal/ds/queuetest"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

func TestKPQueueSuite(t *testing.T) {
	queuetest.RunQueueSuite(t, func(smr reclaim.Scheme, maxThreads int) queuetest.Queue {
		return kpqueue.New(smr, maxThreads, 0)
	})
}

func TestKPQueueLen(t *testing.T) {
	a := mem.New(mem.Config{Capacity: 1 << 10, MaxThreads: 1, Debug: true})
	s, err := schemes.New("WFE", a, reclaim.Config{MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := kpqueue.New(s, 1, 0)
	for i := 0; i < 10; i++ {
		q.EnqueueNode(0, s.Alloc(0))
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Dequeue(0)
	if q.Len() != 9 {
		t.Fatalf("Len after dequeue = %d", q.Len())
	}
}
