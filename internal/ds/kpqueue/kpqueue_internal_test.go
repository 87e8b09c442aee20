package kpqueue

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"wfe/internal/core"
	"wfe/internal/failpoint"
	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// newTestQueue builds a queue for threads tids over a Debug arena and the
// WFE scheme.
func newTestQueue(t *testing.T, threads int) (*mem.Arena, reclaim.Scheme, *Queue) {
	t.Helper()
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true})
	s, err := core.New("WFE", a, reclaim.Config{MaxThreads: threads, EraFreq: 8, CleanupFreq: 8})
	if err != nil {
		t.Fatal(err)
	}
	return a, s, New(a, threads, reclaim.MustAlloc(s, 0))
}

// queued lists the queued nodes from the head's successor to the tail.
func queued(q *Queue) []mem.Handle {
	var out []mem.Handle
	h := pack.Handle(q.a.LoadWord(pack.Handle(q.head.Load()), nextWord))
	for ; h != 0; h = pack.Handle(q.a.LoadWord(h, nextWord)) {
		out = append(out, h)
	}
	return out
}

// withFastPath runs f twice, once as shipped and once with every
// operation skipping the fast path.
func withFastPath(t *testing.T, f func(t *testing.T, slow bool)) {
	for _, slow := range []bool{false, true} {
		t.Run(fmt.Sprintf("slow=%v", slow), func(t *testing.T) {
			if slow {
				fpFast.Arm(failpoint.Trigger{EveryNth: 1, Err: errors.New("skip the fast path")})
				t.Cleanup(fpFast.Disarm)
			}
			f(t, slow)
		})
	}
}

// TestHelpOneCompletesStalledEnqueue posts a pending enqueue descriptor
// for tid 0 by hand, as if tid 0 stalled right after publishing it, and
// then runs tid 1's fast-path enqueues from every cursor position. tid
// 1's helpOne must link tid 0's node and complete its descriptor at the
// operation whose cursor reaches tid 0, within maxThreads operations, and
// before that operation's own node: the queue reads tid 1's earlier
// nodes, then tid 0's, then tid 1's later ones.
func TestHelpOneCompletesStalledEnqueue(t *testing.T) {
	const threads = 4
	for start := 0; start < threads; start++ {
		t.Run(fmt.Sprintf("cursor=%d", start), func(t *testing.T) {
			a, s, q := newTestQueue(t, threads)
			stalled := reclaim.MustAlloc(s, 0)
			a.ZeroWords(stalled)
			a.StoreWord(stalled, enqTidWord, 1)
			q.state[0].desc.Store(makeDesc(q.maxPhase()+1, true, true, stalled))
			q.state[1].cursor = start

			var mine []mem.Handle
			helpedAt := 0
			for op := 1; op <= threads+2; op++ {
				n := reclaim.MustAlloc(s, 1)
				q.EnqueueNode(s, 1, n)
				mine = append(mine, n)
				if helpedAt == 0 && !descPending(q.state[0].desc.Load()) {
					helpedAt = op
				}
			}
			if want := (threads-start)%threads + 1; helpedAt != want {
				t.Fatalf("tid 0's descriptor completed at tid 1's operation %d, want %d (cursor %d of %d)",
					helpedAt, want, start, threads)
			}
			if d := q.state[0].desc.Load(); descNode(d) != stalled {
				t.Fatalf("completed descriptor names node %d, want tid 0's node %d", descNode(d), stalled)
			}
			want := slices.Concat(mine[:helpedAt-1], []mem.Handle{stalled}, mine[helpedAt-1:])
			if got := queued(q); !slices.Equal(got, want) {
				t.Fatalf("queue holds %v, want %v", got, want)
			}
			if tail := pack.Handle(q.tail.Load()); tail != want[len(want)-1] {
				t.Fatalf("tail %d, want the last node %d", tail, want[len(want)-1])
			}
		})
	}
}

// TestHelpOneCompletesStalledDequeue is the dequeue twin: tid 0 posts a
// pending dequeue descriptor and stalls, and tid 1's fast-path dequeues
// must complete it at the operation whose cursor reaches tid 0. tid 0
// then owns the node after the sentinel it claimed, and tid 1 receives
// every other node in FIFO order.
func TestHelpOneCompletesStalledDequeue(t *testing.T) {
	const threads = 4
	for start := 0; start < threads; start++ {
		t.Run(fmt.Sprintf("cursor=%d", start), func(t *testing.T) {
			a, s, q := newTestQueue(t, threads)
			var nodes []mem.Handle
			for range threads + 2 {
				n := reclaim.MustAlloc(s, 2)
				q.EnqueueNode(s, 2, n)
				nodes = append(nodes, n)
			}
			q.state[0].desc.Store(makeDesc(q.maxPhase()+1, true, false, 0))
			q.state[1].cursor = start

			var got []mem.Handle
			helpedAt := 0
			for op := 1; op <= threads+1; op++ {
				n, ok := q.Dequeue(s, 1)
				if !ok {
					t.Fatalf("tid 1's dequeue %d found the queue empty", op)
				}
				got = append(got, n)
				if helpedAt == 0 && !descPending(q.state[0].desc.Load()) {
					helpedAt = op
				}
			}
			if want := (threads-start)%threads + 1; helpedAt != want {
				t.Fatalf("tid 0's descriptor completed at tid 1's operation %d, want %d (cursor %d of %d)",
					helpedAt, want, start, threads)
			}
			claimed := descNode(q.state[0].desc.Load())
			if c := a.LoadWord(claimed, deqTidWord); c != 1 {
				t.Fatalf("tid 0's sentinel %d carries claim %#x, want tid 0's slow claim 1", claimed, c)
			}
			owed := nodes[helpedAt-1]
			if next := pack.Handle(a.LoadWord(claimed, nextWord)); next != owed {
				t.Fatalf("tid 0 is owed node %d, want %d", next, owed)
			}
			if want := slices.Concat(nodes[:helpedAt-1], nodes[helpedAt:]); !slices.Equal(got, want) {
				t.Fatalf("tid 1 dequeued %v, want %v", got, want)
			}
		})
	}
}

// TestStalledFastEnqueueIsPassed links a fast-path node behind the tail
// by hand without swinging the tail, as if its enqueuer stalled between
// its two CASes. Such a node has no descriptor, so helpers must move the
// tail past it themselves: an enqueue and then a dequeue of another tid
// must complete, on either path, and see the stalled node in FIFO order.
func TestStalledFastEnqueueIsPassed(t *testing.T) {
	withFastPath(t, func(t *testing.T, slow bool) {
		a, s, q := newTestQueue(t, 3)
		stalled := reclaim.MustAlloc(s, 2)
		a.ZeroWords(stalled)
		if !a.CASWord(pack.Handle(q.tail.Load()), nextWord, 0, stalled) {
			t.Fatal("could not link the stalled node")
		}
		mine := reclaim.MustAlloc(s, 1)
		var got []mem.Handle
		done := make(chan struct{})
		go func() {
			defer close(done)
			q.EnqueueNode(s, 1, mine)
			for {
				n, ok := q.Dequeue(s, 1)
				if !ok {
					return
				}
				got = append(got, n)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("operations behind a stalled fast-path enqueue did not complete")
		}
		if want := []mem.Handle{stalled, mine}; !slices.Equal(got, want) {
			t.Fatalf("dequeued %v, want %v", got, want)
		}
	})
}

// TestRecycledNodePublishedZeroed enqueues nodes the Debug arena
// recycled: each was retired and freed, so the arena poisoned its words.
// Once published, such a node must read zero in every word but enqTid,
// which names its enqueuer only on the slow path.
func TestRecycledNodePublishedZeroed(t *testing.T) {
	withFastPath(t, func(t *testing.T, slow bool) {
		a, s, q := newTestQueue(t, 1)
		recycled := 0
		for i := 0; recycled < 8; i++ {
			if i == 10_000 {
				t.Fatalf("only %d recycled nodes in %d enqueues", recycled, i)
			}
			n := reclaim.MustAlloc(s, 0)
			fresh := a.Version(n) == 0
			if !fresh && a.LoadWord(n, nextWord) == 0 {
				t.Fatalf("recycled node %d was not poisoned; the test checks nothing", n)
			}
			q.EnqueueNode(s, 0, n)
			want := [mem.NumWords]uint64{}
			if slow {
				want[enqTidWord] = 1
			}
			var got [mem.NumWords]uint64
			for w := range got {
				got[w] = a.LoadWord(n, w)
			}
			if got != want {
				t.Fatalf("published node %d (fresh %v) reads %#x, want %#x", n, fresh, got, want)
			}
			if !fresh {
				recycled++
			}
			if _, ok := q.Dequeue(s, 0); !ok {
				t.Fatal("queue empty after an enqueue")
			}
		}
	})
}

// TestLayout pins the cache-line layout. A Queue's read-mostly fields
// fill its first 64 bytes, and head and tail, which every operation
// CASes, the second line. A stateSlot's desc, which every other tid's
// helpOne reads, has a line apart from the owner-written held and cursor.
func TestLayout(t *testing.T) {
	var q Queue
	var st stateSlot
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"Queue.head offset", unsafe.Offsetof(q.head), 64},
		{"Queue.tail offset", unsafe.Offsetof(q.tail), 72},
		{"Queue size", unsafe.Sizeof(q), 128},
		{"stateSlot.held offset", unsafe.Offsetof(st.held), 64},
		{"stateSlot.cursor offset", unsafe.Offsetof(st.cursor), 72},
		{"stateSlot size", unsafe.Sizeof(st), 128},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.got, c.want)
		}
	}
}
