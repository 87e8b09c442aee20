// Guard-runtime benchmarks: the lock-free guard table against the mutex
// freelist the runtime started from, and the guardless API against pinned
// and per-op-acquired guards. The acceptance bars: uncontended acquire/release beats the mutex
// baseline, and guardless structure ops stay within 1.5x of pinned ones.
package wfe_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"wfe"
	"wfe/internal/guardpool"
)

// mutexPool replicates the freelist the Domain used before the guard
// runtime: a slice of free tids behind a sync.Mutex. It exists only as
// the benchmark baseline.
type mutexPool struct {
	mu   sync.Mutex
	free []int
}

func newMutexPool(n int) *mutexPool {
	p := &mutexPool{free: make([]int, n)}
	for i := range p.free {
		p.free[i] = n - 1 - i
	}
	return p
}

func (p *mutexPool) TryAcquire() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return 0, false
	}
	tid := p.free[n-1]
	p.free = p.free[:n-1]
	return tid, true
}

func (p *mutexPool) Release(tid int) {
	p.mu.Lock()
	p.free = append(p.free, tid)
	p.mu.Unlock()
}

// BenchmarkGuardAcquireRelease measures one acquire/release round trip on
// the lock-free pool versus the mutex baseline, uncontended (one
// goroutine) and contended (GOMAXPROCS goroutines over GOMAXPROCS ids).
func BenchmarkGuardAcquireRelease(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	b.Run("lockfree-uncontended", func(b *testing.B) {
		p := guardpool.New(n)
		for i := 0; i < b.N; i++ {
			tid, _ := p.TryAcquire()
			p.Release(tid)
		}
	})
	b.Run("mutex-uncontended", func(b *testing.B) {
		p := newMutexPool(n)
		for i := 0; i < b.N; i++ {
			tid, _ := p.TryAcquire()
			p.Release(tid)
		}
	})
	b.Run("lockfree-contended", func(b *testing.B) {
		p := guardpool.New(n)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if tid, ok := p.TryAcquire(); ok {
					p.Release(tid)
				}
			}
		})
	})
	b.Run("mutex-contended", func(b *testing.B) {
		p := newMutexPool(n)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if tid, ok := p.TryAcquire(); ok {
					p.Release(tid)
				}
			}
		})
	})
}

// BenchmarkGuardedOps compares the three acquisition paths on the same
// stack push/pop workload at GOMAXPROCS goroutines: pinned (one lease for
// the whole run — the floor), guardless (one lease per operation — must
// stay within 1.5x of pinned), and acquire-per-op (a guard-table scan
// every operation — what guardless would cost without the per-P hint).
// guardless-8x runs eight goroutines per guard, so leases park; the
// guardless rows report parks per operation.
func BenchmarkGuardedOps(b *testing.B) {
	newStack := func(b *testing.B) (*wfe.Domain[uint64], *wfe.Stack[uint64]) {
		b.Helper()
		d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		return d, wfe.NewStack[uint64](d)
	}
	b.Run("pinned", func(b *testing.B) {
		d, s := newStack(b)
		b.RunParallel(func(pb *testing.PB) {
			g := d.Pin()
			defer d.Unpin(g)
			for pb.Next() {
				if err := s.TryPushGuarded(g, 1); err != nil {
					b.Error(err)
					return
				}
				s.PopGuarded(g)
			}
		})
	})
	for _, par := range []int{1, 8} {
		name := "guardless"
		if par > 1 {
			name = fmt.Sprintf("guardless-%dx", par)
		}
		b.Run(name, func(b *testing.B) {
			d, s := newStack(b)
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := s.TryPush(1); err != nil {
						b.Error(err)
						return
					}
					s.Pop()
				}
			})
			b.ReportMetric(float64(d.Telemetry().GuardParks)/float64(b.N), "parks/op")
		})
	}
	b.Run("acquire-per-op", func(b *testing.B) {
		d, s := newStack(b)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				g, ok := d.TryGuard()
				if !ok {
					continue
				}
				err := s.TryPushGuarded(g, 1)
				s.PopGuarded(g)
				g.Release()
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
