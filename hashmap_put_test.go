package wfe_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/failpoint"
)

// TestPutNeverHidesKey is a linearizability probe for TryPut on both
// key-value structures: a put that replaces a present key must never make
// a concurrent Get miss it. One goroutine re-puts four keys a fixed number
// of times while another reads them until the puts are done; every Get
// must find its key, and Len must count each key once. A put that unlinked
// the old node before linking the new one leaves a window in which the key
// is absent, which this probe hits hundreds of times per scheme on the
// HashMap and tens of thousands on the Tree.
func TestPutNeverHidesKey(t *testing.T) {
	const (
		keys = 4
		puts = 20_000
	)
	for _, st := range []struct {
		name  string
		build func(d *wfe.Domain[uint64]) conformAPI
	}{
		// One bucket: the four keys share one chain.
		{"HashMap", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 1)} }},
		{"Tree", func(d *wfe.Domain[uint64]) conformAPI { return treeAPI{wfe.NewTree[uint64](d)} }},
	} {
		t.Run(st.name, func(t *testing.T) {
			for _, kind := range wfe.AllSchemes() {
				t.Run(kind.String(), func(t *testing.T) {
					d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: kind, Capacity: puts + 1024, MaxGuards: 2})
					if err != nil {
						t.Fatal(err)
					}
					api := st.build(d)
					for k := uint64(0); k < keys; k++ {
						if err := api.put(nil, k, k); err != nil {
							t.Fatal(err)
						}
					}
					var done atomic.Bool
					var gets, misses int
					var started, wg sync.WaitGroup
					started.Add(1)
					wg.Add(1)
					go func() {
						defer wg.Done()
						g := d.Pin()
						defer d.Unpin(g)
						started.Done()
						for k := uint64(0); ; k = (k + 1) % keys {
							if _, ok := api.get(g, k); !ok {
								misses++
							}
							gets++
							if done.Load() {
								return
							}
						}
					}()
					started.Wait()
					g := d.Pin()
					for i := uint64(0); i < puts; i++ {
						if err := api.put(g, i%keys, i); err != nil {
							t.Error(err)
							break
						}
					}
					d.Unpin(g)
					done.Store(true)
					wg.Wait()
					if misses != 0 {
						t.Fatalf("Get missed a present key %d times in %d Gets during %d puts", misses, gets, puts)
					}
					if n := api.length(); n != keys {
						t.Fatalf("Len = %d after the puts, want %d", n, keys)
					}
					t.Logf("%d Gets, 0 misses", gets)
				})
			}
		})
	}
}

// TestHashMapPutParkedBetweenCASes parks a replacing put after the CAS
// that links its node and before the swing of the predecessor, and
// checks that Get already returns the new value, that the neighbours stay
// reachable, and that the old node is retired exactly once (a Debug
// arena panics on a second retire) and then freed.
func TestHashMapPutParkedBetweenCASes(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	site, ok := failpoint.Lookup("hashmap-put-swing")
	if !ok {
		t.Fatal("hashmap-put-swing site not registered")
	}
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.HP} {
		t.Run(kind.String(), func(t *testing.T) {
			d, err := wfe.NewDomain[string](wfe.Options{Scheme: kind, Capacity: 64, MaxGuards: 2, Debug: true})
			if err != nil {
				t.Fatal(err)
			}
			m := wfe.NewHashMap[string](d, 1)
			for _, k := range []uint64{1, 2, 3} {
				if err := m.TryPut(k, "old"); err != nil {
					t.Fatal(err)
				}
			}
			fires := site.Fires()
			site.Arm(failpoint.Trigger{OneShot: true, Sleep: 100 * time.Millisecond})
			var parked atomic.Bool
			parked.Store(true)
			putErr := make(chan error, 1)
			go func() {
				err := m.TryPut(2, "new")
				parked.Store(false)
				putErr <- err
			}()
			for site.Fires() == fires {
				runtime.Gosched()
			}
			readsWhileParked := 0
			for parked.Load() {
				if v, ok := m.Get(2); !ok || v != "new" {
					t.Fatalf("Get(2) = (%q, %v) with the put parked between its CASes, want (\"new\", true)", v, ok)
				}
				for _, k := range []uint64{1, 3} {
					if v, ok := m.Get(k); !ok || v != "old" {
						t.Fatalf("Get(%d) = (%q, %v) with the put parked, want (\"old\", true)", k, v, ok)
					}
				}
				if parked.Load() {
					readsWhileParked++
				}
			}
			if err := <-putErr; err != nil {
				t.Fatal(err)
			}
			if readsWhileParked == 0 {
				t.Fatal("no Get completed while the put was parked; the test checked nothing")
			}
			if v, ok := m.Get(2); !ok || v != "new" {
				t.Fatalf("Get(2) = (%q, %v) after the put, want (\"new\", true)", v, ok)
			}
			if n := m.Len(); n != 3 {
				t.Fatalf("Len = %d, want 3", n)
			}
			d.Scavenge()
			if inUse := d.Telemetry().InUse; inUse != 3 {
				t.Fatalf("%d blocks in use after Scavenge, want the 3 live nodes: the old node was not retired", inUse)
			}
		})
	}
}
