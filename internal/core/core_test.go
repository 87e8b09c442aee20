package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// clocked is a scheme of this package as the clock tests drive it.
type clocked interface {
	reclaim.Scheme
	reclaim.ClockAdvancer
	Era() uint64
}

// allSchemes lists the package's four schemes, base schemes first.
var allSchemes = []struct {
	name string
	new  func(*mem.Arena, reclaim.Config) clocked
}{
	{"HE", func(a *mem.Arena, c reclaim.Config) clocked { return NewHE(a, c) }},
	{"WFE", func(a *mem.Arena, c reclaim.Config) clocked { return New(a, c) }},
	{"2GEIBR", func(a *mem.Arena, c reclaim.Config) clocked { return NewIBR(a, c) }},
	{"WFE-IBR", func(a *mem.Arena, c reclaim.Config) clocked { return NewWFEIBR(a, c) }},
}

func testArena(threads int) *mem.Arena {
	return mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true})
}

func TestEraAdvancesOnAllocFrequency(t *testing.T) {
	for _, sc := range allSchemes {
		t.Run(sc.name, func(t *testing.T) {
			s := sc.new(testArena(1), reclaim.Config{MaxThreads: 1, EraFreq: 10})
			e0 := s.Era()
			// The first alloc (count 0) advances; the next nine must not.
			reclaim.MustAlloc(s, 0)
			if s.Era() != e0+1 {
				t.Fatalf("era = %d after first alloc, want %d", s.Era(), e0+1)
			}
			for i := 0; i < 9; i++ {
				reclaim.MustAlloc(s, 0)
			}
			if s.Era() != e0+1 {
				t.Fatalf("era = %d after 10 allocs, want %d", s.Era(), e0+1)
			}
			reclaim.MustAlloc(s, 0) // 11th: crosses the frequency boundary
			if s.Era() != e0+2 {
				t.Fatalf("era = %d after 11 allocs, want %d", s.Era(), e0+2)
			}
		})
	}
}

// TestEraClockBound pins the clock's one bound: the tick that would reach
// pack.MaxEra panics, in every scheme.
func TestEraClockBound(t *testing.T) {
	for _, sc := range allSchemes {
		t.Run(sc.name, func(t *testing.T) {
			s := sc.new(testArena(1), reclaim.Config{MaxThreads: 1, InitialEra: pack.MaxEra - 2})
			s.AdvanceClock(0)
			if s.Era() != pack.MaxEra-1 {
				t.Fatalf("era = %d after one tick, want MaxEra-1", s.Era())
			}
			recovered := func() (r any) {
				defer func() { r = recover() }()
				s.AdvanceClock(0)
				return nil
			}()
			if !strings.Contains(fmt.Sprint(recovered), "era clock exhausted") {
				t.Fatalf("tick to MaxEra recovered %v, want the clock's exhaustion panic", recovered)
			}
		})
	}
}

func TestRetireAdvancesEraWithoutAllocs(t *testing.T) {
	// Retire-only phases must still make reclamation progress (drain
	// scenario): the interval schemes' era advances on retirement too.
	for _, sc := range allSchemes[2:] {
		t.Run(sc.name, func(t *testing.T) {
			a := testArena(1)
			s := sc.new(a, reclaim.Config{MaxThreads: 1, CleanupFreq: 1, EraFreq: 1})
			blks := make([]mem.Handle, 40)
			for i := range blks {
				blks[i] = reclaim.MustAlloc(s, 0)
			}
			for _, b := range blks {
				s.Retire(0, b)
			}
			freed := 0
			for _, b := range blks {
				if !a.Live(b) {
					freed++
				}
			}
			if freed == 0 {
				t.Fatal("no blocks reclaimed during a retire-only phase")
			}
		})
	}
}

// TestTickPathsHelp pins the routing embedding can silently lose: every
// path by which a helping scheme ticks its clock must help a pending
// request first, since a promoted base method would tick without helping.
// The retire-side hook (WFE's PreScan, WFE-IBR's OnRetire) is reached
// through Retire, so the test also pins that the Retirer judges with the
// helping scheme rather than its embedded base.
func TestTickPathsHelp(t *testing.T) {
	cfg := reclaim.Config{MaxThreads: 2, EraFreq: 1, CleanupFreq: 1}
	for _, sc := range []struct {
		name, hook string
		// build returns the scheme, its board, and a post of one request
		// by thread 0 to read src, as the slow path posts it.
		build func(*mem.Arena) (reclaim.Scheme, *board, func(src *atomic.Uint64))
	}{
		{"WFE", "PreScan", func(a *mem.Arena) (reclaim.Scheme, *board, func(*atomic.Uint64)) {
			w := New(a, cfg)
			return w, &w.board, func(src *atomic.Uint64) { postRequest(w, 0, 0, src, pack.Inf) }
		}},
		{"WFE-IBR", "OnRetire", func(a *mem.Arena) (reclaim.Scheme, *board, func(*atomic.Uint64)) {
			w := NewWFEIBR(a, cfg)
			w.Begin(0)
			return w, &w.board, func(src *atomic.Uint64) { w.post(0, src, pack.Inf, 1) }
		}},
	} {
		for _, path := range []string{"TryAlloc", "AdvanceClock", sc.hook} {
			t.Run(sc.name+"/"+path, func(t *testing.T) {
				s, b, post := sc.build(testArena(2))
				var root atomic.Uint64
				root.Store(reclaim.MustAlloc(s, 1))
				blk := reclaim.MustAlloc(s, 1) // retired below, allocated before the post
				post(&root)
				switch path {
				case "TryAlloc": // due on every allocation at EraFreq 1
					reclaim.MustAlloc(s, 1)
				case "AdvanceClock":
					s.(reclaim.ClockAdvancer).AdvanceClock(1)
				default:
					s.Retire(1, blk)
				}
				if pack.ResPair(b.slots[0].result.Load()).Pending() {
					t.Fatalf("%s ticked the clock without helping the pending request", path)
				}
				b.counterEnd.Add(1)
			})
		}
	}
}

// TestSortedScanMatchesLinearOracle checks each scheme's cleanup scan end
// to end against the linear oracle. Random reservations go into the
// scheme's own slots, the helping schemes' special ones included, and
// random lifespans onto retired blocks. A scan that sorts its snapshot
// must then free exactly the blocks that a plain sweep over the published
// reservations finds unreserved.
func TestSortedScanMatchesLinearOracle(t *testing.T) {
	const threads = 16
	for _, sc := range allSchemes {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260729))
			for iter := 0; iter < 100; iter++ {
				a := testArena(threads)
				s := sc.new(a, reclaim.Config{MaxThreads: threads, SortCutoff: 1})
				reserved := publishRandom(rng, s)
				var blks [32]struct {
					h             mem.Handle
					birth, retire uint64
				}
				for i := range blks {
					b := &blks[i]
					b.birth = uint64(rng.Intn(120)) + 1
					b.retire = b.birth + uint64(rng.Intn(16))
					b.h = reclaim.MustAlloc(s, 0)
					a.SetAllocEra(b.h, b.birth)
					a.SetRetireEra(b.h, b.retire)
					s.Retirer().Add(0, b.h)
				}
				s.Retirer().Scan(0)
				for _, b := range blks {
					if want := reserved(b.birth, b.retire); a.Live(b.h) != want {
						t.Fatalf("iter %d: lifespan [%d,%d] kept=%v, linear oracle says reserved=%v",
							iter, b.birth, b.retire, a.Live(b.h), want)
					}
				}
			}
		})
	}
}

// publishRandom publishes reservations in [1, 120] into a random share of
// s's slots and returns the linear oracle over them: whether a lifespan
// [birth, retire] meets any published era or interval.
func publishRandom(rng *rand.Rand, s clocked) func(birth, retire uint64) bool {
	density := rng.Intn(9) // each slot is published with probability density/16
	var eras, los, his []uint64
	eraSlots := func(h *HE, js, je int) {
		for i := 0; i < h.cfg.MaxThreads; i++ {
			for j := js; j < je; j++ {
				if rng.Intn(16) < density {
					e := uint64(rng.Intn(120)) + 1
					h.resv(i, j).Store(uint64(pack.MakeEraTag(e, uint64(rng.Intn(4)))))
					eras = append(eras, e)
				}
			}
		}
	}
	intervalSlots := func(set []interval) {
		for i := range set {
			if rng.Intn(16) >= density {
				continue
			}
			lo := uint64(rng.Intn(120)) + 1
			hi := lo + uint64(rng.Intn(20))
			switch rng.Intn(16) {
			case 0: // a gather that raced a Clear read the upper bound as Inf
				hi = pack.Inf
			case 1: // a Begin or Clear between its two stores: nothing open
				set[i].upper.Store(hi)
				continue
			}
			set[i].lower.Store(lo)
			set[i].upper.Store(hi)
			los = append(los, lo)
			his = append(his, hi)
		}
	}
	switch s := s.(type) {
	case *HE:
		eraSlots(s, 0, s.cfg.MaxHEs)
	case *WFE:
		h := s.cfg.MaxHEs
		eraSlots(&s.HE, 0, h+1) // the normals and special reservation 1
		if rng.Intn(2) == 0 {
			// Helping in flight: the scan's second phase also honours
			// special reservation 2.
			s.counterStart.Add(1)
			eraSlots(&s.HE, h+1, h+2)
		}
	case *IBR:
		intervalSlots(s.intervals)
	case *WFEIBR:
		intervalSlots(s.specials)
		intervalSlots(s.intervals)
	}
	return func(birth, retire uint64) bool {
		for _, e := range eras {
			if birth <= e && e <= retire {
				return true
			}
		}
		for i := range los {
			if birth <= his[i] && retire >= los[i] {
				return true
			}
		}
		return false
	}
}
