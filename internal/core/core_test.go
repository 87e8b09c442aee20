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

// clocked lists the schemes that run the era clock: the era schemes,
// base schemes first, then EBR, whose epoch is the clock.
var clocked = []string{"HE", "WFE", "2GEIBR", "WFE-IBR", "EBR"}

func TestEraAdvancesOnAllocFrequency(t *testing.T) {
	for _, name := range clocked {
		t.Run(name, func(t *testing.T) {
			s := mustNew(t, name, newArena(t, 1<<12, 1), reclaim.Config{MaxThreads: 1, EraFreq: 10})
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
// pack.MaxEra panics, in every scheme that runs the clock.
func TestEraClockBound(t *testing.T) {
	for _, name := range clocked {
		t.Run(name, func(t *testing.T) {
			s := mustNew(t, name, newArena(t, 1<<12, 1), reclaim.Config{MaxThreads: 1, InitialEra: pack.MaxEra - 2})
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
	for _, name := range []string{"2GEIBR", "WFE-IBR"} {
		t.Run(name, func(t *testing.T) {
			a := newArena(t, 1<<12, 1)
			s := mustNew(t, name, a, reclaim.Config{MaxThreads: 1, CleanupFreq: 1, EraFreq: 1})
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
// request first, since a clock started with the base scheme's tick would
// advance without helping. The retire-side hook (PreScan under WFE,
// OnRetire under WFE-IBR) is reached through Retire, so the test also pins
// that the Retirer judges with the helping scheme rather than its embedded
// base.
func TestTickPathsHelp(t *testing.T) {
	cfg := reclaim.Config{MaxThreads: 2, EraFreq: 1, CleanupFreq: 1}
	for _, sc := range []struct {
		name, hook string
		// build returns the scheme, its request board, and a post of one
		// request by thread 0 to read src, as the slow path posts it.
		build func(*mem.Arena) (reclaim.Scheme, *requests, func(src *atomic.Uint64))
	}{
		{"WFE", "PreScan", func(a *mem.Arena) (reclaim.Scheme, *requests, func(*atomic.Uint64)) {
			w := NewWFE(a, cfg)
			return w, &w.requests, func(src *atomic.Uint64) { postRequest(w, 0, 0, src, pack.Inf) }
		}},
		{"WFE-IBR", "OnRetire", func(a *mem.Arena) (reclaim.Scheme, *requests, func(*atomic.Uint64)) {
			w := NewWFEIBR(a, cfg)
			w.Begin(0)
			return w, &w.requests, func(src *atomic.Uint64) { w.post(0, src, pack.Inf, 1) }
		}},
	} {
		for _, path := range []string{"TryAlloc", "AdvanceClock", sc.hook} {
			t.Run(sc.name+"/"+path, func(t *testing.T) {
				s, b, post := sc.build(newArena(t, 1<<12, 2))
				var root atomic.Uint64
				root.Store(reclaim.MustAlloc(s, 1))
				blk := reclaim.MustAlloc(s, 1) // retired below, allocated before the post
				post(&root)
				switch path {
				case "TryAlloc": // due on every allocation at EraFreq 1
					reclaim.MustAlloc(s, 1)
				case "AdvanceClock":
					s.AdvanceClock(1)
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
// reservations finds unreserved. HP publishes random handles, judged by
// membership; EBR publishes random announcements under a random epoch,
// judged by the two-epoch grace rule alone.
func TestSortedScanMatchesLinearOracle(t *testing.T) {
	const threads = 16
	for _, name := range []string{"HE", "WFE", "2GEIBR", "WFE-IBR", "HP", "EBR"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260729))
			for iter := 0; iter < 100; iter++ {
				a := newArena(t, 1<<12, threads)
				s := mustNew(t, name, a, reclaim.Config{MaxThreads: threads, SortCutoff: 1})
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
					if want := reserved(b.h, b.birth, b.retire); a.Live(b.h) != want {
						t.Fatalf("iter %d: block %d lifespan [%d,%d] kept=%v, linear oracle says reserved=%v",
							iter, b.h, b.birth, b.retire, a.Live(b.h), want)
					}
				}
			}
		})
	}
}

// publishRandom publishes reservations in [1, 120] into a random share of
// s's slots and returns the linear oracle over them: whether block h with
// lifespan [birth, retire] meets any published era, interval or handle,
// or, under EBR, is younger than two epochs.
func publishRandom(rng *rand.Rand, s reclaim.Scheme) func(h mem.Handle, birth, retire uint64) bool {
	density := rng.Intn(9) // each slot is published with probability density/16
	var eras, los, his, handles []uint64
	pointSlots := func(b *base, js, je int, n int, out *[]uint64) {
		for i := 0; i < b.cfg.MaxThreads; i++ {
			for j := js; j < je; j++ {
				if rng.Intn(16) < density {
					e := uint64(rng.Intn(n)) + 1
					b.resv(i, j).Store(uint64(pack.MakeEraTag(e, uint64(rng.Intn(4)))))
					*out = append(*out, e)
				}
			}
		}
	}
	eraSlots := func(h *HE, js, je int) { pointSlots(&h.base, js, je, 120, &eras) }
	intervalSlots := func(b *base, j int) {
		for i := 0; i < b.cfg.MaxThreads; i++ {
			if rng.Intn(16) >= density {
				continue
			}
			iv := b.interval(i, j)
			lo := uint64(rng.Intn(120)) + 1
			hi := lo + uint64(rng.Intn(20))
			switch rng.Intn(16) {
			case 0: // a gather that raced a Clear read the upper bound as Inf
				hi = pack.Inf
			case 1: // a Begin or Clear between its two stores: nothing open
				iv.upper.Store(hi)
				continue
			}
			iv.lower.Store(lo)
			iv.upper.Store(hi)
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
		intervalSlots(&s.base, normal)
	case *WFEIBR:
		intervalSlots(&s.base, special)
		intervalSlots(&s.base, normal)
	case *HP:
		// The test's 32 blocks take handles 1-32; publish some beyond.
		pointSlots(&s.base, 0, s.cfg.MaxHEs, 40, &handles)
	case *EBR:
		epoch := uint64(rng.Intn(140)) + 1
		s.era.Store(epoch)
		for i := 0; i < s.cfg.MaxThreads; i++ {
			if rng.Intn(16) < density { // active, possibly lagging
				s.resv(i, 0).Store((uint64(rng.Intn(int(epoch)))+1)<<1 | activeBit)
			}
		}
		// The first allocation may still advance the epoch once, so the
		// rule reads the epoch the scan saw.
		return func(_ mem.Handle, _, retire uint64) bool { return retire+2 > s.Era() }
	}
	return func(h mem.Handle, birth, retire uint64) bool {
		for _, v := range handles {
			if v == h {
				return true
			}
		}
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
