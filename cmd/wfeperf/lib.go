package main

// This file is the benchmark's only contact with package wfe: every call
// the workloads, the traced pass and the probes make goes through the
// functions below. When the public surface changes (say the plain,
// Guarded and Try* variants collapse into one), this is the one file of
// the benchmark that has to follow.

import (
	"errors"

	"wfe"
)

// maxGuards covers the two workers, the stalled reader of map-stall and
// the guard a single-call probe takes while the other three are held.
const maxGuards = 4

type (
	domain = wfe.Domain[uint64]
	guard  = wfe.Guard[uint64]
)

// newDomain builds a WFE domain. forceSlow selects the paper's stress mode
// in which every protected read takes the helping slow path.
func newDomain(capacity int, forceSlow bool) (*domain, error) {
	return wfe.NewDomain[uint64](wfe.Options{
		Scheme:        wfe.WFE,
		Capacity:      capacity,
		MaxGuards:     maxGuards,
		ForceSlowPath: forceSlow,
	})
}

func pin(d *domain) *guard       { return d.Pin() }
func unpin(d *domain, g *guard)  { d.Unpin(g) }
func unreclaimed(d *domain) int  { return d.Unreclaimed() }
func scavenge(d *domain) int     { return d.Scavenge() }
func isExhausted(err error) bool { return errors.Is(err, wfe.ErrArenaExhausted) }

// closeDomain returns the lease cache's guards to the pool and stops the
// domain; the caller must hold no guard.
func closeDomain(d *domain) {
	d.FlushGuardCache()
	_ = d.Close() // Close always returns nil
}

// censusGap is Capacity minus the four places a block can be in. It is 0
// on a quiescent domain that neither lost nor duplicated a block.
func censusGap(d *domain) int {
	c := d.ArenaCensus()
	return c.Capacity - (c.Cached + c.Global + c.Live + c.BumpFree)
}

// hashMap stores each key with itself as the value, so readers can check
// every value they get back.
type hashMap struct{ m *wfe.HashMap[uint64] }

func newHashMap(d *domain, keys int) hashMap { return hashMap{wfe.NewHashMap[uint64](d, keys)} }

func (m hashMap) tryInsert(k uint64) (bool, error)            { return m.m.TryInsert(k, k) }
func (m hashMap) delete(k uint64) bool                        { return m.m.Delete(k) }
func (m hashMap) tryMultiPut(ks []uint64) (int, error)        { return m.m.TryMultiPut(ks, ks) }
func (m hashMap) multiDelete(ks []uint64) []bool              { return m.m.MultiDelete(ks) }
func (m hashMap) tryInsertG(g *guard, k uint64) (bool, error) { return m.m.TryInsertGuarded(g, k, k) }
func (m hashMap) deleteG(g *guard, k uint64) bool             { return m.m.DeleteGuarded(g, k) }
func (m hashMap) getG(g *guard, k uint64) (uint64, bool)      { return m.m.GetGuarded(g, k) }
func (m hashMap) tryPutG(g *guard, k uint64) error            { return m.m.TryPutGuarded(g, k, k) }
func (m hashMap) len() int                                    { return m.m.Len() }

func (m hashMap) tryMultiPutG(g *guard, ks []uint64) (int, error) {
	return m.m.TryMultiPutGuarded(g, ks, ks)
}
func (m hashMap) multiDeleteG(g *guard, ks []uint64) []bool { return m.m.MultiDeleteGuarded(g, ks) }

type queue struct{ q *wfe.WFQueue[uint64] }

func newQueue(d *domain) queue { return queue{wfe.NewWFQueue[uint64](d)} }

func (q queue) tryEnqueue(v uint64) error            { return q.q.TryEnqueue(v) }
func (q queue) dequeue() (uint64, bool)              { return q.q.Dequeue() }
func (q queue) tryEnqueueG(g *guard, v uint64) error { return q.q.TryEnqueueGuarded(g, v) }
func (q queue) dequeueG(g *guard) (uint64, bool)     { return q.q.DequeueGuarded(g) }
func (q queue) len() int                             { return q.q.Len() }

// counters is the subset of wfe.Telemetry the metrics are computed from.
// All fields but the step quantiles and the backlog are cumulative, so a
// window's work is the difference of two readings.
type counters struct {
	allocs, frees                     uint64
	scans, scanBlocks, scanNanos      uint64
	segPushes, segPops, bumpHighwater uint64
	cacheHits, cacheMisses, parks     uint64
	batchOps, batchItems              uint64
	slowPaths, allocStalls            uint64
	p99Steps, maxSteps                uint64
}

func readCounters(d *domain) counters {
	t := d.Telemetry()
	return counters{
		allocs: t.Allocs, frees: t.Frees,
		scans: t.ScanScans, scanBlocks: t.ScanBlocks, scanNanos: t.ScanNanos,
		segPushes: t.ArenaSegPushes, segPops: t.ArenaSegPops, bumpHighwater: t.ArenaBumpHighwater,
		cacheHits: t.GuardCacheHits, cacheMisses: t.GuardCacheMisses, parks: t.GuardParks,
		batchOps: t.BatchOps, batchItems: t.BatchedItems,
		slowPaths: t.SlowPaths, allocStalls: t.AllocStalls,
		p99Steps: t.P99Steps, maxSteps: t.MaxSteps,
	}
}

// stall is map-stall's stalled reader: a guard that protects a block and
// then does nothing, so WFE must keep every block whose lifetime spans
// the reservation.
type stall struct {
	g    *guard
	root wfe.Atomic[uint64]
	r    wfe.Ref[uint64]
}

func holdStall(d *domain) *stall {
	s := &stall{g: d.Guard()}
	s.r = s.g.Alloc(0)
	s.root.Store(s.r)
	s.g.Begin()
	s.g.Protect(&s.root, 0)
	return s
}

func (s *stall) release() {
	s.g.End()
	s.g.Dealloc(s.r) // never reachable from a structure
	s.g.Release()
}

// The probes below each run n iterations of one public call (or the pair
// that undoes it) on an idle domain; the caller times them.

func probePinUnpin(d *domain, n int) {
	for i := 0; i < n; i++ {
		d.Unpin(d.Pin())
	}
}

func probeGuardRelease(d *domain, n int) {
	for i := 0; i < n; i++ {
		d.Guard().Release()
	}
}

func probeAllocFree(d *domain, n int) {
	g := d.Guard()
	defer g.Release()
	for i := 0; i < n; i++ {
		r, err := g.TryAlloc(uint64(i))
		if err != nil {
			panic(err) // the probe domains are nowhere near full
		}
		g.Dealloc(r)
	}
}

func probeAllocRetire(d *domain, n int) {
	g := d.Guard()
	defer g.Release()
	for i := 0; i < n; i++ {
		g.Retire(g.Alloc(uint64(i)))
	}
}

func probeProtect(d *domain, n int) {
	g := d.Guard()
	defer g.Release()
	var root wfe.Atomic[uint64]
	r := g.Alloc(1)
	root.Store(r)
	g.Begin()
	for i := 0; i < n; i++ {
		g.Protect(&root, 0)
	}
	g.End()
	g.Dealloc(r)
}
