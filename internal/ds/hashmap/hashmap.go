// Package hashmap implements Michael's lock-free hash map: a fixed array of
// buckets, each a Harris–Michael sorted list. Keys are spread by the top
// bits of their Fibonacci product (ds.Bucket), so the benchmark's dense key
// range over a comparable number of buckets keeps chains at one or two
// nodes and operations near-O(1), which is why the paper's hash-map figures
// run two orders of magnitude faster than the linked list.
package hashmap

import (
	"sort"

	"wfe/internal/ds"
	"wfe/internal/ds/list"
	"wfe/internal/reclaim"
)

// Map is a lock-free hash map of uint64 keys.
type Map struct {
	buckets []list.List
	shift   uint // 64 - log2(len(buckets)), see ds.Bucket
}

// New creates a map with at least minBuckets buckets (rounded up to a power
// of two), managed by the given scheme.
func New(smr reclaim.Scheme, minBuckets int) *Map {
	n, shift := ds.Buckets(minBuckets)
	m := &Map{buckets: make([]list.List, n), shift: shift}
	for i := range m.buckets {
		m.buckets[i].Init(smr)
	}
	return m
}

// bucketIdx picks the chain from the top bits of the key's Fibonacci
// product (ds.Bucket).
func (m *Map) bucketIdx(key uint64) uint64 {
	return ds.Bucket(key, m.shift)
}

func (m *Map) bucket(key uint64) *list.List {
	return &m.buckets[m.bucketIdx(key)]
}

// Seed bulk-loads deduplicated keys before any concurrent use.
func (m *Map) Seed(tid int, keys []uint64) {
	groups := make([][]uint64, len(m.buckets))
	for _, k := range keys {
		idx := m.bucketIdx(k)
		groups[idx] = append(groups[idx], k)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
		m.buckets[i].Seed(tid, g)
	}
}

// Insert adds key→val, reporting false if the key already exists.
func (m *Map) Insert(tid int, key, val uint64) bool {
	return m.bucket(key).Insert(tid, key, val)
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(tid int, key uint64) bool {
	return m.bucket(key).Delete(tid, key)
}

// Get returns the value stored under key.
func (m *Map) Get(tid int, key uint64) (uint64, bool) {
	return m.bucket(key).Get(tid, key)
}

// Put inserts or refreshes key→val.
func (m *Map) Put(tid int, key, val uint64) {
	m.bucket(key).Put(tid, key, val)
}

// Len sums bucket lengths; meaningful only quiescently.
func (m *Map) Len() int {
	n := 0
	for i := range m.buckets {
		n += m.buckets[i].Len()
	}
	return n
}

// kv adapts Map to ds.KV with keys as values.
type kv struct{ m *Map }

// KV returns the benchmark adapter.
func (m *Map) KV() ds.KV { return kv{m} }

func (k kv) Insert(tid int, key uint64) bool { return k.m.Insert(tid, key, key) }
func (k kv) Delete(tid int, key uint64) bool { return k.m.Delete(tid, key) }
func (k kv) Get(tid int, key uint64) bool    { _, ok := k.m.Get(tid, key); return ok }
func (k kv) Put(tid int, key uint64)         { k.m.Put(tid, key, key) }

func (k kv) Seed(tid int, keys []uint64) { k.m.Seed(tid, keys) }
