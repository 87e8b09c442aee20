// Package ds defines the abstract key-value interface the paper's benchmark
// drives (insert / delete / get / put, §5) and hosts the concurrent data
// structures implementing it, each written once against reclaim.Scheme so
// every structure runs under every reclamation scheme.
package ds

import "math/bits"

// Seeder is implemented by structures that can bulk-load an initial
// population faster than repeated Inserts; the benchmark prefill uses it
// when available (a sequential 50K-element prefill of the sorted list would
// otherwise be quadratic). Seed must be called before any concurrent use,
// with deduplicated keys.
type Seeder interface {
	Seed(tid int, keys []uint64)
}

// KV is the benchmark-facing operation set. Keys double as values. For the
// queues, Insert enqueues the key and Delete dequeues (the key argument is
// ignored); Get and Put are unsupported, matching the paper's queue
// workloads being write-only.
type KV interface {
	// Insert adds key; reports whether the structure changed.
	Insert(tid int, key uint64) bool
	// Delete removes key (or the head element, for queues); reports whether
	// the structure changed.
	Delete(tid int, key uint64) bool
	// Get looks the key up.
	Get(tid int, key uint64) bool
	// Put inserts the key or refreshes its value.
	Put(tid int, key uint64)
}

// Buckets rounds minBuckets (at least 1) up to a power of two n and returns
// n with the shift that makes Bucket index n buckets: 64 - log2(n).
func Buckets(minBuckets int) (n int, shift uint) {
	lg := bits.Len(uint(max(minBuckets, 1) - 1))
	return 1 << lg, uint(64 - lg)
}

// Bucket is the hash maps' bucket index: the top 64-shift bits of
// key*2^64/φ, Fibonacci multiplicative hashing (Knuth, TAOCP vol. 3 §6.4).
// The top bits are floor(n·frac(key/φ)), which spreads consecutive keys
// evenly over n buckets. Lower bits of the same product would not: they
// are the top bits of key times the multiplier's low-order bits, which
// carry none of φ's spreading, and dense keys 0..2^19-1 taken from bits
// 32-50 fill only 92k of 2^19 buckets with chains of up to 10. With one
// bucket the shift is 64 and Go's shift-past-width gives index 0.
func Bucket(key uint64, shift uint) uint64 {
	return key * 0x9E3779B97F4A7C15 >> shift
}
