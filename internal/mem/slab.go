package mem

import "sync/atomic"

// chunkBits sets the slab grain, ChunkSize = 2^chunkBits elements. The
// grain trades what the smallest arena commits against the directory a
// large one reads on every access. Measured on a 2-vCPU Xeon host:
// NewDomain plus its first allocation at Capacity 64 (BenchmarkNewDomain)
// takes 14 µs and 32 KB at 256-element chunks, 35 µs and 104 KB at 1024
// and 75 µs and 399 KB at 4096. wfeperf's map-read (random reads over
// 2^19 keys, so 16 KB of each directory in use at 256 and 4 KB at 1024)
// lost 11% throughput at 256 against 1024 over six runs each; 4096 was
// within the noise of 1024 over ten pairs.
const chunkBits = 10

// ChunkSize is the number of elements one slab chunk holds: the unit in
// which an arena commits memory as its bump pointer advances.
const ChunkSize = 1 << chunkBits

// Slab is a fixed-length array of E committed one chunk at a time: a
// directory of ceil(n/ChunkSize) chunk pointers, each nil until Grow
// creates its chunk. Growth is wait-free: racing growers each allocate a
// chunk, the first CAS publishes its own, and the others drop theirs and
// use the winner's. Every other access is At, one directory load where a
// plain slice has its base load. A Slab copy shares the original's chunks.
type Slab[E any] struct {
	dir []atomic.Pointer[[ChunkSize]E]
}

// NewSlab returns a slab of n elements with no chunk materialised.
func NewSlab[E any](n int) Slab[E] {
	return Slab[E]{dir: make([]atomic.Pointer[[ChunkSize]E], (n+ChunkSize-1)/ChunkSize)}
}

// Grow materialises the chunk holding element i unless it exists.
func (s *Slab[E]) Grow(i uint64) {
	if p := &s.dir[i>>chunkBits]; p.Load() == nil {
		p.CompareAndSwap(nil, new([ChunkSize]E))
	}
}

// Has reports whether the chunk holding element i exists.
func (s *Slab[E]) Has(i uint64) bool { return s.dir[i>>chunkBits].Load() != nil }

// At returns element i. Its chunk must exist.
func (s *Slab[E]) At(i uint64) *E { return &s.dir[i>>chunkBits].Load()[i&(ChunkSize-1)] }
