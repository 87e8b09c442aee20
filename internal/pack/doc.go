// Package pack emulates the paper's wide CAS (WCAS) by packing the two
// adjacent 64-bit words the WFE algorithm updates atomically into a single
// 64-bit word operated on with sync/atomic.
//
// The paper (Nikolaev & Ravindran, "Universal Wait-Free Memory Reclamation",
// PPoPP 2020) assumes x86-64 CMPXCHG16B to atomically update two adjacent
// words: the per-reservation {era, tag} pair and the per-slow-path-slot
// {pointer, era} result pair. Go exposes no 128-bit CAS, so both pairs are
// packed into one uint64:
//
//	EraTag:  | era (38 bits) | tag (26 bits) |
//	ResPair: | ptr (26 bits) | val (38 bits) |
//
// where ptr is a link value (a 24-bit arena handle plus two mark/flag bits
// used by the lock-free data structures) and val holds either an era (on
// output) or a slow-path cycle tag (on input; tags are 26 bits and therefore
// always fit in the 38-bit field).
//
// Width accounting, versus the paper's 64-bit fields:
//
//   - Era, 38 bits: the era clock advances once per eraFreq (default 150)
//     allocations per thread and once per cleanupFreq retirements. At an
//     aggressive 10^5 increments/second the clock wraps after ~31 days of
//     continuous execution; the benchmark sweep observes increment rates two
//     orders of magnitude lower. Era 2^38-1 is reserved as Inf (the paper's
//     ∞ reservation value).
//
//   - Tag, 26 bits: the tag counts slow-path cycles per reservation slot
//     and protects helpers against acting on a stale cycle. It may wrap
//     after 2^26 ≈ 67M slow-path cycles on one slot; a wrap is only harmful
//     if a helper sleeps across an exact multiple of 2^26 cycles of the same
//     slot, which the test suite cannot come close to producing. The paper's
//     64-bit tag has the same wrap argument with a larger constant. Hazard
//     Eras stores the same {era, tag} words with tag 0.
//
//     WFE-IBR's tag is different: it counts slow-path cycles per thread,
//     not per reservation, and lives only in ResPair's 38-bit val field
//     (its interval reservations carry no tag). It takes 38 bits and skips
//     the Inf value, so a pending request's tag never reads as an era of
//     ∞; it wraps after 2^38 - 1 cycles of one thread, by the same
//     argument as the reservation tag.
//
//   - Ptr, 26 bits: 24-bit arena handle (16.7M live blocks) plus bit 24
//     (mark/flag) and bit 25 (tag/second flag) used by Harris–Michael lists
//     and the Natarajan–Mittal BST. The all-ones 26-bit value is InvPtr,
//     the paper's invptr sentinel, which no data structure may store.
package pack
