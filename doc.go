// Package wfe is a Go reproduction of "Universal Wait-Free Memory
// Reclamation" (Nikolaev & Ravindran, PPoPP 2020): the Wait-Free Eras (WFE)
// scheme, the baselines it is evaluated against (Hazard Eras, Hazard
// Pointers, epoch-based reclamation, 2GEIBR interval-based reclamation and
// a leaky baseline), the six concurrent data structures of the paper's
// evaluation, and the benchmark harness that regenerates every figure.
//
// # Public API
//
// The package's public face is the generic Domain layer:
//
//   - Domain[T] — a typed arena of T-valued blocks plus the reclamation
//     scheme (chosen by SchemeKind) that decides when retired blocks may be
//     recycled. NewDomain is the entry point for every scheme.
//   - Guard — one goroutine's handle on a Domain, owning one of the
//     scheme's thread slots (the paper's tid): all allocation (Alloc),
//     protected reads
//     (Protect/ProtectWord), retirement (Retire) and operation brackets
//     (Begin/End) go through it.
//   - Ref[T] and Atomic[T] — typed block references (with mark- and
//     flag-bit support for logical deletion and the Natarajan–Mittal
//     tag) and atomic root links, replacing the raw uint64 handle
//     plumbing of the internal layer.
//   - Stack[T] — Treiber stack, pre-built on the Domain primitives.
//   - WFQueue[T] and TurnQueue[T] — the paper's two wait-free queues
//     (Kogan–Petrank and CRTurn, Figure 5): combined with the WFE scheme
//     they are wait-free end to end on a held guard, reclamation and
//     allocation included (see Progress below). WFQueue runs an
//     uncontended operation as a bounded Michael–Scott attempt and falls
//     back to the phase-and-descriptor protocol only under contention
//     (Kogan and Petrank's fast-path/slow-path method).
//   - HashMap[T] and Tree[T] — Michael's hash map and the
//     Natarajan–Mittal external BST, the paper's search-structure
//     workloads (Figures 7, 8, 10, 11).
//
// Every structure write (TryPush, TryEnqueue, TryInsert, TryPut and their
// batch forms) reports an arena that stays full after the Domain's
// emergency-reclamation pipeline as ErrArenaExhausted, never as a panic.
//
// The guard runtime decouples goroutines from the paper's fixed thread
// slots with one table: a Domain makes one Guard per slot, and acquiring
// a guard claims its slot with one CAS on that slot's own state word. The
// structures' plain methods are guardless (each operation leases a guard,
// first the one last unpinned on its P, parking when all are held; Len,
// a quiescent count, takes no guard at all), Domain.Pin/Unpin amortize
// that lease over a batch, and Domain.Guard/TryGuard/AcquireGuard hand
// out explicit Guards for fixed worker sets. See the Guard type's
// documentation for the full picture.
//
// See ExampleDomain for the quickstart and ExampleGuard for building a
// custom structure on the primitives.
//
// # Progress
//
// Under the WFE scheme these paths finish in a bounded number of steps,
// whatever the other goroutines do:
//
//   - a held guard's protected reads (Protect, ProtectWord);
//   - both queue cores: WFQueue's and TurnQueue's enqueue and dequeue
//     (a WFQueue operation makes at most three fast attempts, and every
//     operation helps the descriptor under its round-robin cursor, so a
//     slow one completes within MaxGuards operations of each guard);
//   - allocation: a pop from the guard's free cache, a claim of a whole
//     free segment in at most MaxGuards mailbox swaps, or a bump of the
//     never-used region; and the free that returns a block, whose
//     segment publish takes at most two CAS attempts;
//   - retire, and the scan of the guard's own retire list it runs.
//
// Two paths are not wait-free. A guardless call leases a guard, and the
// lease (like Pin and AcquireGuard) parks when every guard is held, until
// one is released; a goroutine that holds its guard never parks, and
// claiming a free guard takes at most MaxGuards CAS attempts. And an
// allocation that finds the arena exhausted enters the emergency
// reclamation pipeline, which borrows every idle guard to scan its retire
// ring but, for the guards operations in flight hold, sleeps a doubling
// backoff between rounds and returns ErrArenaExhausted after
// Options.AllocRetries of them: its bound is a count of sleeps, not of
// steps alone.
//
// # Layout
//
//	domain.go           Domain[T], Guard, Ref[T], Atomic[T], SchemeKind
//	batch.go            the batch context behind the Multi*, TryMulti*,
//	                    TryPushAll, PopN, TryEnqueueAll and DequeueN
//	                    entry points
//	sampler.go          the background Sampler: one window of Telemetry
//	                    rows and the advice judged over it
//	stack.go            public Treiber stack
//	wfqueue.go          public Kogan–Petrank wait-free queue, and nodeQueue,
//	                    the operations both wait-free queues run, one node
//	                    per value
//	turnqueue.go        public CRTurn wait-free queue (type and constructor)
//	hashmap.go          public lock-free hash map (HashMap)
//	tree.go             public Natarajan–Mittal BST
//	internal/core       every scheme by name: HE (Fig. 1), WFE (Fig. 4),
//	                    2GEIBR, WFE-IBR (§2.4), HP, EBR and Leak, over one
//	                    era clock and one reservation board
//	internal/mem        manual-memory arena substrate
//	internal/pack       64-bit packing emulating the paper's wide CAS
//	internal/reclaim    the shared SMR interface and configuration
//	internal/guardpool  the tid table, one state word per tid, + parking
//	                    (the guard runtime)
//	internal/ds/...     Kogan–Petrank and CRTurn queue cores behind WFQueue
//	                    and TurnQueue
//	internal/trace      per-tid event ring buffers (Options.Trace)
//	internal/failpoint  named fault-injection sites, one atomic load disarmed
//	internal/quiesce    check the census of a drained, scavenged Domain
//	internal/chaos      deterministic hostile-schedule engine and its
//	                    robustness verdict (Canned.Check)
//	internal/bench      the figures' operation mixes, structure adapters,
//	                    prefill and stalled reader
//	advisor             scheme advisor over telemetry trajectories
//	metrics             OpenMetrics/JSON export of Domain telemetry
//	cmd/wfeperf         end-to-end and per-layer benchmark (own module)
//	cmd/wfelat          per-operation latency comparison of the queues
//	cmd/wfemon          live monitor of a metrics endpoint, or a chaos
//	                    trajectory replayed with the advisor's recommendation
//	examples/...        runnable walkthroughs of the public API
//
// Each structure has one implementation, and the paper's figures measure
// it: internal/bench drives the public structures on a Domain (the sorted
// linked list of Figures 6/9 is a one-bucket HashMap), and
// conformance_test.go runs all of them through every scheme × acquisition
// path. The root benchmarks regenerate Figures 5–11 (bench_test.go) and
// the ablations (ablation_bench_test.go, BenchmarkBatch and
// BenchmarkGuardedOps) under go test -bench, whose -cpu flag sweeps the
// thread count.
package wfe
