// Fuzz targets for the promoted kv workloads: random operation sequences
// run against a plain Go map oracle, with the debug arena's use-after-free
// detection armed and the reclamation scheme itself fuzzed (the first
// input byte selects the SchemeKind and, for the wait-free schemes, the
// forced-slow-path stress mode). CI runs a short `go test -fuzz` smoke for
// each target; the seed corpus covers every operation and the
// collision-heavy small-key regime.
package wfe_test

import (
	"testing"

	"wfe"
)

// Each input byte past the selector is one operation: the top two bits
// select the op, the low six the key — small key ranges maximise chain and
// subtree collisions, which is where reclamation bugs live. fuzzMaxOps
// bounds the decoded sequence so a huge input cannot exhaust the arena.
const fuzzMaxOps = 2048

// fuzzDomain builds the Debug-mode domain a fuzz run mutates. The selector
// byte picks the scheme (low bits) and the forced-slow-path mode (top bit).
// blocksPerOp is the structure's worst-case allocations per operation; it
// sizes the arena so even the never-recycling Leak baseline cannot exhaust
// it within fuzzMaxOps operations.
func fuzzDomain(t *testing.T, sel byte, blocksPerOp int) *wfe.Domain[uint64] {
	schemes := wfe.AllSchemes()
	kind := schemes[int(sel&0x7F)%len(schemes)]
	capacity := blocksPerOp*fuzzMaxOps + 64
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:        kind,
		Capacity:      capacity,
		MaxGuards:     2,
		EraFreq:       16,
		CleanupFreq:   4,
		ForceSlowPath: sel&0x80 != 0,
		Debug:         true,
	})
	if err != nil {
		t.Fatal(err) // inside the fuzz target only t, never f, may report
	}
	return d
}

// fuzzSeeds is the shared seed corpus: every op class, duplicate inserts,
// delete-then-get, put-replace churn, and a long mixed sequence.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0x01, 0x41, 0x81, 0xC1})                                  // insert/delete/get/put on one key
	f.Add([]byte{1, 0x05, 0x05, 0x45, 0x85, 0xC5, 0x45})                      // duplicate insert, delete twice
	f.Add([]byte{3, 0xC2, 0xC2, 0xC2, 0x42, 0x82})                            // put-replace churn then delete
	f.Add([]byte{0x84, 0x01, 0x02, 0x03, 0x41, 0x42, 0x43, 0x81, 0x82, 0x83}) // slow path
	long := []byte{2}
	for i := 0; i < 64; i++ {
		long = append(long, byte(i*37))
	}
	f.Add(long)
}

// runKVFuzz drives one decoded op sequence against the structure and a
// map oracle, checking every result, then audits Len and every surviving
// key's value.
func runKVFuzz(t *testing.T, d *wfe.Domain[uint64], api conformAPI, data []byte) {
	model := make(map[uint64]uint64)
	g := d.Pin()
	defer d.Unpin(g)
	ops := data
	if len(ops) > fuzzMaxOps {
		ops = ops[:fuzzMaxOps]
	}
	for i, b := range ops {
		oracleStep(t, api, g, model, i, int(b>>6), uint64(b&0x3F))
	}
	if n := api.length(g); n != len(model) {
		t.Fatalf("Len = %d, model has %d keys", n, len(model))
	}
	for key, wantV := range model {
		gotV, ok := api.get(g, key)
		if !ok || gotV != wantV {
			t.Fatalf("final get(%d) = %d,%v, model says %d,true", key, gotV, ok, wantV)
		}
	}
}

// runKVBatchFuzz is runKVFuzz for the HashMap's batch entry points:
// consecutive ops of the same class are coalesced into runs of at most
// width and flushed through MultiDelete/MultiGet/TryMultiPut, validating
// every positional result against the oracle. The batch items run
// sequentially on one guard, so per-item expectations are exactly the
// per-op ones — duplicates within a run included. Inserts have no batch
// twin and go through the per-op path, which also exercises mixing
// per-op and batch calls on one pinned guard.
func runKVBatchFuzz(t *testing.T, d *wfe.Domain[uint64], m *wfe.HashMap[uint64], width int, data []byte) {
	model := make(map[uint64]uint64)
	api := hashMapAPI{m}
	g := d.Pin()
	defer d.Unpin(g)
	ops := data
	if len(ops) > fuzzMaxOps {
		ops = ops[:fuzzMaxOps]
	}
	run := -1 // op class of the pending run, or -1
	var ks, vs []uint64
	flush := func() {
		switch run {
		case 1: // delete run
			oks := m.MultiDeleteGuarded(g, ks)
			for j, k := range ks {
				_, want := model[k]
				if oks[j] != want {
					t.Fatalf("MultiDelete[%d](%d) = %v, model says %v", j, k, oks[j], want)
				}
				delete(model, k)
			}
		case 2: // get run
			vals, oks := m.MultiGetGuarded(g, ks)
			for j, k := range ks {
				wantV, want := model[k]
				if oks[j] != want || (want && vals[j] != wantV) {
					t.Fatalf("MultiGet[%d](%d) = %d,%v, model says %d,%v",
						j, k, vals[j], oks[j], wantV, want)
				}
			}
		case 3: // put run
			if _, err := m.TryMultiPutGuarded(g, ks, vs); err != nil {
				t.Fatalf("TryMultiPut(%v): %v", ks, err)
			}
			for j, k := range ks { // sequential application: last value wins
				model[k] = vs[j]
			}
		}
		run = -1
		ks, vs = ks[:0], vs[:0]
	}
	for i, b := range ops {
		op, key := int(b>>6), uint64(b&0x3F)
		if op != run || len(ks) == width {
			flush()
		}
		if op == 0 { // insert: per-op only
			oracleStep(t, api, g, model, i, op, key)
			continue
		}
		run = op
		ks = append(ks, key)
		vs = append(vs, uint64(i)+1) // what oracleStep's put would store
	}
	flush()
	if n := api.length(g); n != len(model) {
		t.Fatalf("Len = %d, model has %d keys", n, len(model))
	}
	for key, wantV := range model {
		gotV, ok := api.get(g, key)
		if !ok || gotV != wantV {
			t.Fatalf("final get(%d) = %d,%v, model says %d,true", key, gotV, ok, wantV)
		}
	}
}

func FuzzHashMap(f *testing.F) {
	fuzzSeeds(f)
	// Batch-mode seeds: byte 1 with the top bit set routes op runs
	// through the batch entry points (low nibble picks the width).
	f.Add([]byte{0, 0x81, 0xC1, 0xC2, 0xC3, 0x41, 0x42, 0x81, 0x82, 0x83})
	f.Add([]byte{1, 0x8E, 0x01, 0x01, 0xC1, 0xC1, 0x41, 0x41, 0x81, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := fuzzDomain(t, data[0], 1)
		m := wfe.NewHashMap[uint64](d, 8) // few buckets: long chains
		// The second byte is the batch selector: top bit on sends op runs
		// through TryMultiPut/MultiDelete/MultiGet instead of the per-op
		// methods, with the low nibble sizing the coalescing window.
		if len(data) > 1 && data[1]&0x80 != 0 {
			runKVBatchFuzz(t, d, m, int(data[1]&0x0F)+2, data[2:])
			return
		}
		runKVFuzz(t, d, hashMapAPI{m}, data[1:])
	})
}

func FuzzTree(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := fuzzDomain(t, data[0], 2) // insert allocates a leaf and a router
		tr := wfe.NewTree[uint64](d)
		runKVFuzz(t, d, treeAPI{tr}, data[1:])
	})
}
