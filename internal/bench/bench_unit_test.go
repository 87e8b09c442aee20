package bench

import (
	"math/rand"
	"testing"

	"wfe"
)

func TestWorkloadMixesSumTo100(t *testing.T) {
	for _, w := range []Workload{WriteHeavy, ReadMostly} {
		if w.Insert+w.Delete+w.GetPct+w.PutPct != 100 {
			t.Errorf("workload %s sums to %d", w.Name, w.Insert+w.Delete+w.GetPct+w.PutPct)
		}
	}
}

func TestPrefillKeysDistinctAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := prefillKeys(1000, 100000, rng)
	if len(keys) != 1000 {
		t.Fatalf("got %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not strictly increasing at %d", i)
		}
	}
	// Clamped when the range is smaller than the request.
	small := prefillKeys(50, 10, rng)
	if len(small) != 10 {
		t.Fatalf("clamped prefill = %d keys, want 10", len(small))
	}
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind wfe.SchemeKind
		slow bool
	}{
		{"WFE", wfe.WFE, false}, {"WFE-slow", wfe.WFE, true},
		{"WFE-IBR", wfe.WFEIBR, false}, {"WFE-IBR-slow", wfe.WFEIBR, true},
		{"2GEIBR", wfe.TwoGEIBR, false}, {"Leak", wfe.Leak, false},
	} {
		kind, slow, err := ParseScheme(tc.name)
		if err != nil || kind != tc.kind || slow != tc.slow {
			t.Errorf("ParseScheme(%q) = %v, %v, %v; want %v, %v", tc.name, kind, slow, err, tc.kind, tc.slow)
		}
	}
	for _, bad := range []string{"HE-slow", "wfe", ""} {
		if _, _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) did not error", bad)
		}
	}
}

func TestPrefillLoadsEveryStructure(t *testing.T) {
	for _, ds := range []string{"wfqueue", "turnqueue", "list", "hashmap", "tree"} {
		d, err := wfe.NewDomain[uint64](wfe.Options{MaxGuards: 1, Capacity: 1 << 12, Debug: true})
		if err != nil {
			t.Fatal(err)
		}
		kv := BuildPublicKV(ds, d, 1000)
		if err := Prefill(d, kv, ds, 300, 1000); err != nil {
			t.Fatalf("%s: prefill: %v", ds, err)
		}
		if n := kv.Len(); n != 300 {
			t.Errorf("%s: Len after prefill = %d, want 300", ds, n)
		}
	}
}
