package hashmap

import (
	"testing"

	"wfe/internal/ds/dstest"
	"wfe/internal/ds/list"
)

func TestDenseKeysShortChains(t *testing.T) {
	dstest.CheckDenseChains(t, func(n int) func(uint64) *list.List {
		m := New(nil, n)
		return m.bucket
	})
}
