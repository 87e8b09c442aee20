package wfe

import (
	"testing"

	"wfe/internal/ds/dstest"
)

func TestHashMapDenseKeysShortChains(t *testing.T) {
	dstest.CheckDenseChains(t, func(n int) func(uint64) *Atomic[int] {
		return NewHashMap[int](nil, n).bucket
	})
}
