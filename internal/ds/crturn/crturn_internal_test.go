package crturn

import (
	"testing"
	"unsafe"
)

// TestLayout pins the cache-line layout. A Queue's read-mostly fields
// fill its first 64 bytes, and head and tail, which every operation
// CASes, the second line. perThread and ownerState are a line each.
func TestLayout(t *testing.T) {
	var q Queue
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"Queue.head offset", unsafe.Offsetof(q.head), 64},
		{"Queue.tail offset", unsafe.Offsetof(q.tail), 72},
		{"Queue size", unsafe.Sizeof(q), 128},
		{"perThread size", unsafe.Sizeof(perThread{}), 64},
		{"ownerState size", unsafe.Sizeof(ownerState{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.got, c.want)
		}
	}
}
