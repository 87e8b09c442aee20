package ds

import "testing"

func TestBuckets(t *testing.T) {
	for _, tc := range []struct {
		min, n int
		shift  uint
	}{
		{-1, 1, 64}, {0, 1, 64}, {1, 1, 64}, {2, 2, 63}, {3, 4, 62},
		{100, 128, 57}, {1 << 19, 1 << 19, 45},
	} {
		n, shift := Buckets(tc.min)
		if n != tc.n || shift != tc.shift {
			t.Errorf("Buckets(%d) = %d, %d; want %d, %d", tc.min, n, shift, tc.n, tc.shift)
		}
		for _, key := range []uint64{0, 1, 12345, ^uint64(0)} {
			if b := Bucket(key, shift); b >= uint64(n) {
				t.Errorf("Bucket(%d, %d) = %d, out of %d buckets", key, shift, b, n)
			}
		}
	}
}
