package main

import (
	"slices"
	"testing"
)

// keyStream draws n keys the way a serving caller does.
func keyStream(seed, stream uint64, n int) []uint64 {
	z := newZipf(newRNG(seed, stream), serveKeys, serveTheta)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

func TestSeedFixesKeyStream(t *testing.T) {
	a, b := keyStream(7, 1, 10000), keyStream(7, 1, 10000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different key streams")
	}
	if slices.Equal(a, keyStream(8, 1, 10000)) {
		t.Fatal("different seeds gave the same key stream")
	}
	if slices.Equal(a, keyStream(7, 2, 10000)) {
		t.Fatal("different callers got the same key stream")
	}
	for _, k := range a {
		if k >= serveKeys {
			t.Fatalf("key %d outside the key space", k)
		}
	}
}

// Zipf(0.99) concentrates draws on the head of the key space.
func TestZipfSkew(t *testing.T) {
	keys := keyStream(1, 1, 100000)
	head := 0
	for _, k := range keys {
		if k < serveKeys/100 {
			head++
		}
	}
	if share := float64(head) / float64(len(keys)); share < 0.5 {
		t.Fatalf("hottest 1%% of keys drew %.2f of the stream, want most of it", share)
	}
}

func TestDistinctSorted(t *testing.T) {
	z := newZipf(newRNG(3, 1), serveKeys, serveTheta)
	keys := make([]uint64, serveBatch)
	seen := map[uint64]struct{}{}
	for range 20 {
		z.distinctSorted(keys, seen)
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("keys not distinct and ascending at %d: %d, %d", i, keys[i-1], keys[i])
			}
		}
	}
}

func TestValueCheck(t *testing.T) {
	v := make([]float32, serveDim)
	scratch := make([]float32, serveDim)
	for _, version := range []uint32{0, 1, 2, maxVersion - 1} {
		fillValue(v, 9, 42, version)
		if !checkValue(v, 9, 42, scratch) {
			t.Fatalf("version %d: a written value failed its check", version)
		}
		if checkValue(v, 9, 43, scratch) {
			t.Fatalf("version %d: the value of key 42 passed as key 43's", version)
		}
		if checkValue(v, 10, 42, scratch) {
			t.Fatalf("version %d: the value of seed 9 passed under seed 10", version)
		}
		w := slices.Clone(v)
		w[serveDim-1] += 1.0 / (1 << 24)
		if checkValue(w, 9, 42, scratch) {
			t.Fatalf("version %d: a one-ulp change passed the check", version)
		}
	}
}
