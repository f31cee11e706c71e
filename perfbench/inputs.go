package main

import (
	"math"
	"slices"
)

// The benchmark generates its own inputs from --seed, so a change to the
// program under test cannot change what it is fed. Only train-disk draws
// samples through the program's CTR generator, because train.TrainCTR
// takes one; its seed still comes from --seed.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: mix64(seed) ^ mix64(stream+0x9e3779b97f4a7c15)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(i) ∝ 1/(i+1)^theta, by the rejection-
// free method of Gray et al. ("Quickly generating billion-record synthetic
// databases"), as YCSB does. Rank 0 is the hottest key.
type zipf struct {
	r                   *rng
	n                   uint64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(r *rng, n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{r: r, n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	zeta2 := zeta(2)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next() uint64 {
	u := z.r.float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// distinctSorted fills keys with len(keys) distinct Zipf draws in
// ascending order: the shape of a training step's deduplicated gather.
// seen is scratch space reused across calls.
func (z *zipf) distinctSorted(keys []uint64, seen map[uint64]struct{}) {
	clear(seen)
	for i := 0; i < len(keys); {
		k := z.next()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys[i] = k
		i++
	}
	slices.Sort(keys)
}

// maxVersion bounds versions so that float32 holds every one exactly.
const maxVersion = 1 << 24

// fillValue writes the embedding the benchmark stores for (seed, key,
// version): element 0 is the version, the rest are derived from all three.
// Every element is an exactly representable float32, so a read-back can be
// checked bit for bit.
func fillValue(dst []float32, seed, key uint64, version uint32) {
	dst[0] = float32(version)
	h := mix64(seed ^ mix64(key) ^ uint64(version)<<32)
	for j := 1; j < len(dst); j++ {
		h = mix64(h + uint64(j))
		dst[j] = float32(h>>40) / (1 << 24)
	}
}

// checkValue reports whether got is the value fillValue writes for key at
// the version got carries.
func checkValue(got []float32, seed, key uint64, scratch []float32) bool {
	v := got[0]
	if v < 0 || v >= maxVersion || v != float32(uint32(v)) {
		return false
	}
	fillValue(scratch, seed, key, uint32(v))
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(scratch[j]) {
			return false
		}
	}
	return true
}
