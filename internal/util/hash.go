package util

// Mix64 is the splitmix64 finalizer: a fast, high-quality 64-bit mixing
// function used for hashing integer keys into index buckets and for key
// scrambling in workload generators.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashKey hashes a record key for index placement. Kept separate from Mix64
// so the index's hash can evolve without perturbing workload generators.
func HashKey(key uint64) uint64 {
	return Mix64(key ^ 0x9e3779b97f4a7c15)
}

// ShardOf maps a record key to one of shards hash partitions. It mixes the
// key with a constant distinct from HashKey's so that shard placement and
// in-shard index placement stay uncorrelated; every layer that partitions a
// key space (core's table, kv's shard router) must use this one
// function so they agree on placement.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(Mix64(key^0xc2b2ae3d27d4eb4f) % uint64(shards))
}

// BatchFanoutMin is the batch size below which Fanout runs a cross-shard
// batch serially: a goroutine per shard costs more than the handful of
// routed operations it would overlap.
const BatchFanoutMin = 16

// NextPow2 returns the smallest power of two >= v (and at least 1).
func NextPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	v |= v >> 32
	return v + 1
}
