// Package core holds the vocabulary of MLKV's embedding-table abstraction
// (the paper's §III) shared by every layer: the staleness-bound constants
// and the first-touch initializer. The tables themselves are kv stores —
// the hybrid log by default — reached through the public API's drivers.
package core

import (
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Staleness bounds with paper-aligned names.
const (
	// BoundBSP trains bulk-synchronous: a read waits for every outstanding
	// update on the record.
	BoundBSP = int64(0)
	// BoundASP trains fully asynchronously (INT64_MAX, per §III-C1).
	BoundASP = faster.BoundAsync
	// BoundDisabled turns the vector clock off (plain FASTER semantics).
	BoundDisabled = int64(-1)
)

// Initializer produces the initial embedding for a key seen for the first
// time. dst has the table's dimension; it arrives zeroed.
type Initializer func(key uint64, dst []float32)

// UniformInit returns an Initializer drawing i.i.d. values from
// [-scale, scale), seeded per key so initialization is deterministic.
func UniformInit(scale float32, seed uint64) Initializer {
	return func(key uint64, dst []float32) {
		r := util.NewRNG(util.Mix64(key) ^ seed)
		for i := range dst {
			dst[i] = (r.Float32()*2 - 1) * scale
		}
	}
}
