//go:build amd64 || arm64

package faster

import "unsafe"

// prefetch hints the CPU to pull the cache line holding p into L1. It is
// a hint, not a load: it never faults, changes no memory and makes no
// access the Go memory model or the race detector sees. Implemented in
// prefetch_$GOARCH.s.
//
//go:noescape
func prefetch(p unsafe.Pointer)
