//go:build !amd64 && !arm64

package faster

import "unsafe"

// prefetch is a no-op where no prefetch instruction is wired up: the
// batch pipeline stays correct, only its cache misses stop overlapping.
func prefetch(p unsafe.Pointer) {}
