package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
)

// Repeats of the short phases whose median a run reports.
const (
	checkpointRepeats = 5
	recoverRepeats    = 5
)

// lat collects every duration of one operation class exactly, so
// percentiles carry no histogram error. Safe for concurrent use.
type lat struct {
	mu sync.Mutex
	ns []int64
}

func (l *lat) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	l.mu.Unlock()
}

// summary is the digest of one lat.
type summary struct {
	n             int
	p50, p90, p99 float64 // µs
}

func (l *lat) summary() summary { return mergedSummary([]*lat{l}) }

// mergedSummary digests the union of several lats.
func mergedSummary(ls []*lat) summary {
	var ns []int64
	for _, l := range ls {
		l.mu.Lock()
		ns = append(ns, l.ns...)
		l.mu.Unlock()
	}
	if len(ns) == 0 {
		return summary{}
	}
	slices.Sort(ns)
	return summary{
		n:   len(ns),
		p50: float64(rank(ns, 0.50)) / 1e3,
		p90: float64(rank(ns, 0.90)) / 1e3,
		p99: float64(rank(ns, 0.99)) / 1e3,
	}
}

// rank is the nearest-rank percentile of sorted values.
func rank(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of a small sample (set-up repeats); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssMB reads the process's resident set (VmRSS) in MiB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// rssSampler records the largest resident set seen between start and
// stop, sampled every rssEvery. The peak of the measured phase, rather
// than the process's VmHWM, leaves out set-up repeats already torn down.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

const rssEvery = 20 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				s.done <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.done
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// memDelta is the Go runtime's allocation work over an interval.
type memDelta struct {
	allocBytes, mallocs float64
	gcCPU               float64
}

func (a memDelta) add(b memDelta) memDelta {
	return memDelta{allocBytes: a.allocBytes + b.allocBytes, mallocs: a.mallocs + b.mallocs, gcCPU: b.gcCPU}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		mallocs:    float64(after.Mallocs - before.Mallocs),
		gcCPU:      after.GCCPUFraction,
	}
}

// writeLines writes lines to path, creating its directory.
func writeLines(path string, fill func(w *bufio.Writer)) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeCheckpoints checkpoints m checkpointRepeats times back to back and
// returns the median time. Each checkpoint writes every page not yet
// flushed and syncs the log, so the repeats do the same work.
func timeCheckpoints(m *mlkv.Model) (float64, error) {
	var ts []float64
	for i := 0; i < checkpointRepeats; i++ {
		t0 := time.Now()
		if err := m.Checkpoint(); err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// countDiffs counts the values of got that differ bit for bit from want.
func countDiffs(want, got []float32) int {
	n := 0
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			n++
		}
	}
	return n
}

// releaseMemory returns freed memory to the OS, so a torn-down instance
// does not count in the next one's resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
