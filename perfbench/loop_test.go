package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A server shut down mid-run shows up as failed operations in a run of
// full length, not as a panic or a shorter run.
func TestServerDeathCountsAsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a loopback server for two seconds")
	}
	spec := serveSpecs["serve-batch"]
	s, err := startServers(spec, []string{t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if err := s.preload(1); err != nil {
		t.Fatal(err)
	}
	cs := &clientStats{}
	const dur = 2 * time.Second
	go func() {
		time.Sleep(dur / 2)
		for _, n := range s.nodes {
			n.stop()
		}
		s.nodes = nil
	}()
	t0 := time.Now()
	seg := closedLoop(spec, s.m, 1, 0, dur, cs)
	if took := time.Since(t0); took < dur {
		t.Fatalf("the run ended after %v, before its %v", took, dur)
	}
	attempted, failed := cs.attempted.Load(), cs.failed.Load()
	if failed == 0 || failed >= attempted {
		t.Fatalf("attempted %d, failed %d: want some successes and some failures", attempted, failed)
	}
	if seg.read.summary().n == 0 {
		t.Fatal("no read succeeded before the shutdown")
	}
	if cs.mismatched.Load() != 0 {
		t.Fatalf("%d reads returned values the benchmark never wrote", cs.mismatched.Load())
	}
}

// lastJSON parses the last line of the command's output.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// The command prints, as its last line, every end-to-end metric untraced
// and every per-layer metric traced.
func TestCommandPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-point workload twice")
	}
	for _, c := range []struct {
		trace string
		set   []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "serve-point", "--seed", "3", "--seconds", "2", "--trace", c.trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", c.trace, code, stderr.String())
		}
		r := lastJSON(t, stdout.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d", c.trace, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(c.set) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(r.Metrics), len(c.set))
		}
		for _, m := range c.set {
			got, ok := r.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", c.trace, m.name, got, m.unit)
			}
			if c.trace == "0" && got.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
			}
		}
		if c.trace == "1" {
			if r.Metrics["hotcache.hit_ratio"].Value <= 0 {
				t.Error("serve-point: hot tier served no reads")
			}
			if r.Metrics["faster.disk_read_ratio"].Value != 0 {
				t.Error("serve-point: reads went to disk though the table fits in memory")
			}
		}
	}
}

// BENCHMARK.json lists exactly the metrics the command prints, and only
// workloads the command knows.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := serveSpecs[w.Name]; !ok && w.Name != "train-disk" {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
