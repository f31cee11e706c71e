// Command perfbench is MLKV-Go's benchmark: one command that runs the
// named workloads against the system through its public entry points,
// checks the outputs, and prints every end-to-end metric (untraced) or
// every per-layer metric (traced) by name with its unit. See README.md.
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads in the order --workload all runs them.
var workloads = []string{"train-disk", "serve-batch", "serve-point", "cluster-batch"}

// runConfig is what one workload run gets.
type runConfig struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	work    string  // scratch directory, removed after the run
	tracer  *tracer // nil: untraced
}

func runOnce(name string, rc runConfig) (*result, error) {
	if name == "train-disk" {
		return runTrainDisk(rc)
	}
	spec, ok := serveSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloads, ", "))
	}
	return runServe(spec, rc)
}

// runWorkload runs one workload. Traced, the per-layer metrics come with
// a trace summary, and the spans are written under out. train-disk cannot
// alternate traced and untraced instances within a run (it trains one
// model), so traced it runs twice and compares the two runs.
func runWorkload(name string, rc runConfig, traced bool, out string) (*result, error) {
	if !traced {
		return runOnce(name, rc)
	}
	var plain *result
	if name == "train-disk" {
		var err error
		if plain, err = runOnce(name, rc); err != nil {
			return nil, err
		}
	}
	rc.tracer = newTracer()
	res, err := runOnce(name, rc)
	if err != nil {
		return nil, err
	}
	if plain != nil {
		res.layer["trace.overhead_ratio"] = ratio(plain.e2e["keys_per_s"], res.e2e["keys_per_s"])
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.notes = append(plain.notes, res.notes...)
	}
	ts := rc.tracer.attribute()
	res.layer["trace.client_self_share"] = ratio(ts.clientSelf, ts.clientBusy)
	res.layer["trace.spans"] = float64(ts.spans)
	res.info["trace_spans_dropped"] = float64(ts.dropped)
	res.info["trace_server_spans"] = float64(ts.server)
	res.info["trace_server_spans_attributed"] = float64(ts.attributed)
	for i, s := range ts.selfByName {
		if s > 0 {
			res.info["trace_self_s."+spanNames[i]] = s
		}
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", name, rc.seed))
	if err := writeLines(path, rc.tracer.write); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines of one result and returns its
// metrics: the end-to-end set untraced, the per-layer set traced.
func report(w io.Writer, res *result, traced bool) map[string]jsonMetric {
	set, vals := endToEnd, res.e2e
	if traced {
		set, vals = perLayer, res.layer
	}
	out := make(map[string]jsonMetric, len(set))
	for _, m := range set {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-14s %-30s %16.6g %s\n", res.workload, m.name, v, m.unit)
	}
	if !traced {
		fmt.Fprintf(w, "%-14s %-30s %16.6g %s (%d failed of %d attempted)\n", res.workload,
			"op_failure_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	}
	keys := make([]string, 0, len(res.info))
	for k := range res.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-14s info %-25s %16.6g\n", res.workload, k, res.info[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "%-14s MISMATCH %s\n", res.workload, n)
	}
	return out
}

// provenance identifies the code, toolchain and machine a result came from.
func provenance(workload string, rc runConfig, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return map[string]any{
		"workload":    workload,
		"seed":        rc.seed,
		"seconds":     rc.seconds,
		"traced":      traced,
		"commit":      commit,
		"source_hash": sourceHash("."),
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"numcpu":      runtime.NumCPU(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"timestamp":   time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceHash hashes the Go sources and module files under root, so a
// result names the code it measured even where there is no git history.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "all", "workload: "+strings.Join(workloads, ", ")+", or all")
	seed := fl.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "measured run length per workload")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run (spans are written to -out)")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans, results and scratch data")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	traced := *trace == 1
	work := filepath.Join(*out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	rc := runConfig{ctx: context.Background(), seed: *seed, seconds: *seconds, work: work}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	final := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		prov := provenance(name, rc, traced)
		res, err := runWorkload(name, rc, traced, *out)
		if err != nil {
			w.Flush()
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		pj, _ := json.Marshal(prov)
		fmt.Fprintf(w, "provenance %s\n", pj)
		metrics := report(w, res, traced)
		line := jsonResult{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: metrics}
		if err := saveResult(*out, name, rc.seed, traced, prov, res, line); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
		if len(names) == 1 {
			final = line
			break
		}
		// --workload all: one line per workload, then the combined line
		// with each metric under "<workload>/<metric>".
		lj, _ := json.Marshal(line)
		fmt.Fprintf(w, "%s\n", lj)
		final.Correct = final.Correct && line.Correct
		final.Attempted += line.Attempted
		final.Failed += line.Failed
		for k, v := range metrics {
			final.Metrics[name+"/"+k] = v
		}
	}
	fj, _ := json.Marshal(final)
	fmt.Fprintf(w, "%s\n", fj)
	if !final.Correct {
		w.Flush()
		fmt.Fprintln(stderr, "perfbench: outputs did not check out (see MISMATCH lines)")
		return 1
	}
	return 0
}

// saveResult writes the run's provenance, metrics and sample counts
// under out.
func saveResult(out, name string, seed uint64, traced bool, prov map[string]any, res *result, line jsonResult) error {
	doc := map[string]any{"provenance": prov, "result": line, "info": res.info, "notes": res.notes}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-%s.json", name, seed, mode))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
