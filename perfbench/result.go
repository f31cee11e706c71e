package main

import (
	"fmt"
	"reflect"

	mlkv "github.com/llm-db/mlkv-go"
)

// metric names a reported quantity with its unit and direction.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them in an untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"keys_per_s", "keys/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p90_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p90_us", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"train.emb_share", "ratio", "lower"},
	{"train.fwd_us_per_sample", "us", "lower"},
	{"train.bwd_us_per_sample", "us", "lower"},
	{"train.samples_per_s", "samples/s", "higher"},
	{"train.auc", "auc", "higher"},
	{"mlkv.get_busy_s", "s", "lower"},
	{"mlkv.getbatch_busy_s", "s", "lower"},
	{"mlkv.put_busy_s", "s", "lower"},
	{"mlkv.putbatch_busy_s", "s", "lower"},
	{"mlkv.lookahead_busy_s", "s", "lower"},
	{"mlkv.get_calls", "count", "higher"},
	{"mlkv.getbatch_calls", "count", "higher"},
	{"mlkv.put_calls", "count", "higher"},
	{"mlkv.putbatch_calls", "count", "higher"},
	{"mlkv.lookahead_calls", "count", "higher"},
	{"faster.disk_read_ratio", "ratio", "lower"},
	{"faster.prefetch_copies", "count", "higher"},
	{"faster.prefetch_drop_ratio", "ratio", "lower"},
	{"faster.staleness_waits", "count", "lower"},
	{"faster.rcu_ratio", "ratio", "lower"},
	{"faster.write_amp", "ratio", "lower"},
	{"faster.pages_per_group_commit", "pages", "higher"},
	{"faster.recover_keys_per_s", "keys/s", "higher"},
	{"faster.checkpoint_s", "s", "lower"},
	{"faster.space_amp", "ratio", "lower"},
	{"kv.get_p50_us", "us", "lower"},
	{"kv.put_p50_us", "us", "lower"},
	{"kv.getbatch_p50_us", "us", "lower"},
	{"kv.putbatch_p50_us", "us", "lower"},
	{"kv.busy_share", "ratio", "lower"},
	{"server.overhead_p50_us", "us", "lower"},
	{"wire.bytes_in_per_key", "bytes", "lower"},
	{"wire.bytes_out_per_key", "bytes", "lower"},
	{"wire.reads_per_op", "count", "lower"},
	{"wire.writes_per_op", "count", "lower"},
	{"hotcache.hit_ratio", "ratio", "higher"},
	{"hotcache.evictions_per_op", "count", "lower"},
	{"client.dial_retries", "count", "lower"},
	{"client.dial_backoffs", "count", "lower"},
	{"cluster.subbatches_per_op", "count", "lower"},
	{"cluster.node_key_skew", "ratio", "lower"},
	{"cluster.redirects", "count", "lower"},
	{"go.alloc_bytes_per_key", "bytes", "lower"},
	{"go.mallocs_per_key", "count", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"trace.client_self_share", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// result is one workload run.
type result struct {
	workload          string
	attempted, failed int64
	e2e, layer, info  map[string]float64
	notes             []string
}

func newResult(workload string, rc runConfig) *result {
	r := &result{
		workload: workload,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		info:     map[string]float64{},
	}
	r.info["seed"] = float64(rc.seed)
	r.info["seconds"] = float64(rc.seconds)
	return r
}

// note records a correctness problem for the report; it counts as one
// failed operation.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *result) correct() bool { return r.failed == 0 && len(r.notes) == 0 }

// setLatency reports the caller-visible read and write latencies with
// their sample counts.
func (r *result) setLatency(reads, writes summary) {
	r.e2e["read_p50_us"] = reads.p50
	r.e2e["read_p90_us"] = reads.p90
	r.e2e["write_p50_us"] = writes.p50
	r.e2e["write_p90_us"] = writes.p90
	r.info["read_p99_us"] = reads.p99
	r.info["write_p99_us"] = writes.p99
	r.info["read_samples"] = float64(reads.n)
	r.info["write_samples"] = float64(writes.n)
}

// clientLayers reports the calls the benchmark made into mlkv.
func (r *result) clientLayers(cs *clientStats) {
	for _, op := range []int{opGet, opGetBatch, opPut, opPutBatch, opLookahead} {
		r.layer["mlkv."+opNames[op]+"_busy_s"] = float64(cs.calls.busyNS[op].Load()) / 1e9
		r.layer["mlkv."+opNames[op]+"_calls"] = float64(cs.calls.calls[op].Load())
	}
}

// fasterLayers reports the engine's counters over the measured phase
// (d is a difference of Model.StatsCtx snapshots). ops is the calls the
// benchmark made in it, userBytes the embedding bytes it wrote, hinted
// the keys it passed to Lookahead.
func (r *result) fasterLayers(d mlkv.Stats, ops, userBytes, hinted float64) {
	f := func(v int64) float64 { return float64(v) }
	l := r.layer
	l["faster.disk_read_ratio"] = ratio(f(d.DiskReads), f(d.DiskReads+d.MemHits))
	l["faster.prefetch_copies"] = f(d.PrefetchCopies)
	l["faster.prefetch_drop_ratio"] = ratio(f(d.PrefetchDropped), hinted)
	l["faster.staleness_waits"] = f(d.StalenessWaits)
	l["faster.rcu_ratio"] = ratio(f(d.RCUAppends), f(d.RCUAppends+d.InPlaceUpdates))
	l["faster.write_amp"] = ratio(f(d.BytesFlushed), userBytes)
	l["faster.pages_per_group_commit"] = ratio(f(d.FlushedPages), f(d.GroupCommits))
	l["hotcache.hit_ratio"] = ratio(f(d.CacheHits), f(d.CacheHits+d.CacheMisses))
	l["hotcache.evictions_per_op"] = ratio(f(d.CacheEvictions), ops)
	l["client.dial_retries"] = f(d.DialRetries)
	l["client.dial_backoffs"] = f(d.DialBackoffs)
	l["cluster.redirects"] = f(d.ClusterRedirects)
}

// subStats and addStats combine the int64 counters of two snapshots
// field by field; the latency summaries are left zero.
func subStats(a, b mlkv.Stats) mlkv.Stats { return combineStats(a, b, -1) }
func addStats(a, b mlkv.Stats) mlkv.Stats { return combineStats(a, b, 1) }

func combineStats(a, b mlkv.Stats, sign int64) mlkv.Stats {
	var out mlkv.Stats
	va, vb, vo := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&out).Elem()
	for i := 0; i < vo.NumField(); i++ {
		if vo.Field(i).Kind() == reflect.Int64 {
			vo.Field(i).SetInt(va.Field(i).Int() + sign*vb.Field(i).Int())
		}
	}
	return out
}

// goLayers reports the Go runtime's allocation work per key read.
func (r *result) goLayers(md memDelta, keys float64) {
	r.layer["go.alloc_bytes_per_key"] = ratio(md.allocBytes, keys)
	r.layer["go.mallocs_per_key"] = ratio(md.mallocs, keys)
	r.layer["go.gc_cpu_fraction"] = md.gcCPU
}
