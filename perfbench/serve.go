package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
)

// Serving sizing: the table fits the servers' buffers, so the engine only
// does memory hits and the wire, the server and kv dominate.
const (
	serveKeys     = 200_000
	serveDim      = 16
	serveShards   = 4
	serveMemory   = 64 << 20 // split evenly across a cluster's nodes
	serveBatch    = 256
	serveTheta    = 0.99
	serveReadFrac = 0.9
	serveCallers  = 2
	preloadChunk  = 4096
	serveSamples  = 2048 // keys read back after the checkpoint and recoveries
	serveModel    = "emb"
)

// A serving run is a series of segments, each on a freshly started set of
// servers: set it up, serve segmentSeconds, tear it down. The run reports
// the median over its segments, because on a small shared machine the
// speed of a loopback client/server pair varies between instances as much
// as within one. The last instance is also checkpointed and restarted.
const segmentSeconds = 2

// serveSpec is one serving workload.
type serveSpec struct {
	name  string
	nodes int  // 1: one server; 2: a two-primary cluster
	conns int  // pooled connections per server
	cache int  // server-side hot tier entries (0: off)
	batch bool // GetBatch+PutBatch steps, else point Get/Put
}

var serveSpecs = map[string]serveSpec{
	"serve-batch":   {name: "serve-batch", nodes: 1, conns: 2, batch: true},
	"serve-point":   {name: "serve-point", nodes: 1, conns: 2, cache: serveKeys / 10},
	"cluster-batch": {name: "cluster-batch", nodes: 2, conns: 1, batch: true},
}

// probes are a traced run's server-side instruments: a timing store per
// node and a counting listener. They are shared by every instance of the
// run, so their counts cover all its segments, and record only while on
// is set — during the measured loops, not set-up or checks.
type probes struct {
	on   atomic.Bool
	tr   *tracer
	kv   []*kvStats // one per node
	wire wireStats
}

func newProbes(nodes int, tr *tracer) *probes {
	p := &probes{tr: tr}
	p.wire.on = &p.on
	for i := 0; i < nodes; i++ {
		p.kv = append(p.kv, &kvStats{on: &p.on})
	}
	return p
}

// record switches recording on or off; a nil *probes is untraced.
func (p *probes) record(on bool) {
	if p == nil {
		return
	}
	p.on.Store(on)
	p.tr.recording(on)
}

// node is one in-process loopback mlkv-server.
type node struct {
	id, dir string
	srv     *server.Server
	reg     *server.Registry
	st      *cluster.State
	done    chan error
}

func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	<-n.done
	if n.st != nil {
		n.st.Close()
	}
	n.reg.Close()
}

// servers is a running set of nodes and the client connected to them.
type servers struct {
	nodes []*node
	db    *mlkv.DB
	m     *mlkv.Model
}

// startServers starts spec.nodes servers over dirs (one per node), as one
// cluster when there are several, connects a client and opens the model.
// With probes, every store and listener is wrapped.
func startServers(spec serveSpec, dirs []string, pr *probes) (*servers, error) {
	s := &servers{}
	lns := make([]net.Listener, spec.nodes)
	specs := make([]cluster.Node, spec.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		specs[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), Addr: ln.Addr().String(), Role: cluster.RolePrimary}
	}
	var mp *cluster.Map
	if spec.nodes > 1 {
		var err error
		if mp, err = cluster.BuildMap(specs); err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
	}
	addrs := make([]string, spec.nodes)
	for i, ln := range lns {
		nd := &node{id: specs[i].ID, dir: dirs[i], done: make(chan error, 1)}
		var kst *kvStats
		if pr != nil {
			kst = pr.kv[i]
		}
		nd.reg = server.NewRegistry(server.RegistryConfig{
			DefaultShards: serveShards,
			DefaultBound:  mlkv.ASP,
			CacheEntries:  spec.cache,
			Name:          nd.id,
			Opener: func(id string, dim, shards int, bound int64, engine string) (kv.Store, error) {
				st, err := kv.OpenEngine(engine, kv.ShardedConfig{
					Dir: filepath.Join(nd.dir, id), Shards: shards, ValueSize: dim * 4,
					MemoryBytes: serveMemory / int64(spec.nodes), ExpectedKeys: serveKeys,
					StalenessBound: bound,
				}, "mlkv")
				if err != nil || kst == nil {
					return st, err
				}
				return newTimedStore(st, kst, pr.tr), nil
			},
		})
		cfg := server.Config{Registry: nd.reg}
		if mp != nil {
			st, err := cluster.NewState(nd.id, mp)
			if err != nil {
				nd.reg.Close()
				for _, l := range lns[i:] {
					l.Close()
				}
				s.stop()
				return nil, err
			}
			nd.st = st
			cfg.Cluster = st
		}
		var l net.Listener = ln
		if pr != nil {
			l = &countingListener{Listener: ln, st: &pr.wire, tr: pr.tr}
		}
		nd.srv = server.New(cfg)
		go func() { nd.done <- nd.srv.Serve(l) }()
		s.nodes = append(s.nodes, nd)
		addrs[i] = ln.Addr().String()
	}
	db, err := mlkv.Connect(mlkv.Scheme+strings.Join(addrs, ","),
		mlkv.WithConns(spec.conns), mlkv.WithDialTimeout(time.Second))
	if err != nil {
		s.stop()
		return nil, err
	}
	s.db = db
	if s.m, err = db.Open(serveModel, serveDim); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the client and every server.
func (s *servers) stop() {
	if s.m != nil {
		s.m.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	for _, n := range s.nodes {
		n.stop()
	}
}

// preload writes every key at version 0.
func (s *servers) preload(seed uint64) error {
	sess, err := s.m.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	keys := make([]uint64, 0, preloadChunk)
	vals := make([]float32, preloadChunk*serveDim)
	for k := uint64(0); k < serveKeys; k++ {
		fillValue(vals[len(keys)*serveDim:(len(keys)+1)*serveDim], seed, k, 0)
		keys = append(keys, k)
		if len(keys) == preloadChunk || k == serveKeys-1 {
			if err := sess.PutBatch(keys, vals[:len(keys)*serveDim]); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			keys = keys[:0]
		}
	}
	return nil
}

// readSample reads keys in batches and returns their values.
func readSample(m *mlkv.Model, keys []uint64) ([]float32, error) {
	sess, err := m.NewSession()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	out := make([]float32, len(keys)*serveDim)
	for i := 0; i < len(keys); i += serveBatch {
		j := min(i+serveBatch, len(keys))
		if err := sess.GetBatch(keys[i:j], out[i*serveDim:j*serveDim]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// segment is what the callers of one measured loop saw.
type segment struct {
	read, write lat
	readKeys    atomic.Int64
}

// runServe runs one serving workload: a series of instances, each set up
// (servers, client, preload) and then driven by a closed loop of
// serveCallers callers; then the last instance's sample is read back,
// checkpointed, and recovered by restarting every server.
//
// A traced run alternates untraced and traced instances (the odd ones, or
// the only one): the per-layer metrics come from the traced instances and
// trace.overhead_ratio compares the two kinds' throughput, at the cost of
// one run.
func runServe(spec serveSpec, rc runConfig) (*result, error) {
	res := newResult(spec.name, rc)
	var pr *probes
	if rc.tracer != nil {
		pr = newProbes(spec.nodes, rc.tracer)
	}
	segments := max(1, int(math.Round(rc.seconds/segmentSeconds)))
	segDur := time.Duration(rc.seconds / float64(segments) * float64(time.Second))
	root := filepath.Join(rc.work, spec.name)
	defer os.RemoveAll(root)
	var s *servers
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	// cs sees the segments the per-layer metrics describe (all of them
	// untraced, the traced ones traced); plain sees the others.
	cs, plain := &clientStats{tr: rc.tracer}, &clientStats{}
	var setups, kps, tracedKPS, tracedR50, r50, r90, r99, w50, w90, w99, rss []float64
	var nReads, nWrites int
	var engine mlkv.Stats
	var md memDelta
	var dirs []string
	for i := 0; i < segments; i++ {
		if s != nil {
			s.stop()
			s = nil
			os.RemoveAll(filepath.Dir(dirs[0]))
			releaseMemory()
		}
		dirs = dirs[:0]
		for n := 0; n < spec.nodes; n++ {
			dirs = append(dirs, filepath.Join(root, fmt.Sprintf("instance-%d", i), fmt.Sprintf("n%d", n)))
		}
		segProbes, segStats := pr, cs
		if pr != nil && i%2 == 0 && segments > 1 {
			segProbes, segStats = nil, plain
		}
		t0 := time.Now()
		started, err := startServers(spec, dirs, segProbes)
		if err != nil {
			return nil, err
		}
		s = started
		if err := s.preload(rc.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		before, err := s.m.StatsCtx(rc.ctx)
		if err != nil {
			return nil, err
		}
		releaseMemory()
		sampler := startRSS()
		mem0 := readMem()
		segProbes.record(true)
		seg := closedLoop(spec, s.m, rc.seed, uint64(i), segDur, segStats)
		segProbes.record(false)
		segMem := memSince(mem0)
		rss = append(rss, sampler.stop())
		after, err := s.m.StatsCtx(rc.ctx)
		if err != nil {
			return nil, err
		}
		r, w := seg.read.summary(), seg.write.summary()
		nReads += r.n
		nWrites += w.n
		r50, r90, r99 = append(r50, r.p50), append(r90, r.p90), append(r99, r.p99)
		w50, w90, w99 = append(w50, w.p50), append(w90, w.p90), append(w99, w.p99)
		segKPS := float64(seg.readKeys.Load()) / segDur.Seconds()
		if segStats == cs {
			engine = addStats(engine, subStats(after, before))
			md = md.add(segMem)
		}
		if segProbes != nil {
			tracedKPS = append(tracedKPS, segKPS)
			tracedR50 = append(tracedR50, r.p50)
		} else {
			kps = append(kps, segKPS)
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["keys_per_s"] = median(append(slices.Clone(kps), tracedKPS...))
	res.e2e["peak_rss_mb"] = median(rss)
	res.setLatency(summary{n: nReads, p50: median(r50), p90: median(r90), p99: median(r99)},
		summary{n: nWrites, p50: median(w50), p90: median(w90), p99: median(w99)})
	res.info["segments"] = float64(segments)
	if pr != nil {
		res.layer["trace.overhead_ratio"] = ratio(median(kps), median(tracedKPS))
	}

	// Read a sample back, checkpoint, restart every server over the same
	// directories, and require the sample byte for byte.
	sample := make([]uint64, serveSamples)
	for i := range sample {
		sample[i] = uint64(i) * (serveKeys / serveSamples)
	}
	want, err := readSample(s.m, sample)
	if err != nil {
		return nil, err
	}
	scratch := make([]float32, serveDim)
	for i, k := range sample {
		if !checkValue(want[i*serveDim:(i+1)*serveDim], rc.seed, k, scratch) {
			res.note("sample key %d holds a value the benchmark never wrote", k)
			break
		}
	}
	cp, err := timeCheckpoints(s.m)
	if err != nil {
		return nil, err
	}
	res.info["checkpoint_s"] = cp
	res.layer["faster.checkpoint_s"] = cp
	var diskBytes int64
	for _, d := range dirs {
		diskBytes += dirBytes(d)
	}
	var recovers []float64
	for i := 0; i < recoverRepeats; i++ {
		s.stop()
		s = nil
		t0 := time.Now()
		restarted, err := startServers(spec, dirs, nil)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		s = restarted
		got, err := readSample(s.m, sample[:serveBatch])
		if err != nil {
			return nil, fmt.Errorf("first read after restart: %w", err)
		}
		recovers = append(recovers, time.Since(t0).Seconds())
		rest, err := readSample(s.m, sample[serveBatch:])
		if err != nil {
			return nil, err
		}
		if n := countDiffs(want, append(got, rest...)); n > 0 {
			res.note("recovery: %d of %d sampled embedding values differ after restart %d", n, len(want), i+1)
		}
	}
	res.info["recover_s"] = median(recovers)
	res.layer["faster.space_amp"] = float64(diskBytes) / (serveKeys * serveDim * 4)
	res.info["table_bytes"] = serveKeys * (serveDim*4 + 24)
	res.info["buffer_bytes"] = serveMemory
	res.info["live_keys"] = serveKeys

	readKeys := float64(cs.calls.keys[opGet].Load() + cs.calls.keys[opGetBatch].Load())
	writeKeys := float64(cs.calls.keys[opPut].Load() + cs.calls.keys[opPutBatch].Load())
	// Attempted: every call, the sample check and each recovery check.
	res.attempted += cs.attempted.Load() + plain.attempted.Load() + 1 + recoverRepeats
	res.failed += cs.failed.Load() + plain.failed.Load()
	res.info["mismatched_reads"] = float64(cs.mismatched.Load() + plain.mismatched.Load())
	res.clientLayers(cs)
	res.fasterLayers(engine, float64(cs.attempted.Load()), writeKeys*serveDim*4, 0)
	res.layer["faster.recover_keys_per_s"] = serveKeys / res.info["recover_s"]
	res.goLayers(md, readKeys)
	if pr != nil {
		pr.layers(res, cs, median(tracedR50), spec.batch)
	}
	return res, nil
}

// layers reports what the timing stores and the counting listener saw
// during the measured loops.
// readP50 is the client's median read latency on the traced instances.
func (p *probes) layers(res *result, cs *clientStats, readP50 float64, batch bool) {
	keys := float64(cs.calls.keys[opGet].Load() + cs.calls.keys[opGetBatch].Load() +
		cs.calls.keys[opPut].Load() + cs.calls.keys[opPutBatch].Load())
	var get, getBatch, put, putBatch []*lat
	var kvBusy, kvGetBatches float64
	var nodeKeys []float64
	for _, k := range p.kv {
		get = append(get, &k.get)
		getBatch = append(getBatch, &k.getBatch)
		put = append(put, &k.put)
		putBatch = append(putBatch, &k.putBatch)
		kvBusy += k.calls.busy().Seconds()
		kvGetBatches += float64(k.calls.calls[opGetBatch].Load())
		var n int64
		for op := range k.calls.keys {
			n += k.calls.keys[op].Load()
		}
		nodeKeys = append(nodeKeys, float64(n))
	}
	l := res.layer
	kvRead := mergedSummary(get)
	l["kv.get_p50_us"] = kvRead.p50
	l["kv.put_p50_us"] = mergedSummary(put).p50
	l["kv.getbatch_p50_us"] = mergedSummary(getBatch).p50
	l["kv.putbatch_p50_us"] = mergedSummary(putBatch).p50
	if batch {
		kvRead = mergedSummary(getBatch)
	}
	l["kv.busy_share"] = ratio(kvBusy, cs.calls.busy().Seconds())
	l["server.overhead_p50_us"] = readP50 - kvRead.p50
	ops := float64(cs.attempted.Load())
	l["wire.bytes_in_per_key"] = ratio(float64(p.wire.bytesIn.Load()), keys)
	l["wire.bytes_out_per_key"] = ratio(float64(p.wire.bytesOut.Load()), keys)
	l["wire.reads_per_op"] = ratio(float64(p.wire.reads.Load()), ops)
	l["wire.writes_per_op"] = ratio(float64(p.wire.writes.Load()), ops)
	l["cluster.subbatches_per_op"] = ratio(kvGetBatches, float64(cs.calls.calls[opGetBatch].Load()))
	var maxKeys, sumKeys float64
	for _, k := range nodeKeys {
		maxKeys = math.Max(maxKeys, k)
		sumKeys += k
	}
	l["cluster.node_key_skew"] = ratio(maxKeys, sumKeys/float64(len(nodeKeys)))
}

// closedLoop runs serveCallers callers, each on its own session, each
// sending its next request only after the previous one returned, until
// dur has passed. A failed call is counted and the caller goes on, so a
// dying server shows up as failures, not as a shorter run. stream picks
// the callers' input streams.
func closedLoop(spec serveSpec, m *mlkv.Model, seed, stream uint64, dur time.Duration, cs *clientStats) *segment {
	var wg sync.WaitGroup
	seg := &segment{}
	deadline := time.Now().Add(dur)
	for c := 1; c <= serveCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			caller(spec, m, seed, stream, int32(c), deadline, cs, seg)
		}()
	}
	wg.Wait()
	return seg
}

func caller(spec serveSpec, m *mlkv.Model, seed, stream uint64, id int32, deadline time.Time, cs *clientStats, seg *segment) {
	sess, err := m.NewSession()
	for err != nil && time.Now().Before(deadline) {
		cs.attempted.Add(1)
		cs.failed.Add(1)
		time.Sleep(time.Millisecond)
		sess, err = m.NewSession()
	}
	if err != nil {
		return
	}
	defer sess.Close()
	r := newRNG(seed, stream<<8|uint64(id))
	z := newZipf(r, serveKeys, serveTheta)
	n := 1
	if spec.batch {
		n = serveBatch
	}
	keys := make([]uint64, n)
	vals := make([]float32, n*serveDim)
	scratch := make([]float32, serveDim)
	seen := make(map[uint64]struct{}, n)
	step := int64(0)
	// Versions are odd for caller 1 and even for caller 2, so no two
	// writes of a key carry the same version with different values.
	version := func() uint32 { return uint32(int64(id) + 2*step) }
	call := func(op int, name uint8, read bool, f func() error) bool {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		cs.attempted.Add(1)
		if err != nil {
			cs.failed.Add(1)
			return false
		}
		if read {
			seg.read.add(d)
			seg.readKeys.Add(int64(len(keys)))
		} else {
			seg.write.add(d)
		}
		cs.calls.add(op, len(keys), d)
		cs.tr.record(name, id, int64(id)<<40|step, t0)
		return true
	}
	verify := func() {
		for i, k := range keys {
			if !checkValue(vals[i*serveDim:(i+1)*serveDim], seed, k, scratch) {
				cs.mismatched.Add(1)
				cs.failed.Add(1)
				return
			}
		}
	}
	for time.Now().Before(deadline) {
		step++
		if spec.batch {
			z.distinctSorted(keys, seen)
			if !call(opGetBatch, spanGetBatch, true, func() error { return sess.GetBatch(keys, vals) }) {
				continue
			}
			verify()
			v := version()
			for i, k := range keys {
				fillValue(vals[i*serveDim:(i+1)*serveDim], seed, k, v)
			}
			call(opPutBatch, spanPutBatch, false, func() error { return sess.PutBatch(keys, vals) })
			continue
		}
		keys[0] = z.next()
		if r.float64() < serveReadFrac {
			if call(opGet, spanGet, true, func() error { return sess.Get(keys[0], vals) }) {
				verify()
			}
			continue
		}
		fillValue(vals, seed, keys[0], version())
		call(opPut, spanPut, false, func() error { return sess.Put(keys[0], vals) })
	}
}
