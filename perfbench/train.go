package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
)

// train-disk sizing. The key space (2M keys × 64 B of embedding) is ~15×
// the memory buffer once training has touched most of it, so reads go to
// disk, look-ahead has work to hide and the flusher runs.
const (
	trainFields       = 8
	trainFieldCard    = 250_000
	trainDim          = 16
	trainBuffer       = 8 << 20
	trainBound        = 4
	trainWorkers      = 2
	trainLookahead    = 16
	samplesPerSec     = 30_000 // fixes the sample count from --seconds
	trainAUCFloor     = 0.6
	recoverySamples   = 2048
	trainSetupRepeats = 5
)

func trainOpts() []mlkv.Option {
	return []mlkv.Option{
		mlkv.WithStalenessBound(trainBound),
		mlkv.WithMemory(trainBuffer),
		mlkv.WithExpectedKeys(trainFields * trainFieldCard),
	}
}

// openTrainModel is train-disk's set-up: connect to a local directory and
// open the embedding model.
func openTrainModel(dir string) (*mlkv.DB, *mlkv.Model, error) {
	db, err := mlkv.Connect(dir)
	if err != nil {
		return nil, nil, err
	}
	m, err := db.Open("ctr", trainDim, trainOpts()...)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, m, nil
}

// runTrainDisk trains DLRM on a local disk-resident model for a sample
// count fixed by the run length, then checkpoints, closes, reopens and
// checks a sample of embeddings byte for byte.
func runTrainDisk(rc runConfig) (*result, error) {
	res := newResult("train-disk", rc)
	samples := int64(rc.seconds * samplesPerSec)

	// Set-up, repeated on fresh directories; the last one is kept.
	var setups []float64
	var db *mlkv.DB
	var m *mlkv.Model
	var dir string
	for i := 0; i < trainSetupRepeats; i++ {
		dir = filepath.Join(rc.work, fmt.Sprintf("train-%d", i))
		t0 := time.Now()
		var err error
		db, m, err = openTrainModel(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < trainSetupRepeats-1 {
			m.Close()
			db.Close()
			os.RemoveAll(dir)
			releaseMemory()
		}
	}
	res.e2e["setup_s"] = median(setups)
	defer os.RemoveAll(dir)
	defer func() {
		if db != nil {
			db.Close()
		}
	}()

	cs := &clientStats{tr: rc.tracer}
	seen := newKeySet(trainFields * trainFieldCard)
	seg := &segment{}
	backend := &timedBackend{Backend: train.NewModelBackend(m, true), cs: cs, lat: seg, seen: seen}
	gen := data.NewCTRGen(data.CTRConfig{
		Fields: trainFields, DenseDim: 4, FieldCard: trainFieldCard, Seed: rc.seed,
	})
	model := models.NewDLRM(models.FFNN, trainFields, trainDim, 4, []int{32}, rc.seed^0xd1)
	releaseMemory()
	rss := startRSS()
	mem0 := readMem()
	rc.tracer.recording(true)
	tr, err := train.TrainCTR(train.CTROptions{
		Gen: gen, Model: model, Backend: backend,
		Workers: trainWorkers, Mode: train.ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05, MaxSamples: samples,
		LookaheadDepth: trainLookahead,
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	rc.tracer.recording(false)
	md := memSince(mem0)
	res.e2e["peak_rss_mb"] = rss.stop()
	st, err := m.StatsCtx(rc.ctx)
	if err != nil {
		return nil, err
	}

	// Peek a sample before the checkpoint; recovery must return it.
	sample, live := seen.sample(recoverySamples)
	want, err := peekAll(m, sample)
	if err != nil {
		return nil, err
	}
	cp, err := timeCheckpoints(m)
	if err != nil {
		return nil, err
	}
	res.info["checkpoint_s"] = cp
	res.layer["faster.checkpoint_s"] = cp
	diskBytes := dirBytes(dir)
	var recovers []float64
	for i := 0; i < recoverRepeats; i++ {
		if err := m.Close(); err != nil {
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if db, m, err = openTrainModel(dir); err != nil {
			db = nil
			return nil, fmt.Errorf("reopen: %w", err)
		}
		got, err := peekAll(m, sample[:1])
		if err != nil {
			return nil, fmt.Errorf("first read after reopen: %w", err)
		}
		recovers = append(recovers, time.Since(t0).Seconds())
		rest, err := peekAll(m, sample[1:])
		if err != nil {
			return nil, err
		}
		if n := countDiffs(want, append(got, rest...)); n > 0 {
			res.note("recovery: %d of %d sampled embedding values differ after reopen %d", n, len(want), i+1)
		}
	}
	m.Close()
	recoverS := median(recovers)

	reads := seg.read.summary()
	writes := seg.write.summary()
	readKeys := float64(cs.calls.keys[opGetBatch].Load() + cs.calls.keys[opGet].Load())
	putKeys := float64(cs.calls.keys[opPutBatch].Load() + cs.calls.keys[opPut].Load())
	// Attempted: every step's gather and scatter, the recovery check and
	// the quality check.
	res.attempted = cs.calls.calls[opGetBatch].Load() + cs.calls.calls[opPutBatch].Load() + recoverRepeats + 1
	if tr.FinalMetric < trainAUCFloor {
		res.note("training: AUC %.4f is below the floor %.2f", tr.FinalMetric, trainAUCFloor)
	}
	res.setLatency(reads, writes)
	res.e2e["keys_per_s"] = readKeys / tr.Elapsed.Seconds()
	res.info["recover_s"] = recoverS
	res.layer["faster.space_amp"] = float64(diskBytes) / (float64(live) * trainDim * 4)
	res.info["train_samples"] = float64(tr.Samples)
	res.info["train_samples_per_s"] = tr.Throughput
	res.info["train_auc"] = tr.FinalMetric
	res.info["live_keys"] = float64(live)
	res.info["table_bytes"] = float64(diskBytes)
	res.info["buffer_bytes"] = trainBuffer

	tot := tr.Stage.Total().Seconds()
	l := res.layer
	l["train.emb_share"] = ratio(tr.Stage.Emb.Seconds(), tot)
	l["train.fwd_us_per_sample"] = ratio(tr.Stage.Forward.Seconds()*1e6, float64(tr.Samples))
	l["train.bwd_us_per_sample"] = ratio(tr.Stage.Backward.Seconds()*1e6, float64(tr.Samples))
	l["train.samples_per_s"] = tr.Throughput
	l["train.auc"] = tr.FinalMetric
	res.clientLayers(cs)
	res.fasterLayers(st, float64(cs.calls.calls[opGetBatch].Load()+cs.calls.calls[opPutBatch].Load()),
		putKeys*trainDim*4, float64(cs.hinted.Load()))
	l["faster.recover_keys_per_s"] = float64(live) / recoverS
	res.goLayers(md, readKeys)
	return res, nil
}

// peekAll reads keys without consistency effects into one flat slice.
func peekAll(m *mlkv.Model, keys []uint64) ([]float32, error) {
	sess, err := m.NewSession()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	out := make([]float32, len(keys)*trainDim)
	for i, k := range keys {
		found, err := sess.Peek(k, out[i*trainDim:(i+1)*trainDim])
		if err != nil {
			return nil, fmt.Errorf("peek %d: %w", k, err)
		}
		if !found {
			return nil, fmt.Errorf("peek %d: trained key missing", k)
		}
	}
	return out, nil
}
