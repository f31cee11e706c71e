package kv

import (
	"github.com/llm-db/mlkv-go/internal/bptree"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/lsm"
)

// The constructors below all build the one shard router (shardStore); they
// differ only in the engine family under it, which decides the optional
// Store extensions on top of the shared surface.

// WrapFaster adapts a FASTER store to the Store interface (used by the
// YCSB harness, which works on raw bytes).
func WrapFaster(s *faster.Store, name string) Store {
	return WrapFasterShards([]*faster.Store{s}, name)
}

// WrapFasterShards adapts a hash-partitioned set of FASTER stores to the
// Store interface: every operation routes to the shard util.ShardOf
// assigns its key. The stores must share one ValueSize.
func WrapFasterShards(stores []*faster.Store, name string) Store {
	shards := make([]shardEngine, len(stores))
	for i, st := range stores {
		shards[i] = fasterEngine{st}
	}
	return fasterStore{
		shardStore: &shardStore{shards: shards, name: name, valueSize: stores[0].ValueSize()},
		stores:     stores,
	}
}

// WrapLSM adapts an LSM store to the Store interface, with the full
// optional surface lifted onto it — see liftLSM in engines.go.
func WrapLSM(s *lsm.Store) Store { return wrapLifted([]*liftedStore{liftLSM(s)}, s.Name()) }

// WrapBPTree adapts a B+tree store to the Store interface, with the full
// optional surface lifted onto it — see liftBPTree in engines.go.
func WrapBPTree(s *bptree.Store) Store { return wrapLifted([]*liftedStore{liftBPTree(s)}, s.Name()) }

// fasterEngine is one hybrid-log shard under the router; its sessions are
// *faster.Session as they are.
type fasterEngine struct{ *faster.Store }

func (e fasterEngine) session() (engineSession, error) {
	s, err := e.NewSession()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (e fasterEngine) blocking() bool { return faster.BlockingBound(e.StalenessBound()) }

// fasterStore is the router over hybrid-log shards. Beyond the shared
// surface it is Bounded: the staleness bound is one setting across all
// shards.
type fasterStore struct {
	*shardStore
	stores []*faster.Store
}

// NewSession returns a router session that is also an RMWSession: every
// shard is a hybrid log with a native atomic RMW.
func (w fasterStore) NewSession() (Session, error) {
	s, err := w.shardStore.NewSession()
	if err != nil {
		return nil, err
	}
	return fasterSession{s.(*shardSession)}, nil
}

// fasterSession is the router session over hybrid-log shards.
type fasterSession struct{ *shardSession }

// RMW implements RMWSession on the key's shard.
func (se fasterSession) RMW(key uint64, fn func(cur []byte, exists bool)) error {
	return se.route(key).(*faster.Session).RMW(key, fn)
}

// StalenessBound reports the bound all shards share.
func (w fasterStore) StalenessBound() int64 { return w.stores[0].StalenessBound() }

// SetStalenessBound changes the bound on every shard.
func (w fasterStore) SetStalenessBound(b int64) {
	for _, st := range w.stores {
		st.SetStalenessBound(b)
	}
}

// clockFreeStore is the router over lifted LSM or B+tree shards. Beyond
// the shared surface it is a BatchCallReporter; it is never Bounded,
// because the engines have no vector clock to honor a bound with.
type clockFreeStore struct {
	*shardStore
	lifted []*liftedStore
}

func wrapLifted(lifted []*liftedStore, name string) Store {
	shards := make([]shardEngine, len(lifted))
	for i, l := range lifted {
		shards[i] = l
	}
	return clockFreeStore{
		shardStore: &shardStore{shards: shards, name: name, valueSize: lifted[0].valueSize},
		lifted:     lifted,
	}
}

// BatchCalls implements BatchCallReporter across shards.
func (w clockFreeStore) BatchCalls() (gets, puts int64) {
	for _, l := range w.lifted {
		gets += l.batchGets.Load()
		puts += l.batchPuts.Load()
	}
	return gets, puts
}
