package train

import (
	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
)

// ModelBackend adapts a public mlkv.Model to the trainer seam — the same
// backend for an in-process model on any engine and a remote mlkv-server,
// because the public API hides the target behind its driver. A worker's per-step
// gather and scatter travel as one GetBatch and one PutBatch (one framed
// round trip each on a remote model), Lookahead hints are asynchronous on
// both targets, and evaluation reads are clock-free Peeks.
type ModelBackend struct {
	M            *mlkv.Model
	UseLookahead bool
}

// NewModelBackend wraps a model. useLookahead enables Lookahead hints
// (MLKV's prefetch interface); when false Lookahead is a no-op (the
// plain-FASTER baseline, which has no such interface).
func NewModelBackend(m *mlkv.Model, useLookahead bool) *ModelBackend {
	return &ModelBackend{M: m, UseLookahead: useLookahead}
}

// Name identifies the engine ("mlkv", "faster", "lsm", "bptree", or
// "remote(<engine>)").
func (b *ModelBackend) Name() string { return b.M.EngineName() }

// Dim returns the embedding dimension.
func (b *ModelBackend) Dim() int { return b.M.Dim() }

// NewHandle registers a session on the model.
func (b *ModelBackend) NewHandle() (Handle, error) {
	s, err := b.M.NewSession()
	if err != nil {
		return nil, err
	}
	return &modelHandle{b: b, s: s}, nil
}

type modelHandle struct {
	b *ModelBackend
	s *mlkv.Session
}

func (h *modelHandle) Get(key uint64, dst []float32) error { return h.s.Get(key, dst) }
func (h *modelHandle) GetBatch(keys []uint64, dst []float32) error {
	return h.s.GetBatch(keys, dst)
}
func (h *modelHandle) Put(key uint64, val []float32) error { return h.s.Put(key, val) }
func (h *modelHandle) PutBatch(keys []uint64, vals []float32) error {
	return h.s.PutBatch(keys, vals)
}
func (h *modelHandle) Peek(key uint64, dst []float32) (bool, error) {
	return h.s.Peek(key, dst)
}
func (h *modelHandle) Lookahead(keys []uint64) {
	if h.b.UseLookahead {
		h.s.Lookahead(keys) //nolint:errcheck // best-effort hint
	}
}
func (h *modelHandle) Close() { h.s.Close() }

// RemoteBackend trains against a live mlkv-server through the public API:
// a ModelBackend over a model opened from an mlkv.Connect("mlkv://...")
// DB that the backend owns.
type RemoteBackend struct {
	*ModelBackend
	db *mlkv.DB
}

// DialRemote connects conns pooled connections to a mlkv-server at addr
// and opens (or creates) the named model with the given dimension.
// First-touch initialization runs on the trainer side with init, seeded
// per key so every worker initializes a given embedding identically.
// Extra model options (e.g. mlkv.WithCache for a trainer-side hot tier)
// append after the initializer.
//
// conns must be at least the number of concurrently training handles.
// Under a blocking staleness bound (BSP or finite SSP) a clocked read can
// wait for another worker's write; two workers sharing one connection
// would also share the server's per-connection handler goroutine, and the
// blocked worker's frame would stall the very write that unblocks it.
func DialRemote(addr, model string, dim int, init core.Initializer, conns int, opts ...mlkv.Option) (*RemoteBackend, error) {
	db, err := mlkv.Connect(mlkv.Scheme+addr, mlkv.WithConns(conns))
	if err != nil {
		return nil, err
	}
	mopts := append([]mlkv.Option{mlkv.WithInitializer(init)}, opts...)
	m, err := db.Open(model, dim, mopts...)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &RemoteBackend{ModelBackend: NewModelBackend(m, true), db: db}, nil
}

// Model exposes the underlying public model (stats, checkpoint).
func (b *RemoteBackend) Model() *mlkv.Model { return b.M }

// Close releases the model and tears down the connection pool; open
// handles fail afterwards (and their Lookahead hints drop).
func (b *RemoteBackend) Close() error {
	err := b.M.Close()
	if cerr := b.db.Close(); err == nil {
		err = cerr
	}
	return err
}
