package driver

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/kv"
)

// localDB serves models out of one data directory, each model a kv store
// under <dir>/<id>: the clocked hybrid log by default, or a clock-free
// engine when Config.Engine asks for one. Opening the same id twice
// returns the same model (refcounted), mirroring the server registry's
// by-name deduplication.
type localDB struct {
	dir string

	mu     sync.Mutex
	closed bool
	models map[string]*localModel
}

func (db *localDB) Target() string { return db.dir }

func (db *localDB) Open(ctx context.Context, id string, cfg Config) (Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	engine := "" // "" = caller has no preference; reopens match anything
	if cfg.Engine != "" {
		var err error
		if engine, err = kv.NormalizeEngine(cfg.Engine); err != nil {
			return nil, err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("driver: db %q is closed", db.dir)
	}
	if m, ok := db.models[id]; ok {
		if m.be.Dim() != cfg.Dim {
			return nil, fmt.Errorf("driver: model %q has dim %d, requested %d", id, m.be.Dim(), cfg.Dim)
		}
		if engine != "" && engine != m.be.engine {
			return nil, fmt.Errorf("driver: model %q runs engine %q, requested %q", id, m.be.engine, engine)
		}
		if cfg.BoundSet {
			if err := m.be.SetStalenessBound(cfg.Bound); err != nil {
				return nil, err
			}
		}
		m.refs++
		return &localHandle{localModel: m}, nil
	}
	if engine == "" {
		engine = kv.EngineFaster
	}
	be, err := openKVBackend(filepath.Join(db.dir, id), engine, cfg)
	if err != nil {
		return nil, err
	}
	m := &localModel{db: db, id: id, be: be, refs: 1}
	db.models[id] = m
	return &localHandle{localModel: m}, nil
}

// Close closes every model still open on the directory.
func (db *localDB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	models := make([]*localModel, 0, len(db.models))
	for _, m := range db.models {
		models = append(models, m)
	}
	db.models = make(map[string]*localModel)
	db.mu.Unlock()
	var first error
	for _, m := range models {
		if err := m.be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// localModel wraps one backend. refs counts Opens; the backend closes when
// the last reference is released (or when the DB closes). Each Open
// returns its own localHandle so a double Close of one handle releases
// its reference once, never a sibling's.
type localModel struct {
	db   *localDB
	id   string
	be   *kvBackend
	refs int // guarded by db.mu
}

// localHandle is one Open's view of a shared localModel.
type localHandle struct {
	*localModel
	closed atomic.Bool
}

// Close releases this handle's reference exactly once; the backend closes
// when the last handle goes.
func (h *localHandle) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	return h.localModel.release()
}

func (m *localModel) ID() string            { return m.id }
func (m *localModel) Dim() int              { return m.be.Dim() }
func (m *localModel) Shards() int           { return m.be.Shards() }
func (m *localModel) EngineName() string    { return m.be.EngineName() }
func (m *localModel) StalenessBound() int64 { return m.be.StalenessBound() }

func (m *localModel) SetStalenessBound(ctx context.Context, b int64) error {
	return m.be.SetStalenessBound(b)
}

func (m *localModel) Checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.be.Checkpoint()
}

func (m *localModel) Stats(ctx context.Context) (Stats, error) {
	return m.be.Stats(), nil
}

func (m *localModel) ActiveSessions(ctx context.Context) (int64, error) {
	return m.be.ActiveSessions(), nil
}

func (m *localModel) NewSession(ctx context.Context) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.be.NewSession()
}

// release drops one reference; the backend closes when the last one goes.
func (m *localModel) release() error {
	m.db.mu.Lock()
	if m.refs == 0 { // DB already closed everything
		m.db.mu.Unlock()
		return nil
	}
	m.refs--
	last := m.refs == 0
	if last {
		delete(m.db.models, m.id)
	}
	m.db.mu.Unlock()
	if !last {
		return nil
	}
	return m.be.Close()
}
