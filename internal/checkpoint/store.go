package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
)

// Store is a pluggable checkpoint sink keyed by label. Save must be
// atomic: a crash mid-save leaves either the previous checkpoint or the
// new one, never a torn one. Load returns an error satisfying
// errors.Is(err, fs.ErrNotExist) when no checkpoint exists under label.
type Store interface {
	Save(label string, data []byte) error
	Load(label string) ([]byte, error)
}

// Lister is the optional enumeration side of a Store. A control plane
// recovering after a restart lists the labels it persisted (job specs,
// checkpoints) to rebuild its queue; plain Stores that cannot enumerate
// stay valid — callers type-assert and degrade to non-durable operation.
type Lister interface {
	// List returns every label currently stored, in unspecified order.
	List() ([]string, error)
}

// Deleter is the optional removal side of a Store. Deleting an absent
// label is not an error — terminal job transitions race restarts, so
// deletes must be idempotent.
type Deleter interface {
	Delete(label string) error
}

// LoadFrom loads and decodes the checkpoint stored under label. A missing
// checkpoint is not an error: LoadFrom returns (nil, nil) so cold starts
// and resumes share one call site.
func LoadFrom(s Store, label string) (*State, error) {
	data, err := s.Load(label)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	return DecodeBytes(data)
}

// MemStore is an in-memory Store for tests and live migration handoffs.
// The zero value is ready to use.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// Save stores a copy of data under label.
func (m *MemStore) Save(label string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[string][]byte)
	}
	m.m[label] = append([]byte(nil), data...)
	return nil
}

// Load returns a copy of the bytes stored under label, or an error
// satisfying errors.Is(err, fs.ErrNotExist) when absent.
func (m *MemStore) Load(label string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.m[label]
	if !ok {
		return nil, fmt.Errorf("checkpoint: label %q: %w", label, fs.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// List returns every stored label.
func (m *MemStore) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	labels := make([]string, 0, len(m.m))
	for l := range m.m {
		labels = append(labels, l)
	}
	return labels, nil
}

// Delete removes the bytes stored under label; absent labels are a no-op.
func (m *MemStore) Delete(label string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.m, label)
	return nil
}
