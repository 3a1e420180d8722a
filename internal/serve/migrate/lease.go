package migrate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
)

// leaseRecord is the durable ownership fact both nodes keep: the
// highest lease epoch this node has granted, acquired, or seized, and
// which node holds it. Epoch 0 means no lease has ever existed.
type leaseRecord struct {
	Epoch uint64 `json:"epoch"`
	Node  string `json:"node"`
}

// ledger persists the lease record under <stateDir>/cluster/lease.json
// through checkpoint.WriteFileAtomic, like the job journal. The
// fencing guarantee rests on it: epochs observed from the ledger never
// move backwards, even across a SIGKILL at any instant.
type ledger struct {
	path string

	mu  sync.Mutex
	rec leaseRecord
}

func openLedger(stateDir string) (*ledger, error) {
	dir := filepath.Join(stateDir, "cluster")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("migrate: ledger dir: %w", err)
	}
	l := &ledger{path: filepath.Join(dir, "lease.json")}
	data, err := os.ReadFile(l.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return l, nil
	case err != nil:
		return nil, fmt.Errorf("migrate: ledger: %w", err)
	}
	if err := json.Unmarshal(data, &l.rec); err != nil {
		return nil, fmt.Errorf("migrate: ledger %s: %w", l.path, err)
	}
	return l, nil
}

// Current returns the last committed lease record.
func (l *ledger) Current() leaseRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec
}

// Commit durably replaces the lease record. Epoch regressions are a
// protocol violation and are refused.
func (l *ledger) Commit(rec leaseRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Epoch < l.rec.Epoch {
		return fmt.Errorf("migrate: ledger epoch regression %d -> %d", l.rec.Epoch, rec.Epoch)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(l.path, data); err != nil {
		return fmt.Errorf("migrate: ledger: %w", err)
	}
	l.rec = rec
	return nil
}
