package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/checkpoint"
)

// store is the durable job journal: one record file per accepted job
// (written once, before the 202 is returned), one status file rewritten
// atomically on every state transition, plus the chain snapshot and the
// terminal label output. Layout under the state directory:
//
//	jobs/<id>.json        immutable record: tenant, seq, spec
//	jobs/<id>.status      current status (checkpoint.WriteFileAtomic)
//	ckpt/<id>.ckpt        chain snapshot, slot 0 (internal/checkpoint format)
//	ckpt/<id>.ckpt.1      chain snapshot, slot 1: a checkpoint.Writer
//	                      overwrites the older slot in place each save
//	out/<id>.pgm          terminal labels (raw label bytes as PGM)
//
// The write ordering is the recovery contract: a job exists iff its
// record file exists; its labels file is durable before the status that
// says so. A SIGKILL at any instant therefore leaves every job either
// absent (client never saw 202) or recoverable.
type store struct {
	dir string
}

// jobRecord is the immutable half of a job's journal entry.
type jobRecord struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Seq    uint64  `json:"seq"`
	Spec   JobSpec `json:"spec"`
}

// jobStatus is the mutable half, rewritten on every transition.
type jobStatus struct {
	State State `json:"state"`
	// Attempts counts solve attempts started (across restarts).
	Attempts int `json:"attempts"`
	// Sweeps is the last reported completed-sweep count.
	Sweeps int `json:"sweeps"`
	// Error carries the terminal failure (state failed) or the last
	// transient error while retrying.
	Error string `json:"error,omitempty"`
	// Digest fingerprints the chain-derived result bytes (terminal
	// done/expired states only).
	Digest string `json:"digest,omitempty"`
	// FaultPolicy is the degradation policy the next attempt will run
	// with (escalates toward fallback on degraded attempts).
	FaultPolicy string `json:"fault_policy,omitempty"`
	// Peer names the node a migrated job was handed off to (terminal
	// state migrated only).
	Peer string `json:"peer,omitempty"`
}

func newStore(dir string) (*store, error) {
	for _, sub := range []string{"jobs", "ckpt", "out"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	return &store{dir: dir}, nil
}

func (st *store) recordPath(id string) string { return filepath.Join(st.dir, "jobs", id+".json") }
func (st *store) statusPath(id string) string { return filepath.Join(st.dir, "jobs", id+".status") }

// CheckpointPath returns the job's chain-snapshot path.
func (st *store) CheckpointPath(id string) string { return filepath.Join(st.dir, "ckpt", id+".ckpt") }

// LabelsPath returns the job's terminal-output path.
func (st *store) LabelsPath(id string) string { return filepath.Join(st.dir, "out", id+".pgm") }

// PutRecord durably writes the immutable record (fsynced: the record is
// what makes an accepted job survive SIGKILL, so it must be on disk
// before the client sees 202). The encoded bytes are returned so the
// replication layer can forward the exact journal frame.
func (st *store) PutRecord(rec jobRecord) ([]byte, error) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return data, checkpoint.WriteFileAtomic(st.recordPath(rec.ID), data)
}

// PutStatus atomically replaces the job's status file, returning the
// encoded bytes for replication.
func (st *store) PutStatus(id string, status jobStatus) ([]byte, error) {
	data, err := json.MarshalIndent(status, "", "  ")
	if err != nil {
		return nil, err
	}
	return data, checkpoint.WriteFileAtomic(st.statusPath(id), data)
}

// PutRawRecord / PutRawStatus install replicated journal frames
// byte-for-byte — the standby's copy of the journal is identical to
// the primary's, so recovery after takeover follows the exact same
// path as recovery after a local restart.
func (st *store) PutRawRecord(id string, data []byte) error {
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("serve: replicated record %s: %w", id, err)
	}
	if rec.ID != id {
		return fmt.Errorf("serve: replicated record id %q != %q", rec.ID, id)
	}
	return checkpoint.WriteFileAtomic(st.recordPath(id), data)
}

func (st *store) PutRawStatus(id string, data []byte) error {
	var status jobStatus
	if err := json.Unmarshal(data, &status); err != nil {
		return fmt.Errorf("serve: replicated status %s: %w", id, err)
	}
	return checkpoint.WriteFileAtomic(st.statusPath(id), data)
}

// GetRecord loads one job's immutable record.
func (st *store) GetRecord(id string) (jobRecord, error) {
	data, err := os.ReadFile(st.recordPath(id))
	if err != nil {
		return jobRecord{}, err
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return jobRecord{}, fmt.Errorf("serve: record %s: %w", id, err)
	}
	return rec, nil
}

// GetStatus loads a job's status. A record with no status file yet is
// reported as queued (the record write precedes the first status write).
func (st *store) GetStatus(id string) (jobStatus, error) {
	data, err := os.ReadFile(st.statusPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return jobStatus{State: StateQueued}, nil
	}
	if err != nil {
		return jobStatus{}, err
	}
	var status jobStatus
	if err := json.Unmarshal(data, &status); err != nil {
		return jobStatus{}, fmt.Errorf("serve: status %s: %w", id, err)
	}
	return status, nil
}

// PutLabels durably writes the terminal label bytes.
func (st *store) PutLabels(id string, pgm []byte) error {
	return checkpoint.WriteFileAtomic(st.LabelsPath(id), pgm)
}

// Load reads every journaled job, sorted by sequence number so recovery
// re-enqueues in admission order.
func (st *store) Load() ([]jobRecord, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var recs []jobRecord
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "jobs", name))
		if err != nil {
			return nil, err
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("serve: record %s: %w", name, err)
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, nil
}
