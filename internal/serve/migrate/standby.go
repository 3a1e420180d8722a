package migrate

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// Hooks is the standby's interface to its serving layer. migrate hands
// over raw journal bytes and snapshot files; the server decides how
// they become runnable jobs. All hooks may be called concurrently.
type Hooks struct {
	// WriteRecord / WriteStatus / WriteLabels durably install one
	// replicated journal frame.
	WriteRecord func(id string, data []byte) error
	WriteStatus func(id string, data []byte) error
	WriteLabels func(id string, data []byte) error
	// SnapshotPath names the local chain-snapshot file for a job.
	SnapshotPath func(id string) string
	// Adopt enqueues a job handed off by a live primary (planned
	// migration): the job's journal frames and snapshot are already
	// installed when Adopt runs.
	Adopt func(id string) error
	// Takeover fires once when the failure detector promotes this node:
	// the serving layer recovers every replicated job and starts
	// running. epoch is the new, seized lease epoch.
	Takeover func(epoch uint64)
}

// maxFrameBytes bounds one journal frame (records and statuses are
// small JSON; labels are PGMs ≤ ~1 MiB at the spec size cap).
const maxFrameBytes = 8 << 20

// maxPartialBytes bounds one in-assembly snapshot.
const maxPartialBytes = 64 << 20

// validJobID gates path elements received over the wire against
// traversal; job IDs are "<tenant>-<seq>" and tenant names are already
// this alphabet.
var validJobID = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,128}$`)

// partialSnap is one snapshot mid-assembly: the generation being
// transferred and the contiguous prefix received so far.
type partialSnap struct {
	gen string
	buf []byte
}

// Standby is the replication receiver and failover target. Mount
// Handler under the node's HTTP server and drive the failure detector
// with Run.
type Standby struct {
	cfg   Config
	reg   *obs.Registry
	led   *ledger
	hooks Hooks

	mu       sync.Mutex
	tookOver bool
	lastBeat time.Time
	misses   int
	partials map[string]*partialSnap
}

// NewStandby opens the node's lease ledger under stateDir and returns
// the receiver. If a previous incarnation of this node had already
// taken over (it is the ledger's owner), the standby comes up fenced-
// closed: it refuses every lease and frame, so a primary resurrected
// after a standby restart still cannot commit state.
func NewStandby(stateDir string, cfg Config, reg *obs.Registry, hooks Hooks) (*Standby, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.New()
	}
	led, err := openLedger(stateDir)
	if err != nil {
		return nil, err
	}
	s := &Standby{cfg: cfg, reg: reg, led: led, hooks: hooks, partials: map[string]*partialSnap{}}
	if rec := led.Current(); rec.Epoch > 0 && rec.Node == cfg.NodeID {
		s.tookOver = true
	}
	s.lastBeat = cfg.Now()
	return s, nil
}

// TookOver reports whether this node has seized ownership.
func (s *Standby) TookOver() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tookOver
}

// Run drives the failure detector until ctx dies: every heartbeat
// period with no sign of life from the leased primary counts one miss,
// and MissLimit consecutive misses trigger the takeover. Run returns
// nil when ctx ends (takeover itself does not stop the detector — the
// loop keeps ticking as a no-op so fencing stays armed).
func (s *Standby) Run(ctx context.Context) error {
	t := time.NewTicker(s.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			s.checkLiveness(s.cfg.Now())
		}
	}
}

// checkLiveness is one failure-detector evaluation at time now,
// returning whether it fired the takeover. Split out from Run so tests
// drive the detector with a synthetic clock.
func (s *Standby) checkLiveness(now time.Time) bool {
	s.mu.Lock()
	cur := s.led.Current()
	// Nothing to detect: never leased, leased to ourselves, or already
	// taken over.
	if s.tookOver || cur.Epoch == 0 || cur.Node == s.cfg.NodeID {
		s.mu.Unlock()
		return false
	}
	if now.Sub(s.lastBeat) < s.cfg.HeartbeatEvery {
		s.misses = 0
		s.mu.Unlock()
		return false
	}
	s.misses++
	obs.Add(s.reg, "serve.migrate.heartbeat_misses", 1)
	if s.misses < s.cfg.MissLimit {
		s.mu.Unlock()
		return false
	}
	epoch := cur.Epoch + 1
	if err := s.led.Commit(leaseRecord{Epoch: epoch, Node: s.cfg.NodeID}); err != nil {
		// Cannot fence durably — do not take over on a best-effort
		// epoch; retry next tick.
		obs.Add(s.reg, "serve.migrate.ledger_errors", 1)
		s.mu.Unlock()
		return false
	}
	s.tookOver = true
	s.mu.Unlock()
	obs.Add(s.reg, "serve.migrate.takeovers", 1)
	if s.hooks.Takeover != nil {
		s.hooks.Takeover(epoch)
	}
	return true
}

// Handler returns the replication API:
//
//	POST   /v1/repl/lease                       acquire/renew ownership
//	POST   /v1/repl/heartbeat                   liveness
//	PUT    /v1/repl/jobs/{id}/record            journal record frame
//	PUT    /v1/repl/jobs/{id}/status            journal status frame
//	PUT    /v1/repl/jobs/{id}/labels            terminal labels frame
//	GET    /v1/repl/jobs/{id}/snapshot/offset   resume-offset probe
//	PUT    /v1/repl/jobs/{id}/snapshot          snapshot chunk
//	POST   /v1/repl/jobs/{id}/adopt             planned-handoff adoption
func (s *Standby) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/repl/lease", s.handleLease)
	mux.HandleFunc("POST /v1/repl/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("PUT /v1/repl/jobs/{id}/record", s.frameHandler(func(h Hooks) func(string, []byte) error { return h.WriteRecord }))
	mux.HandleFunc("PUT /v1/repl/jobs/{id}/status", s.frameHandler(func(h Hooks) func(string, []byte) error { return h.WriteStatus }))
	mux.HandleFunc("PUT /v1/repl/jobs/{id}/labels", s.frameHandler(func(h Hooks) func(string, []byte) error { return h.WriteLabels }))
	mux.HandleFunc("GET /v1/repl/jobs/{id}/snapshot/offset", s.handleOffset)
	mux.HandleFunc("PUT /v1/repl/jobs/{id}/snapshot", s.handleSnapshotChunk)
	mux.HandleFunc("POST /v1/repl/jobs/{id}/adopt", s.handleAdopt)
	return mux
}

func replJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// admit enforces the fencing check every frame must pass: the sender's
// epoch must equal the current granted lease, and ownership must not
// have been seized. Returns the rejection code (409) with ok=false on
// a stale frame.
func (s *Standby) admit(r *http.Request) bool {
	epoch, err := strconv.ParseUint(r.Header.Get(epochHeader), 10, 64)
	s.mu.Lock()
	cur := s.led.Current()
	ok := err == nil && !s.tookOver && cur.Epoch > 0 && cur.Node != s.cfg.NodeID && epoch == cur.Epoch
	if ok {
		// A frame is as good a sign of life as a heartbeat.
		s.lastBeat = s.cfg.Now()
		s.misses = 0
	}
	s.mu.Unlock()
	if !ok {
		obs.Add(s.reg, "serve.migrate.fenced_frames", 1)
	}
	return ok
}

func jobIDOf(r *http.Request) (string, bool) {
	id := r.PathValue("id")
	return id, validJobID.MatchString(id)
}

// handleLease grants ownership epochs. Refusals carry the current
// epoch (409: propose higher) or are final (410: this standby has
// taken over; the old primary must fence itself).
func (s *Standby) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil || req.Node == "" {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad lease request"})
		return
	}
	s.mu.Lock()
	cur := s.led.Current()
	if s.tookOver {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.migrate.lease_refusals", 1)
		replJSON(w, http.StatusGone, leaseMsg{Node: s.cfg.NodeID, Epoch: cur.Epoch})
		return
	}
	if req.Epoch <= cur.Epoch {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.migrate.lease_refusals", 1)
		replJSON(w, http.StatusConflict, leaseMsg{Node: cur.Node, Epoch: cur.Epoch})
		return
	}
	if err := s.led.Commit(leaseRecord{Epoch: req.Epoch, Node: req.Node}); err != nil {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.migrate.ledger_errors", 1)
		replJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	s.lastBeat = s.cfg.Now()
	s.misses = 0
	s.mu.Unlock()
	obs.Add(s.reg, "serve.migrate.lease_grants", 1)
	replJSON(w, http.StatusOK, leaseMsg{Node: req.Node, Epoch: req.Epoch})
}

func (s *Standby) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.admit(r) {
		replJSON(w, http.StatusConflict, map[string]string{"error": ErrFenced.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// frameHandler builds the PUT handler for one journal-frame kind.
func (s *Standby) frameHandler(pick func(Hooks) func(string, []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobIDOf(r)
		if !ok {
			replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id"})
			return
		}
		if !s.admit(r) {
			replJSON(w, http.StatusConflict, map[string]string{"error": ErrFenced.Error()})
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameBytes))
		if err != nil {
			replJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		write := pick(s.hooks)
		if write == nil {
			replJSON(w, http.StatusNotImplemented, map[string]string{"error": "frame hook not wired"})
			return
		}
		if err := write(id, data); err != nil {
			replJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		obs.Add(s.reg, "serve.repl.recv_frames", 1)
		obs.Add(s.reg, "serve.repl.recv_bytes", int64(len(data)))
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleOffset reports how much of generation ?gen= this standby
// already holds for the job — the partial in assembly, the installed
// snapshot (complete), or nothing.
func (s *Standby) handleOffset(w http.ResponseWriter, r *http.Request) {
	id, ok := jobIDOf(r)
	if !ok {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id"})
		return
	}
	if !s.admit(r) {
		replJSON(w, http.StatusConflict, map[string]string{"error": ErrFenced.Error()})
		return
	}
	gen := r.URL.Query().Get("gen")
	s.mu.Lock()
	if pt := s.partials[id]; pt != nil && pt.gen == gen {
		off := int64(len(pt.buf))
		s.mu.Unlock()
		replJSON(w, http.StatusOK, offsetMsg{Offset: off})
		return
	}
	s.mu.Unlock()
	if sr, err := checkpoint.OpenStream(s.hooks.SnapshotPath(id)); err == nil {
		installed := fmt.Sprintf("%016x", sr.CRC())
		if installed == gen {
			replJSON(w, http.StatusOK, offsetMsg{Offset: sr.Size(), Complete: true})
			return
		}
	}
	replJSON(w, http.StatusOK, offsetMsg{})
}

// handleSnapshotChunk appends one chunk (?gen=&offset=&final=) to the
// job's in-assembly snapshot. An offset that does not continue the
// held prefix is answered with 416 plus the offset the sender should
// resume from. The final chunk triggers full decode validation before
// the snapshot is atomically installed — a standby can hold a partial,
// but never adopt one.
func (s *Standby) handleSnapshotChunk(w http.ResponseWriter, r *http.Request) {
	id, ok := jobIDOf(r)
	if !ok {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id"})
		return
	}
	if !s.admit(r) {
		replJSON(w, http.StatusConflict, map[string]string{"error": ErrFenced.Error()})
		return
	}
	q := r.URL.Query()
	gen := q.Get("gen")
	offset, err := strconv.ParseInt(q.Get("offset"), 10, 64)
	if err != nil || gen == "" {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad gen/offset"})
		return
	}
	final := q.Get("final") == "1"
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFrameBytes))
	if err != nil {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}

	s.mu.Lock()
	pt := s.partials[id]
	if pt == nil || pt.gen != gen {
		if offset != 0 {
			s.mu.Unlock()
			replJSON(w, http.StatusRequestedRangeNotSatisfiable, offsetMsg{})
			return
		}
		pt = &partialSnap{gen: gen}
		s.partials[id] = pt
	}
	if offset != int64(len(pt.buf)) {
		off := int64(len(pt.buf))
		s.mu.Unlock()
		replJSON(w, http.StatusRequestedRangeNotSatisfiable, offsetMsg{Offset: off})
		return
	}
	if len(pt.buf)+len(data) > maxPartialBytes {
		delete(s.partials, id)
		s.mu.Unlock()
		replJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "snapshot exceeds partial budget"})
		return
	}
	pt.buf = append(pt.buf, data...)
	if !final {
		s.mu.Unlock()
		obs.Add(s.reg, "serve.repl.recv_bytes", int64(len(data)))
		w.WriteHeader(http.StatusNoContent)
		return
	}
	assembled := pt.buf
	delete(s.partials, id)
	s.mu.Unlock()

	// Validate the assembled bytes end to end: the envelope CRC must
	// check out AND the trailer must be the generation the sender named
	// (the stream reader on the other side pinned it when it opened the
	// file, so a mismatch means the transfer interleaved two files).
	if _, err := checkpoint.Decode(assembled); err != nil {
		obs.Add(s.reg, "serve.repl.snapshot_rejects", 1)
		replJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	if got := assembledGen(assembled); got != gen {
		obs.Add(s.reg, "serve.repl.snapshot_rejects", 1)
		replJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": "generation mismatch after assembly"})
		return
	}
	if err := checkpoint.Install(s.hooks.SnapshotPath(id), assembled); err != nil {
		replJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	obs.Add(s.reg, "serve.repl.recv_bytes", int64(len(data)))
	obs.Add(s.reg, "serve.repl.snapshots_installed", 1)
	w.WriteHeader(http.StatusNoContent)
}

// assembledGen extracts the CRC-64 trailer (the generation ID) from a
// fully assembled snapshot encoding.
func assembledGen(data []byte) string {
	if len(data) < 8 {
		return ""
	}
	return hex.EncodeToString(reverse8(data[len(data)-8:]))
}

// reverse8 renders the little-endian trailer in the big-endian hex the
// wire protocol uses (%016x of the uint64).
func reverse8(b []byte) []byte {
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = b[7-i]
	}
	return out
}

// handleAdopt completes a planned handoff: the primary has flushed the
// job's frames and snapshot and now transfers execution.
func (s *Standby) handleAdopt(w http.ResponseWriter, r *http.Request) {
	id, ok := jobIDOf(r)
	if !ok {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id"})
		return
	}
	if !s.admit(r) {
		replJSON(w, http.StatusConflict, map[string]string{"error": ErrFenced.Error()})
		return
	}
	if s.hooks.Adopt == nil {
		replJSON(w, http.StatusNotImplemented, map[string]string{"error": "adopt hook not wired"})
		return
	}
	if err := s.hooks.Adopt(id); err != nil {
		replJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	obs.Add(s.reg, "serve.migrate.jobs_adopted", 1)
	replJSON(w, http.StatusOK, map[string]string{"id": id, "state": "adopted"})
}
