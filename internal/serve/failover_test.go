package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/serve/migrate"
)

// TestEventsStreamHeartbeat pins the liveness contract of a followed
// events stream: while a job sits queued (or runs between events), the
// server emits heartbeat lines at EventsHeartbeat cadence so clients
// can tell a quiet job from a dead connection.
func TestEventsStreamHeartbeat(t *testing.T) {
	cfg := testConfig(t)
	cfg.EventsHeartbeat = 20 * time.Millisecond
	s := newServer(t, cfg) // never started: the job stays queued
	id, err := s.Submit("alice", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events -> %d", resp.StatusCode)
	}
	beats := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "heartbeat" {
			beats++
			if beats >= 3 {
				break
			}
		}
	}
	if beats < 3 {
		t.Fatalf("saw %d heartbeat lines, want >= 3 (scan err %v, ctx %v)", beats, sc.Err(), ctx.Err())
	}
}

// parkedCheckpoint runs spec on a fresh server until the job's chain
// has written both snapshot slots, drains it, and returns the config
// (for a restart on the same state directory), the job ID, the golden
// digest of an uninterrupted run, and the job's slot paths, the one
// checkpoint.Load prefers first. The drain saves the boundary it stops
// at, which the every-sweep policy usually saved already, so the two
// slots often hold the same sweep; Load then prefers slot 0.
func parkedCheckpoint(t *testing.T, spec JobSpec) (Config, string, string, [2]string) {
	t.Helper()
	golden := startServer(t, testConfig(t))
	gid, err := golden.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	gst := waitTerminal(t, golden, gid, 120*time.Second)
	if gst.State != StateDone {
		t.Fatalf("golden: %s (%s)", gst.State, gst.Error)
	}

	cfg := testConfig(t)
	s1 := newServer(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	if err := s1.Start(ctx1); err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 1 (<id>.ckpt.1) appears with the chain's second snapshot.
	ckptPath := s1.store.CheckpointPath(id)
	slots := [2]string{ckptPath, ckptPath + ".1"}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(slots[1]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never wrote its second snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	var sweeps [2]int
	for i, p := range slots {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatalf("parked slot %s: %v", p, err)
		}
		sweeps[i] = snap.Sweep
	}
	if sweeps[0] >= spec.Iterations || sweeps[1] >= spec.Iterations {
		t.Fatalf("parked slots at sweeps %v of %d: want two mid-chain snapshots", sweeps, spec.Iterations)
	}
	if sweeps[1] > sweeps[0] {
		slots[0], slots[1] = slots[1], slots[0]
	}
	return cfg, id, gst.Digest, slots
}

// flipBit damages a snapshot slot: one flipped bit mid-payload.
func flipBit(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// resumeSweep returns the sweep the job's chain resumed from in this
// incarnation, read from its checkpoint.resume event, or -1.
func resumeSweep(t *testing.T, s *Server, id string) int {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	data, _, _ := j.events.snapshot(0)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err == nil && ev.Kind == "checkpoint.resume" {
			sweep, _ := ev.Fields["sweep"].(float64)
			return int(sweep)
		}
	}
	return -1
}

// TestCorruptCheckpointRestartsFromScratch pins the ErrCorrupt retry
// path end to end: every slot of a drained job's snapshot is
// bit-flipped on disk, the restarted server detects the damage on
// resume, drops the snapshot, reruns the chain from sweep zero, and
// still produces the exact digest of an uninterrupted run.
func TestCorruptCheckpointRestartsFromScratch(t *testing.T) {
	spec := testSpec()
	spec.Iterations = 400
	cfg, id, goldenDigest, slots := parkedCheckpoint(t, spec)
	for _, p := range slots {
		flipBit(t, p)
	}

	// Run 2: recovery resumes the job, trips on the corrupt snapshot,
	// and must converge to the golden digest anyway.
	cfg2 := cfg
	cfg2.Recorder = obs.New()
	s2 := startServer(t, cfg2)
	st := waitTerminal(t, s2, id, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("after corrupt restart: %s (%s)", st.State, st.Error)
	}
	if st.Sweeps != spec.Iterations {
		t.Errorf("sweeps %d, want the full budget %d", st.Sweeps, spec.Iterations)
	}
	if st.Digest != goldenDigest {
		t.Errorf("digest %s != golden %s — restart-from-scratch is not clean", st.Digest, goldenDigest)
	}
	if got := counterValue(cfg2.Recorder, "serve.ckpt.corrupt_dropped"); got < 1 {
		t.Errorf("serve.ckpt.corrupt_dropped = %d, want >= 1", got)
	}
	if got := counterValue(cfg2.Recorder, "serve.retries"); got < 1 {
		t.Errorf("serve.retries = %d, want >= 1", got)
	}
}

// TestCorruptNewestSlotResumesFromOther: with only the slot Load
// prefers damaged, the restarted server resumes the chain from the
// other, intact slot — no drop, no retry — and still produces the
// exact digest of an uninterrupted run.
func TestCorruptNewestSlotResumesFromOther(t *testing.T) {
	spec := testSpec()
	spec.Iterations = 400
	cfg, id, goldenDigest, slots := parkedCheckpoint(t, spec)
	intact, err := os.ReadFile(slots[1])
	if err != nil {
		t.Fatal(err)
	}
	intactSnap, err := checkpoint.Decode(intact)
	if err != nil {
		t.Fatal(err)
	}
	flipBit(t, slots[0])

	cfg2 := cfg
	cfg2.Recorder = obs.New()
	s2 := startServer(t, cfg2)
	st := waitTerminal(t, s2, id, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("after newest-slot damage: %s (%s)", st.State, st.Error)
	}
	if st.Digest != goldenDigest {
		t.Errorf("digest %s != golden %s — resume from the intact slot is not byte-exact", st.Digest, goldenDigest)
	}
	if got := resumeSweep(t, s2, id); got != intactSnap.Sweep {
		t.Errorf("chain resumed from sweep %d, want the intact slot's sweep %d", got, intactSnap.Sweep)
	}
	if got := counterValue(cfg2.Recorder, "serve.jobs.resumed_completed"); got != 1 {
		t.Errorf("serve.jobs.resumed_completed = %d, want 1", got)
	}
	for _, name := range []string{"serve.retries", "serve.ckpt.corrupt_dropped"} {
		if got := counterValue(cfg2.Recorder, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// twoNodeCluster builds an in-process primary+standby pair wired over
// a real HTTP boundary, with the standby's failure detector tuned slow
// enough that only an explicit action (not scheduling noise) can move
// ownership.
func twoNodeCluster(t *testing.T) (primary, standby *Server, peerURL string) {
	t.Helper()
	sbCfg := testConfig(t)
	sbCfg.Migrate = &migrate.Config{
		NodeID:         "node-b",
		Standby:        true,
		LeaseTTL:       time.Hour,
		HeartbeatEvery: time.Hour,
		MissLimit:      1000,
	}
	sb := startServer(t, sbCfg)
	ts := httptest.NewServer(sb.Handler())
	t.Cleanup(ts.Close)

	prCfg := testConfig(t)
	prCfg.Migrate = &migrate.Config{
		NodeID:         "node-a",
		Peer:           ts.URL,
		LeaseTTL:       time.Hour,
		HeartbeatEvery: time.Hour,
		MissLimit:      1000,
	}
	pr := startServer(t, prCfg)
	deadline := time.Now().Add(30 * time.Second)
	for !pr.Active() {
		if time.Now().After(deadline) {
			t.Fatal("primary never acquired its lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return pr, sb, ts.URL
}

// TestPlannedHandoffMigratesRunningJob drives the whole planned-
// migration path in-process: a running chain is drained to the peer at
// a sweep boundary, the primary parks it as migrated (with the peer
// recorded), and the standby finishes the chain bit-exactly.
func TestPlannedHandoffMigratesRunningJob(t *testing.T) {
	spec := testSpec()
	spec.Iterations = 400

	golden := startServer(t, testConfig(t))
	gid, err := golden.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	gst := waitTerminal(t, golden, gid, 120*time.Second)
	if gst.State != StateDone {
		t.Fatalf("golden: %s (%s)", gst.State, gst.Error)
	}

	pr, sb, peerURL := twoNodeCluster(t)
	id, err := pr.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the chain is demonstrably running, then arm the drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, st, jerr := pr.Job(id)
		if jerr != nil {
			t.Fatal(jerr)
		}
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job finished (%s) before the handoff could arm", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := pr.MigrateJob(id); err != nil {
		t.Fatal(err)
	}

	// The primary parks the job as migrated, naming the peer.
	pst := waitTerminal(t, pr, id, 120*time.Second)
	if pst.State != StateMigrated {
		t.Fatalf("primary state %s (%s), want migrated", pst.State, pst.Error)
	}
	if pst.Peer != peerURL {
		t.Errorf("migrated peer %q, want %q", pst.Peer, peerURL)
	}

	// The standby adopted it and finishes the chain bit-exactly.
	sst := waitTerminal(t, sb, id, 120*time.Second)
	if sst.State != StateDone {
		t.Fatalf("standby state %s (%s), want done", sst.State, sst.Error)
	}
	if sst.Sweeps != spec.Iterations {
		t.Errorf("standby sweeps %d, want the full budget %d", sst.Sweeps, spec.Iterations)
	}
	if sst.Digest != gst.Digest {
		t.Errorf("standby digest %s != golden %s — handoff resume is not byte-exact", sst.Digest, gst.Digest)
	}

	// Ledger of record on both sides.
	if got := counterValue(pr.reg, "serve.migrate.jobs_migrated"); got != 1 {
		t.Errorf("primary serve.migrate.jobs_migrated = %d, want 1", got)
	}
	if got := counterValue(sb.reg, "serve.migrate.jobs_adopted"); got != 1 {
		t.Errorf("standby serve.migrate.jobs_adopted = %d, want 1", got)
	}
}

// TestMigrateJobErrors pins the admin surface's refusals: no peer
// configured, unknown job, and already-terminal jobs.
func TestMigrateJobErrors(t *testing.T) {
	s := startServer(t, testConfig(t))
	if err := s.MigrateJob("nope-000000"); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("migrate without peer: %v, want ErrNoPeer", err)
	}

	pr, _, _ := twoNodeCluster(t)
	if err := pr.MigrateJob("nope-000000"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("migrate unknown job: %v, want ErrUnknownJob", err)
	}
	id, err := pr.Submit("alice", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, pr, id, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if err := pr.MigrateJob(id); err == nil {
		t.Fatal("migrating a terminal job succeeded")
	}
}
