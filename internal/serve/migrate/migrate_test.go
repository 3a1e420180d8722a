package migrate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/backoff"
)

// noSleep makes retry backoff instantaneous in tests.
func noSleep(context.Context, time.Duration) error { return nil }

func testPolicy() backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond, Factor: 2, Jitter: 0.5, MaxRetries: 4}
}

func counterValue(reg *obs.Registry, name string) int64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// testSnapshotBytes builds a valid checkpoint file at path and returns
// its encoded bytes.
func testSnapshotBytes(t *testing.T, path string) []byte {
	t.Helper()
	s := &checkpoint.Snapshot{
		Fingerprint: checkpoint.Fingerprint{
			App: "seg", Backend: "rsu", Seed: 7, BurnIn: 2, Iterations: 9,
		},
		Sweep:  4,
		W:      8,
		H:      8,
		M:      3,
		Labels: bytes.Repeat([]byte{0, 1, 2, 1}, 16),
		Chain:  [4]uint64{1, 2, 3, 4},
		Counts: make([]uint32, 8*8*3),
		Energy: []float64{-1, -2, -3},
	}
	if err := checkpoint.Save(path, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestConfigValidate(t *testing.T) {
	base := Config{NodeID: "a", Peer: "http://x"}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Peer: "http://x"}, // no node
		{NodeID: "a"},      // neither role
		{NodeID: "a", Peer: "http://x", Standby: true}, // both roles
		{NodeID: "a", Standby: true, MissLimit: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("case %d: err %v, want ErrInvalidConfig", i, err)
		}
	}
}

func TestLedgerRoundTripAndRegression(t *testing.T) {
	dir := t.TempDir()
	led, err := openLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur := led.Current(); cur.Epoch != 0 {
		t.Fatalf("fresh ledger epoch %d, want 0", cur.Epoch)
	}
	if err := led.Commit(leaseRecord{Epoch: 3, Node: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := led.Commit(leaseRecord{Epoch: 2, Node: "b"}); err == nil {
		t.Fatal("epoch regression committed")
	}
	reopened, err := openLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur := reopened.Current(); cur.Epoch != 3 || cur.Node != "a" {
		t.Fatalf("reopened ledger %+v, want {3 a}", cur)
	}
}

// testStandby builds a standby with a controllable clock and in-memory
// frame hooks.
type frameStore struct {
	mu       sync.Mutex
	records  map[string][]byte
	statuses map[string][]byte
}

func newStandbyFixture(t *testing.T, dir string) (*Standby, *frameStore, *obs.Registry, func(time.Time)) {
	t.Helper()
	fs := &frameStore{records: map[string][]byte{}, statuses: map[string][]byte{}}
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	setNow := func(v time.Time) {
		mu.Lock()
		now = v
		mu.Unlock()
	}
	reg := obs.New()
	sb, err := NewStandby(dir, Config{
		NodeID:         "b",
		Standby:        true,
		LeaseTTL:       300 * time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
		MissLimit:      3,
		Now:            clock,
		Sleep:          noSleep,
	}, reg, Hooks{
		WriteRecord: func(id string, data []byte) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			fs.records[id] = data
			return nil
		},
		WriteStatus: func(id string, data []byte) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			fs.statuses[id] = data
			return nil
		},
		SnapshotPath: func(id string) string { return filepath.Join(dir, id+".ckpt") },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb, fs, reg, setNow
}

func doReq(t *testing.T, h http.Handler, method, path string, epoch uint64, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if epoch > 0 {
		req.Header.Set(epochHeader, strconv.FormatUint(epoch, 10))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestLeaseFencingAfterTakeover walks the whole fencing story: a
// primary leases and replicates, the failure detector seizes
// ownership, and from then on the resurrected primary cannot commit a
// single byte — across standby restarts too.
func TestLeaseFencingAfterTakeover(t *testing.T) {
	dir := t.TempDir()
	sb, fs, reg, setNow := newStandbyFixture(t, dir)
	var takeoverEpoch uint64
	sb.hooks.Takeover = func(e uint64) { takeoverEpoch = e }
	h := sb.Handler()

	// Grant epoch 1 to primary "a".
	w := doReq(t, h, http.MethodPost, "/v1/repl/lease", 0, []byte(`{"node":"a","epoch":1}`))
	if w.Code != http.StatusOK {
		t.Fatalf("lease: %d %s", w.Code, w.Body)
	}
	// A frame at the granted epoch lands.
	w = doReq(t, h, http.MethodPut, "/v1/repl/jobs/j1/record", 1, []byte(`{"id":"j1"}`))
	if w.Code != http.StatusNoContent {
		t.Fatalf("frame: %d %s", w.Code, w.Body)
	}
	if fs.records["j1"] == nil {
		t.Fatal("frame hook not invoked")
	}
	// A stale-epoch lease proposal is refused with the current epoch.
	w = doReq(t, h, http.MethodPost, "/v1/repl/lease", 0, []byte(`{"node":"a","epoch":1}`))
	if w.Code != http.StatusConflict {
		t.Fatalf("stale lease: %d, want 409", w.Code)
	}

	// Starve the detector: MissLimit beat-free periods.
	base := time.Unix(2000, 0)
	for i := 0; i < 3; i++ {
		setNow(base.Add(time.Duration(i) * time.Second))
		fired := sb.checkLiveness(base.Add(time.Duration(i) * time.Second))
		if fired != (i == 2) {
			t.Fatalf("tick %d: takeover fired=%v", i, fired)
		}
	}
	if takeoverEpoch != 2 {
		t.Fatalf("takeover epoch %d, want 2", takeoverEpoch)
	}
	if counterValue(reg, "serve.migrate.takeovers") != 1 {
		t.Fatal("takeover counter not incremented")
	}

	// The resurrected primary is fenced on every path.
	fencedBefore := counterValue(reg, "serve.migrate.fenced_frames")
	w = doReq(t, h, http.MethodPut, "/v1/repl/jobs/j1/status", 1, []byte(`{"state":"running"}`))
	if w.Code != http.StatusConflict {
		t.Fatalf("stale frame after takeover: %d, want 409", w.Code)
	}
	if fs.statuses["j1"] != nil {
		t.Fatal("stale frame reached the hook after takeover")
	}
	if counterValue(reg, "serve.migrate.fenced_frames") <= fencedBefore {
		t.Fatal("fenced-frame counter not incremented")
	}
	w = doReq(t, h, http.MethodPost, "/v1/repl/heartbeat", 1, nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("heartbeat after takeover: %d, want 409", w.Code)
	}
	// Even a fresh, higher lease proposal: ownership is gone for good.
	w = doReq(t, h, http.MethodPost, "/v1/repl/lease", 0, []byte(`{"node":"a","epoch":99}`))
	if w.Code != http.StatusGone {
		t.Fatalf("lease after takeover: %d, want 410", w.Code)
	}

	// Fencing survives a standby restart: the ledger names this node.
	sb2, _, _, _ := newStandbyFixture(t, dir)
	if !sb2.TookOver() {
		t.Fatal("restarted standby forgot its takeover")
	}
}

func TestAdmitRequiresGrantedLease(t *testing.T) {
	dir := t.TempDir()
	sb, _, _, _ := newStandbyFixture(t, dir)
	h := sb.Handler()
	// No lease granted yet: every frame is refused.
	w := doReq(t, h, http.MethodPut, "/v1/repl/jobs/j1/record", 1, []byte(`{}`))
	if w.Code != http.StatusConflict {
		t.Fatalf("frame without lease: %d, want 409", w.Code)
	}
	// Bad job IDs never reach the hooks.
	w = doReq(t, h, http.MethodPut, "/v1/repl/jobs/..%2Fetc/record", 1, []byte(`{}`))
	if w.Code == http.StatusNoContent {
		t.Fatal("traversal job id accepted")
	}
}

// TestSnapshotResumeAfterFailure streams a snapshot through a flaky
// standby: one chunk send dies mid-transfer, and the retry resumes
// from the offset the standby reports instead of starting over.
func TestSnapshotResumeAfterFailure(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sb, _, sreg, _ := newStandbyFixture(t, dirB)
	if err := sb.led.Commit(leaseRecord{Epoch: 1, Node: "a"}); err != nil {
		t.Fatal(err)
	}

	var chunkPuts, failures int
	var mu sync.Mutex
	inner := sb.Handler()
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.URL.Query().Get("gen") != "" {
			mu.Lock()
			chunkPuts++
			n := chunkPuts
			mu.Unlock()
			if n == 2 {
				mu.Lock()
				failures++
				mu.Unlock()
				w.WriteHeader(http.StatusBadGateway)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	snapPath := filepath.Join(dirA, "j1.ckpt")
	want := testSnapshotBytes(t, snapPath)

	preg := obs.New()
	p, err := NewPrimary(dirA, Config{
		NodeID:     "a",
		Peer:       srv.URL,
		ChunkBytes: 64, // force many chunks so the failure lands mid-stream
		Retry:      testPolicy(),
		Sleep:      noSleep,
	}, preg, func(string) string { return snapPath }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.epoch = 1
	p.leased = true
	p.mu.Unlock()

	src := rng.New(1)
	if err := p.sendSnapshot(context.Background(), src, "j1"); err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("flaky middleware fired %d times, want 1", failures)
	}
	got, err := os.ReadFile(sb.hooks.SnapshotPath("j1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("installed snapshot differs from the source")
	}
	if counterValue(sreg, "serve.repl.snapshots_installed") != 1 {
		t.Fatal("snapshot install counter != 1")
	}
	if counterValue(preg, "serve.repl.snapshot_resumes") < 1 {
		t.Fatal("transfer did not resume from an offset")
	}
	// Re-sending the same generation is a no-op (offset probe reports
	// complete).
	before := counterValue(preg, "serve.repl.bytes")
	if err := p.sendSnapshot(context.Background(), src, "j1"); err != nil {
		t.Fatal(err)
	}
	if counterValue(preg, "serve.repl.bytes") != before {
		t.Fatal("complete snapshot was re-sent")
	}
}

// TestPrimaryLeaseLifecycleAndFencing runs the real Primary.Run loop
// against a standby: the lease is acquired (activating the node), the
// failure detector later seizes ownership, and the primary observes
// the refusal and fences itself.
func TestPrimaryLeaseLifecycleAndFencing(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sb, fs, _, _ := newStandbyFixture(t, dirB)
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()

	leased := make(chan uint64, 1)
	fenced := make(chan struct{})
	preg := obs.New()
	p, err := NewPrimary(dirA, Config{
		NodeID:         "a",
		Peer:           srv.URL,
		LeaseTTL:       60 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		Retry:          testPolicy(),
	}, preg, func(string) string { return filepath.Join(dirA, "none.ckpt") },
		func(e uint64) { leased <- e }, func() { close(fenced) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- p.Run(ctx) }()

	select {
	case e := <-leased:
		if e != 1 {
			t.Fatalf("leased epoch %d, want 1", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease never granted")
	}

	// Frames flow while leased.
	p.Record("j1", []byte(`{"id":"j1"}`))
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	gotRec := fs.records["j1"] != nil
	fs.mu.Unlock()
	if !gotRec {
		t.Fatal("record frame not delivered")
	}

	// The standby seizes ownership; the next heartbeat fences the
	// primary. A live heartbeat can reset the miss counter between
	// detector ticks, so keep ticking until the takeover fires.
	far := time.Unix(9000, 0)
	deadline := time.Now().Add(5 * time.Second)
	for !sb.TookOver() {
		if time.Now().After(deadline) {
			t.Fatal("standby did not take over")
		}
		sb.checkLiveness(far)
	}
	select {
	case <-fenced:
	case <-time.After(5 * time.Second):
		t.Fatal("primary never fenced")
	}
	if !p.Fenced() {
		t.Fatal("Fenced() false after fence callback")
	}
	// Enqueues after fencing are dropped, and Flush reports the fence.
	p.Status("j1", []byte(`{}`))
	if err := p.Flush(context.Background()); !errors.Is(err, ErrFenced) {
		t.Fatalf("Flush after fence: %v, want ErrFenced", err)
	}
	select {
	case err := <-runDone:
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("Run returned %v, want ErrFenced", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit after fencing")
	}
}

// TestSnapshotChunkValidation rejects assemblies that decode but do
// not match the generation the sender named, and assemblies that do
// not decode at all.
func TestSnapshotChunkValidation(t *testing.T) {
	dirB := t.TempDir()
	sb, _, sreg, _ := newStandbyFixture(t, dirB)
	if err := sb.led.Commit(leaseRecord{Epoch: 1, Node: "a"}); err != nil {
		t.Fatal(err)
	}
	h := sb.Handler()

	// Garbage assembly: decode fails, 422, nothing installed.
	w := doReq(t, h, http.MethodPut, "/v1/repl/jobs/j9/snapshot?gen=00000000deadbeef&offset=0&final=1", 1, []byte("not a checkpoint"))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage final chunk: %d, want 422", w.Code)
	}
	if counterValue(sreg, "serve.repl.snapshot_rejects") != 1 {
		t.Fatal("reject counter != 1")
	}
	if _, err := os.Stat(sb.hooks.SnapshotPath("j9")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rejected snapshot was installed")
	}

	// Valid checkpoint bytes sent under the wrong generation name: 422.
	data := testSnapshotBytes(t, filepath.Join(t.TempDir(), "x.ckpt"))
	w = doReq(t, h, http.MethodPut, "/v1/repl/jobs/j9/snapshot?gen=1111111111111111&offset=0&final=1", 1, data)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched gen: %d, want 422", w.Code)
	}

	// Non-zero offset for an unknown generation: 416 with resume hint 0.
	w = doReq(t, h, http.MethodPut, "/v1/repl/jobs/j9/snapshot?gen=2222222222222222&offset=64&final=0", 1, data[:16])
	if w.Code != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("bad offset: %d, want 416", w.Code)
	}
	var msg offsetMsg
	if err := json.Unmarshal(w.Body.Bytes(), &msg); err != nil || msg.Offset != 0 {
		t.Fatalf("resume hint %+v (err %v), want offset 0", msg, err)
	}
}

// TestSnapshotSendRacesWriter streams a job's snapshot while a
// checkpoint.Writer keeps overwriting its slot files in place. Every
// snapshot the standby installs must decode and be byte-identical to
// one of the generations that were saved, never a splice of two.
func TestSnapshotSendRacesWriter(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sb, _, sreg, _ := newStandbyFixture(t, dirB)
	if err := sb.led.Commit(leaseRecord{Epoch: 1, Node: "a"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sb.Handler())
	defer srv.Close()

	snapPath := filepath.Join(dirA, "j1.ckpt")
	p, err := NewPrimary(dirA, Config{
		NodeID:     "a",
		Peer:       srv.URL,
		ChunkBytes: 64, // many chunks per transfer, so saves land mid-stream
		Retry:      testPolicy(),
		Sleep:      noSleep,
	}, obs.New(), func(string) string { return snapPath }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.epoch = 1
	p.leased = true
	p.mu.Unlock()

	var mu sync.Mutex
	saved := map[string]bool{}
	w := checkpoint.NewWriter(snapPath)
	defer w.Close()
	s := &checkpoint.Snapshot{
		Fingerprint: checkpoint.Fingerprint{App: "seg", Backend: "rsu", Seed: 7, Iterations: 1 << 30},
		W:           8, H: 8, M: 3,
		Labels: bytes.Repeat([]byte{0, 1, 2, 1}, 16),
		Counts: make([]uint32, 8*8*3),
	}
	// save records a generation before writing it: a sender may read
	// the complete slot before Save returns.
	save := func(sweep int) error {
		s.Sweep = sweep
		s.Labels[sweep%len(s.Labels)] = uint8(sweep % 3)
		s.Energy = make([]float64, sweep%7) // encodings grow and shrink
		data, err := checkpoint.Encode(s)
		if err != nil {
			return err
		}
		mu.Lock()
		saved[string(data)] = true
		mu.Unlock()
		return w.Save(s)
	}
	if err := save(1); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for sweep := 2; ; sweep++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := save(sweep); err != nil {
				done <- err
				return
			}
		}
	}()

	src := rng.New(1)
	installed := sb.hooks.SnapshotPath("j1")
	for i := 0; i < 20; i++ {
		if err := p.sendSnapshot(context.Background(), src, "j1"); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(installed)
		if errors.Is(err, os.ErrNotExist) {
			continue // this attempt found every slot mid-overwrite
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.Decode(got); err != nil {
			t.Fatalf("send %d: installed snapshot does not decode: %v", i, err)
		}
		mu.Lock()
		ok := saved[string(got)]
		mu.Unlock()
		if !ok {
			t.Fatalf("send %d: installed snapshot is not one of the saved generations", i)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if counterValue(sreg, "serve.repl.snapshots_installed") < 1 {
		t.Fatal("no snapshot was installed")
	}
}
