package chaostest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/rng"
)

// TestMain doubles as the chaos worker: re-executing the test binary
// with CHAOS_MODE=worker runs one checkpointed solve that SIGKILLs
// itself at the sweep boundary named in CHAOS_KILL_SWEEP (-1: run to
// completion and print the result digest).
func TestMain(m *testing.M) {
	if os.Getenv("CHAOS_MODE") == "worker" {
		os.Exit(runWorker())
	}
	os.Exit(m.Run())
}

func runWorker() int {
	backend := os.Getenv("CHAOS_BACKEND")
	workers, _ := strconv.Atoi(os.Getenv("CHAOS_WORKERS"))
	path := os.Getenv("CHAOS_PATH")
	faults := os.Getenv("CHAOS_FAULTS") == "1"
	killSweep, _ := strconv.Atoi(os.Getenv("CHAOS_KILL_SWEEP"))

	spec := &core.CheckpointSpec{Path: path, Resume: true}
	if killSweep >= 0 {
		// Duration-policy checkpoints with an instrumented clock: the
		// clock is read once at chain start and once per sweep boundary
		// (before that boundary's snapshot is written), so pulling the
		// trigger on the right read dies exactly at boundary killSweep —
		// after the boundary killSweep-1 snapshot became durable, before
		// the killSweep one exists.
		start := 0
		if snap, err := checkpoint.Load(path); err == nil {
			start = snap.Sweep
		}
		calls, target := 0, killSweep-start+1
		spec.Every = time.Nanosecond
		spec.Now = func() time.Time {
			calls++
			if calls == target {
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // SIGKILL delivery is asynchronous; never continue past the trigger
			}
			return time.Now()
		}
	} else {
		spec.EverySweeps = 1
	}

	s, err := NewSolver(backend, workers, faults, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		return 1
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		return 1
	}
	fmt.Println(Digest(res))
	return 0
}

// runSubprocess re-executes the test binary as a chaos worker.
func runSubprocess(t *testing.T, backend string, workers int, faults bool, path string, killSweep int) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"CHAOS_MODE=worker",
		"CHAOS_BACKEND="+backend,
		"CHAOS_WORKERS="+strconv.Itoa(workers),
		"CHAOS_PATH="+path,
		"CHAOS_FAULTS="+map[bool]string{false: "0", true: "1"}[faults],
		"CHAOS_KILL_SWEEP="+strconv.Itoa(killSweep),
	)
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err := cmd.Run()
	if err != nil && errOut.Len() > 0 {
		t.Logf("worker stderr: %s", errOut.String())
	}
	return strings.TrimSpace(out.String()), err
}

// killSweeps picks n distinct increasing kill boundaries in
// [2, Iterations-1] from a seeded stream — randomized offsets, but the
// same ones every run so failures reproduce.
func killSweeps(seed uint64, n int) []int {
	src := rng.New(seed)
	perm := src.Perm(Iterations - 2) // values 0..Iterations-3 -> sweeps 2..Iterations-1
	picks := append([]int(nil), perm[:n]...)
	for i := range picks {
		picks[i] += 2
	}
	for i := 1; i < len(picks); i++ { // insertion sort; n is tiny
		for j := i; j > 0 && picks[j-1] > picks[j]; j-- {
			picks[j-1], picks[j] = picks[j], picks[j-1]
		}
	}
	return picks
}

// TestKillAndRecover is the acceptance harness: for every backend at
// W=1 and W=N, a run is SIGKILLed at randomized sweep boundaries,
// resumed from the last durable snapshot after each kill, and the final
// digest must match the uninterrupted golden run byte-for-byte. Between
// kills the snapshot on disk must always load cleanly — the atomic
// writer never exposes a torn file — even with a garbage .tmp sibling
// planted next to it.
func TestKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness skipped in -short")
	}
	scenarios := []struct {
		backend string
		workers int
		faults  bool
	}{
		{"software-gibbs", 1, false},
		{"software-gibbs", 3, false},
		{"first-to-fire", 1, false},
		{"first-to-fire", 3, false},
		{"metropolis", 1, false},
		{"metropolis", 3, false},
		{"rsu", 1, false},
		{"rsu", 3, false},
		{"rsu", 2, true},
	}
	for i, sc := range scenarios {
		sc := sc
		seed := uint64(100 + i)
		name := fmt.Sprintf("%s-w%d", sc.backend, sc.workers)
		if sc.faults {
			name += "-faults"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()

			gs, err := NewSolver(sc.backend, sc.workers, sc.faults, nil)
			if err != nil {
				t.Fatal(err)
			}
			gres, err := gs.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			golden := Digest(gres)

			path := t.TempDir() + "/chain.ckpt"
			for _, kill := range killSweeps(seed, 3) {
				if _, err := runSubprocess(t, sc.backend, sc.workers, sc.faults, path, kill); err == nil {
					t.Fatalf("worker survived its kill at sweep %d", kill)
				} else if ws, ok := exitSignal(err); !ok || ws != syscall.SIGKILL {
					t.Fatalf("worker at kill sweep %d died of %v, want SIGKILL", kill, err)
				}
				// Atomicity: whatever instant the process died at, the
				// snapshot on disk is complete and from boundary kill-1.
				snap, err := checkpoint.Load(path)
				if err != nil {
					t.Fatalf("snapshot unreadable after kill at sweep %d: %v", kill, err)
				}
				if snap.Sweep != kill-1 {
					t.Fatalf("snapshot at sweep %d after kill at %d, want %d", snap.Sweep, kill, kill-1)
				}
				// A stale torn temp file from a hypothetical mid-write
				// death must not confuse the next resume or Save.
				if err := os.WriteFile(path+".tmp", []byte("torn garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
				// Nor must a torn in-place overwrite of the older slot,
				// the one the next save would have written.
				for _, slot := range []string{path, path + ".1"} {
					data, err := os.ReadFile(slot)
					if err != nil {
						continue
					}
					if s, err := checkpoint.Decode(data); err == nil && s.Sweep != snap.Sweep {
						copy(data[len(data)/2:], "torn garbage")
						if err := os.WriteFile(slot, data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			digest, err := runSubprocess(t, sc.backend, sc.workers, sc.faults, path, -1)
			if err != nil {
				t.Fatalf("final recovery run failed: %v", err)
			}
			if digest != golden {
				t.Fatalf("recovered digest %s != golden %s", digest, golden)
			}
		})
	}
}

// exitSignal extracts the terminating signal from an exec error.
func exitSignal(err error) (syscall.Signal, bool) {
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		return 0, false
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() {
		return 0, false
	}
	return ws.Signal(), true
}

// TestWorkerCountInvariantGolden: the golden digests at W=1 and W=3
// agree — the property that lets a snapshot taken at one worker count
// resume at another.
func TestWorkerCountInvariantGolden(t *testing.T) {
	digests := make([]string, 2)
	for i, w := range []int{1, 3} {
		s, err := NewSolver("software-gibbs", w, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = Digest(res)
	}
	if digests[0] != digests[1] {
		t.Fatalf("golden digests differ across worker counts: %s vs %s", digests[0], digests[1])
	}
}
