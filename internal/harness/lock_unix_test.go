//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
)

// The cross-process tests re-exec this test binary as a child: helperEnv
// selects the child's role and helperDirEnv names the shared cache dir.
const (
	helperEnv    = "HARNESS_TEST_HELPER"
	helperDirEnv = "HARNESS_TEST_CACHE"
)

func TestMain(m *testing.M) {
	if role := os.Getenv(helperEnv); role != "" {
		os.Exit(helperMain(role, os.Getenv(helperDirEnv)))
	}
	os.Exit(m.Run())
}

// helperMain is the child process. Every role announces itself with one
// stdout line and then blocks on stdin, which the parent holds open: "run"
// waits there for the parent's go, "hold" until the parent kills it.
func helperMain(role, dir string) int {
	switch role {
	case "run":
		fmt.Println("ready")
		bufio.NewReader(os.Stdin).ReadString('\n')
		r := &Runner{CacheDir: dir}
		if _, err := r.Run(microSpec("FNCC")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		hits, misses := r.Stats()
		fmt.Println(hits, misses, r.Coalesced())
	case "hold":
		if _, err := lockFile(filepath.Join(dir, microSpec("FNCC").Hash()+".lock")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println("locked")
		io.Copy(io.Discard, os.Stdin)
	}
	return 0
}

// startHelper launches a child in role on dir and waits for its one-line
// announcement. The returned reader carries the rest of its stdout; the
// writer is its stdin.
func startHelper(t *testing.T, role, dir, announce string) (*exec.Cmd, *bufio.Reader, io.WriteCloser) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"="+role, helperDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	out := bufio.NewReader(stdout)
	if line, err := out.ReadString('\n'); err != nil || line != announce+"\n" {
		t.Fatalf("%s helper announced %q (%v), want %q", role, line, err, announce)
	}
	return cmd, out, stdin
}

// TestCrossProcessExactlyOnce: Runners sharing one CacheDir — the
// in-process stand-in for server processes on one cache volume — race on
// the same spec and simulate exactly once between them. Each Runner has its
// own singleflight table and opens the lock file itself, so this exercises
// the kernel lock, not the in-memory path. CI stresses it at -count=500
// under -race at GOMAXPROCS 1, 2 and 8.
func TestCrossProcessExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	const racers = 4
	runners := make([]*Runner, racers)
	for i := range runners {
		runners[i] = &Runner{CacheDir: dir}
	}
	var wg sync.WaitGroup
	errs := make([]error, racers)
	results := make([]*scenario.Result, racers)
	for i := range runners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runners[i].Run(microSpec("FNCC"))
		}(i)
	}
	wg.Wait()
	var misses, hits, coalesced int64
	for i, r := range runners {
		if errs[i] != nil {
			t.Fatalf("runner %d: %v", i, errs[i])
		}
		if results[i] == nil || len(results[i].Metrics) == 0 {
			t.Fatalf("runner %d returned an empty result", i)
		}
		h, m := r.Stats()
		hits += h
		misses += m
		coalesced += r.Coalesced()
	}
	if misses != 1 {
		t.Fatalf("total misses = %d, want exactly 1 simulation across all runners", misses)
	}
	if hits+coalesced != racers-1 {
		t.Fatalf("hits=%d coalesced=%d, want them to cover the other %d runners",
			hits, coalesced, racers-1)
	}
}

// TestTwoProcessExactlyOnce is the same property across real processes:
// children of this test binary, released together, race one spec on one
// cache dir and report their Stats; one of them simulated.
func TestTwoProcessExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	const procs = 4
	cmds := make([]*exec.Cmd, procs)
	outs := make([]*bufio.Reader, procs)
	stdins := make([]io.WriteCloser, procs)
	for i := range cmds {
		cmds[i], outs[i], stdins[i] = startHelper(t, "run", dir, "ready")
	}
	for _, in := range stdins {
		io.WriteString(in, "\n")
	}
	var hits, misses, coalesced int64
	for i, out := range outs {
		var h, m, c int64
		if _, err := fmt.Fscan(out, &h, &m, &c); err != nil {
			t.Fatalf("child %d printed no stats: %v", i, err)
		}
		if err := cmds[i].Wait(); err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		hits, misses, coalesced = hits+h, misses+m, coalesced+c
	}
	if misses != 1 || hits+coalesced != procs-1 {
		t.Fatalf("misses=%d hits=%d coalesced=%d across %d processes, want 1 simulation and %d adoptions",
			misses, hits, coalesced, procs, procs-1)
	}
}

// TestKilledLockHolder: a process that dies holding a hash lock (SIGKILL,
// no cleanup of any kind runs) delays the next Runner only until the kernel
// has torn the dead process down — there is no staleness timeout to sit
// out, and no phantom result.
func TestKilledLockHolder(t *testing.T) {
	dir := t.TempDir()
	sp := microSpec("FNCC")
	cmd, _, _ := startHelper(t, "hold", dir, "locked")

	// The child really owns the hash: a non-blocking attempt is refused.
	f, err := os.Open(filepath.Join(dir, sp.Hash()+".lock"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != syscall.EWOULDBLOCK {
		t.Fatalf("lock attempt while the child holds it: %v, want EWOULDBLOCK", err)
	}

	started := time.Now()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{CacheDir: dir}
	res, err := r.Run(sp)
	elapsed := time.Since(started)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := r.Stats(); res.Cached || misses != 1 {
		t.Errorf("cached=%v misses=%d, want a fresh simulation", res.Cached, misses)
	}
	// Typically milliseconds; the bound only has to sit far below the
	// minute a timeout-based protocol would have waited.
	if elapsed > 10*time.Second {
		t.Errorf("Runner took %v behind a killed lock holder", elapsed)
	}
	t.Logf("kill → simulated result in %v", elapsed)
}
