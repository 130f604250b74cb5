package sweepd

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// TestDrainTwiceWaits: a second Drain, called while the first is still
// waiting for an in-flight job, returns only once the pool is idle — it
// never reports a drained server that is still running a point.
func TestDrainTwiceWaits(t *testing.T) {
	srv, err := New(Config{Runner: &harness.Runner{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := srv.Submit([]scenario.Spec{slowSpec("FNCC"), slowSpec("HPCC"), slowSpec("DCQCN")})
	if err != nil {
		t.Fatal(err)
	}
	for sw.status().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	first := make(chan error, 1)
	go func() { first <- srv.Drain(0) }()
	for {
		srv.mu.Lock()
		draining := srv.draining
		srv.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(0); err != nil {
		t.Fatal(err)
	}
	if st := sw.status(); st.Running != 0 || !st.Finished || !st.Interrupted {
		t.Errorf("status after the second Drain = %+v, want finished, interrupted, nothing running", st)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
