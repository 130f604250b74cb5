package telemetry

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestFlightRecorderRingEviction(t *testing.T) {
	r := &flightRecorder{limit: 4}
	for i := 0; i < 3; i++ {
		r.observe(netsim.TraceEvent{At: sim.Time(i)})
	}
	if got := r.inOrder(); len(got) != 3 || got[0].At != 0 || got[2].At != 2 {
		t.Fatalf("before wrapping: %+v", got)
	}
	for i := 3; i < 10; i++ {
		r.observe(netsim.TraceEvent{At: sim.Time(i)})
	}
	if r.total != 10 {
		t.Fatalf("total %d, want 10 (evicted events still count)", r.total)
	}
	got := r.inOrder()
	if len(got) != 4 {
		t.Fatalf("ring kept %d, want 4", len(got))
	}
	for i, ev := range got {
		if want := sim.Time(6 + i); ev.At != want {
			t.Fatalf("slot %d holds event %d, want %d (newest four, oldest first)", i, ev.At, want)
		}
	}
}
