package exp

import "testing"

func TestRunIncastLHCSWins(t *testing.T) {
	run := func(scheme string) *IncastResult {
		cfg := DefaultIncastConfig(scheme)
		cfg.Fanout = 8
		cfg.BytesPerSender = 512 << 10
		r, err := RunIncast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.AllDoneAt < 0 {
			t.Fatalf("%s: incast did not complete", scheme)
		}
		return r
	}
	on := run(SchemeFNCC)
	off := run(SchemeFNCCNoLHCS)
	hpcc := run(SchemeHPCC)

	if on.LHCSTriggers == 0 {
		t.Fatal("LHCS never fired during last-hop incast")
	}
	if off.LHCSTriggers != 0 || hpcc.LHCSTriggers != 0 {
		t.Fatal("LHCS counter leaked into non-LHCS schemes")
	}
	if on.QueuePeak >= off.QueuePeak {
		t.Errorf("LHCS peak %d !< no-LHCS %d", on.QueuePeak, off.QueuePeak)
	}
	if on.QueuePeak >= hpcc.QueuePeak {
		t.Errorf("FNCC peak %d !< HPCC %d", on.QueuePeak, hpcc.QueuePeak)
	}
	// LHCS assigns the fair window directly: its worst-case rate fairness
	// while all senders are active must beat the step-down schemes'.
	if on.JainFinalRates <= off.JainFinalRates {
		t.Errorf("LHCS jain %.3f !> no-LHCS %.3f", on.JainFinalRates, off.JainFinalRates)
	}
}

func TestRunIncastValidation(t *testing.T) {
	cfg := DefaultIncastConfig(SchemeFNCC)
	cfg.Fanout = 1
	if _, err := RunIncast(cfg); err == nil {
		t.Fatal("accepted fanout 1")
	}
	cfg = DefaultIncastConfig("nope")
	if _, err := RunIncast(cfg); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

func TestExtensionsInRegistry(t *testing.T) {
	for _, name := range []string{SchemeTimely, SchemeSwift, SchemeExpressPass} {
		s, err := NewScheme(name)
		if err != nil || s.Name != name {
			t.Fatalf("%s registry: %v", name, err)
		}
	}
	names := []string{SchemeSwift, SchemeTimely, SchemeExpressPass, SchemeFNCC}
	SortSchemes(names)
	if names[0] != SchemeFNCC {
		t.Fatal("extensions should sort after the paper schemes")
	}
}

func TestExpressPassEndToEnd(t *testing.T) {
	// The receiver-driven extension through the harness: a small incast
	// where credit pacing keeps the last-hop queue near-empty.
	cfg := DefaultIncastConfig(SchemeExpressPass)
	cfg.Fanout = 8
	cfg.BytesPerSender = 256 << 10
	r, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllDoneAt < 0 {
		t.Fatal("credit incast incomplete")
	}
	if r.PauseFrames != 0 {
		t.Fatalf("credit pacing triggered %d pauses", r.PauseFrames)
	}
	// Compare against FNCC's window burst: ExpressPass should hold a much
	// smaller peak (it never lets a BDP-sized burst leave the senders).
	fn, err := RunIncast(IncastConfig{
		Scheme: SchemeFNCC, Fanout: 8, BytesPerSender: 256 << 10,
		RateBps: 100e9, Deadline: cfg.Deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.QueuePeak >= fn.QueuePeak {
		t.Fatalf("credit peak %d !< window-burst peak %d", r.QueuePeak, fn.QueuePeak)
	}
}
