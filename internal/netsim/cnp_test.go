package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// markAll is a SwitchHook that ECN-marks every data frame it forwards.
type markAll struct{}

func (markAll) OnEnqueue(_ *Switch, pkt *packet.Packet, _ int) {
	if pkt.Type == packet.Data {
		pkt.ECN = true
	}
}
func (markAll) OnDequeue(*Switch, *packet.Packet, int) {}

// cnpPerMark is a CnpPacer that answers every ECN mark with a CNP.
type cnpPerMark struct{ echoReceiver }

func (cnpPerMark) WantCnp(*packet.Packet, *Host, sim.Time) bool { return true }

// cnpCounter is a fixedCC that is also a CnpSink, counting the CNPs it gets.
type cnpCounter struct {
	fixedCC
	cnps int64
}

func (c *cnpCounter) OnCnp(*Flow, sim.Time) { c.cnps++ }

// TestCnpExtensionsAreOptional: the host asks a receiver about a CNP only if
// it is a CnpPacer, and hands a CNP to a sender only if it is a CnpSink. With
// every data frame ECN-marked, a receiver without the extension sends no
// CNP. A sender without it still counts each CNP in CnpRx and otherwise runs
// as if none came.
func TestCnpExtensionsAreOptional(t *testing.T) {
	cfg := DefaultConfig()
	run := func(recv ReceiverCC, cc SenderCC) (cnps int64, fct sim.Time) {
		t.Helper()
		sch := Scheme{Name: "marked", Receiver: recv,
			NewSenderCC:   func(*Flow) SenderCC { return cc },
			NewSwitchHook: func(*Switch) SwitchHook { return markAll{} }}
		n, senders, dst, _ := chain(t, cfg, sch, 1, 2, gbps100)
		f := n.AddFlow(1, senders[0], dst, int64(50*cfg.PayloadBytes()), 0)
		n.RunUntil(sim.Millisecond)
		if !f.Done() {
			t.Fatal("flow did not complete")
		}
		return senders[0].CnpRx(), f.FinishedAt
	}
	plain := func() SenderCC { return &fixedCC{rate: gbps100, window: 1 << 40} }

	none, fct := run(echoReceiver{}, plain())
	if none != 0 {
		t.Errorf("a receiver without CnpPacer sent %d CNPs, want 0", none)
	}
	cnps, fctCnp := run(cnpPerMark{}, plain())
	if cnps == 0 {
		t.Fatal("a CnpPacer that wants every mark sent no CNP")
	}
	if fctCnp != fct {
		t.Errorf("CNPs to a sender without CnpSink moved the FCT: %v, without CNPs %v", fctCnp, fct)
	}
	sink := &cnpCounter{fixedCC: fixedCC{rate: gbps100, window: 1 << 40}}
	if got, _ := run(cnpPerMark{}, sink); got != cnps || sink.cnps != got {
		t.Errorf("a CnpSink took %d of %d CNPs (%d to a sender without it)", sink.cnps, got, cnps)
	}
}
