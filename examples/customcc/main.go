// Custom congestion control: how to plug your own scheme into the
// substrate. We implement "AIMD-ECN" — a deliberately naive TCP-flavoured
// window algorithm (halve on ECN echo, grow one MTU per RTT) reusing
// DCQCN's switch-side WRED marking — then race it against FNCC on the
// dumbbell.
//
// The three interfaces a scheme implements (see internal/netsim):
//
//	SenderCC   — per-flow window/rate decisions at the sending NIC
//	             (OnAck, WindowBytes, RateBps)
//	ReceiverCC — what the receiver writes into ACKs (FillAck)
//	SwitchHook — what switches do to transiting packets
//
// A scheme that reacts to another signal implements its optional extension
// as well: CnpSink/CnpPacer for CNPs (DCQCN), CreditSink/CreditPacer for
// receiver credits (ExpressPass), Observable for telemetry. AIMD-ECN needs
// none of them.
//
// Run: go run ./examples/customcc
package main

import (
	"fmt"

	fncc "repro"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

// aimd is the SenderCC: window halving on marked ACKs, +1 MTU per RTT
// otherwise, rate = W/RTT.
type aimd struct {
	w       float64
	minW    float64
	rtt     sim.Time
	lastCut sim.Time
}

func newAIMD(f *netsim.Flow) netsim.SenderCC {
	rtt := f.SrcHost.Net().Cfg.BaseRTT
	bdp := float64(f.SrcHost.Port().RateBps()) / 8 * rtt.Seconds()
	return &aimd{w: bdp, minW: 1518, rtt: rtt}
}

func (a *aimd) WindowBytes() int64 { return int64(a.w) }
func (a *aimd) RateBps() int64     { return int64(a.w * 8 / a.rtt.Seconds()) }

func (a *aimd) OnAck(f *netsim.Flow, ack *packet.Packet, now sim.Time) {
	if ack.AckedECN {
		// Halve at most once per RTT, like TCP's congestion-event rule.
		if now-a.lastCut >= a.rtt {
			a.w /= 2
			if a.w < a.minW {
				a.w = a.minW
			}
			a.lastCut = now
		}
		return
	}
	// Additive increase, amortized per ACK: +MTU per window's worth.
	a.w += 1518 * 1452 / a.w * 4
}

// echoECN is the ReceiverCC: echo the ECN mark back on the ACK.
type echoECN struct{}

func (echoECN) FillAck(ack, data *packet.Packet, _ *netsim.Host) {
	ack.AckedECN = data.ECN
}

// mark is the SwitchHook: threshold ECN marking at 100KB.
type mark struct{}

func (mark) OnEnqueue(sw *netsim.Switch, pkt *packet.Packet, out int) {
	if pkt.Type == packet.Data && sw.PortAt(out).QueueBytes() > 100<<10 {
		pkt.ECN = true
	}
}
func (mark) OnDequeue(*netsim.Switch, *packet.Packet, int) {}

func run(scheme netsim.Scheme) (peakKB float64, util float64, firstSlow fncc.Time) {
	c := topo.MustChain(fncc.DefaultNetConfig(), scheme, fncc.DefaultChainOpts(2))
	f0 := c.AddFlow(1, 0, 1<<40, 0)
	c.AddFlow(2, 1, 1<<40, 300*fncc.Microsecond)
	port := c.BottleneckPort()
	var maxQ int64
	var lastTx uint64
	var utilSum float64
	var n int
	firstSlow = -1
	stop := c.Net.Eng.Ticker(fncc.Microsecond, func() {
		if q := port.QueueBytes(); q > maxQ {
			maxQ = q
		}
		tx := port.TxBytes()
		if c.Net.Eng.Now() > 300*fncc.Microsecond {
			utilSum += float64(tx-lastTx) * 8 / (100e9 * fncc.Microsecond.Seconds())
			n++
			if firstSlow < 0 && float64(f0.CC().RateBps()) < 85e9 {
				firstSlow = c.Net.Eng.Now()
			}
		}
		lastTx = tx
	})
	c.Net.RunUntil(900 * fncc.Microsecond)
	stop()
	return float64(maxQ) / 1000, utilSum / float64(n), firstSlow
}

func main() {
	custom := netsim.Scheme{
		Name:          "AIMD-ECN",
		NewSenderCC:   newAIMD,
		Receiver:      echoECN{},
		NewSwitchHook: func(*netsim.Switch) netsim.SwitchHook { return mark{} },
	}
	fmt.Printf("%-10s %12s %10s %14s\n", "scheme", "queue peak", "util", "1st slowdown")
	for _, s := range []netsim.Scheme{custom, fncc.MustScheme(fncc.SchemeFNCC)} {
		peak, util, slow := run(s)
		fmt.Printf("%-10s %10.1fKB %9.1f%% %14v\n", s.Name, peak, 100*util, slow)
	}
	fmt.Println("\nThe naive AIMD waits a full RTT for its ECN echo and halves blindly;")
	fmt.Println("FNCC's sub-RTT INT keeps both the queue and the rate dip smaller.")
}
