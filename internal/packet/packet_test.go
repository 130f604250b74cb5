package packet

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSizeBytes(t *testing.T) {
	cases := []struct {
		name string
		p    Packet
		want int
	}{
		{"full data", Packet{Type: Data, PayloadBytes: 1452}, DataHeaderBytes + 1452},
		{"data with 3 INT", Packet{Type: Data, PayloadBytes: 1000, Hops: make([]IntHop, 3)}, DataHeaderBytes + 1000 + 24},
		{"bare ack", Packet{Type: Ack}, AckBaseBytes},
		{"ack with 3 INT", Packet{Type: Ack, Hops: make([]IntHop, 3)}, AckBaseBytes + 24},
		{"nack", Packet{Type: Nack}, AckBaseBytes},
		{"cnp", Packet{Type: Cnp}, CnpBytes},
		{"pause", Packet{Type: PfcPause}, PfcFrameBytes},
		{"resume", Packet{Type: PfcResume}, PfcFrameBytes},
	}
	for _, c := range cases {
		if got := c.p.SizeBytes(); got != c.want {
			t.Errorf("%s: SizeBytes = %d want %d", c.name, got, c.want)
		}
	}
}

func TestAckSmallerThanData(t *testing.T) {
	// Observation 3: ACKs are a few dozen bytes, data up to MTU. Even with a
	// full complement of INT hops the ACK must stay far below the MTU.
	ack := Packet{Type: Ack, Hops: make([]IntHop, 5)}
	if ack.SizeBytes() >= 150 {
		t.Fatalf("ACK with 5 hops is %dB, should be ~100B", ack.SizeBytes())
	}
}

func TestAddHopBound(t *testing.T) {
	p := Packet{Type: Ack}
	for i := 0; i < MaxIntHops; i++ {
		p.AddHop(IntHop{SwitchID: int32(i)})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic past MaxIntHops")
		}
	}()
	p.AddHop(IntHop{})
}

func TestPathID(t *testing.T) {
	p := Packet{Type: Ack}
	p.AddHop(IntHop{SwitchID: 0x3})
	p.AddHop(IntHop{SwitchID: 0x5})
	if got := p.PathID(); got != 0x6 {
		t.Fatalf("PathID = %#x want 0x6", got)
	}
	// XOR is order-invariant: same switches, other direction, same ID.
	q := Packet{Type: Ack}
	q.AddHop(IntHop{SwitchID: 0x5})
	q.AddHop(IntHop{SwitchID: 0x3})
	if p.PathID() != q.PathID() {
		t.Fatal("PathID depends on hop order")
	}
}

func TestLastHopOrdering(t *testing.T) {
	h0 := IntHop{SwitchID: 0} // first hop from sender
	h1 := IntHop{SwitchID: 1}
	h2 := IntHop{SwitchID: 2} // last hop before receiver

	hpcc := Packet{Type: Ack, Ordering: SenderToReceiver, Hops: []IntHop{h0, h1, h2}}
	fncc := Packet{Type: Ack, Ordering: ReceiverToSender, Hops: []IntHop{h2, h1, h0}}

	lh, ok := hpcc.LastHop()
	if !ok || lh.SwitchID != 2 {
		t.Fatalf("hpcc LastHop = %+v", lh)
	}
	lf, ok := fncc.LastHop()
	if !ok || lf.SwitchID != 2 {
		t.Fatalf("fncc LastHop = %+v", lf)
	}
	for i := 0; i < 3; i++ {
		if hpcc.HopAtDistanceFromSender(i).SwitchID != int32(i) {
			t.Fatalf("hpcc hop %d mismatch", i)
		}
		if fncc.HopAtDistanceFromSender(i).SwitchID != int32(i) {
			t.Fatalf("fncc hop %d mismatch", i)
		}
	}
}

func TestLastHopEmpty(t *testing.T) {
	p := Packet{Type: Ack}
	if _, ok := p.LastHop(); ok {
		t.Fatal("LastHop ok on empty hops")
	}
}

func TestClone(t *testing.T) {
	p := &Packet{Type: Ack, FlowID: 9, Hops: []IntHop{{SwitchID: 1}}}
	q := p.Clone()
	q.Hops[0].SwitchID = 42
	q.FlowID = 10
	if p.Hops[0].SwitchID != 1 || p.FlowID != 9 {
		t.Fatal("Clone shares state with original")
	}
}

func TestTypeString(t *testing.T) {
	if Data.String() != "DATA" || PfcPause.String() != "PAUSE" {
		t.Fatal("Type.String mismatch")
	}
	if !PfcPause.IsControl() || !PfcResume.IsControl() || Data.IsControl() {
		t.Fatal("IsControl wrong")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

func TestIntHopFields(t *testing.T) {
	h := IntHop{B: 100e9, TS: 5 * sim.Microsecond, TxBytes: 123456, QLen: 789}
	if h.B != 100e9 || h.TS != 5*sim.Microsecond || h.TxBytes != 123456 || h.QLen != 789 {
		t.Fatal("IntHop field roundtrip failed")
	}
}

func TestSymmetricHashInvariance(t *testing.T) {
	ft := FiveTuple{SrcAddr: 12, DstAddr: 99, SrcPort: 4791, DstPort: 1021, Proto: 17}
	if SymmetricHash(ft) != SymmetricHash(ft.Reverse()) {
		t.Fatal("SymmetricHash not symmetric")
	}
}

// Property: symmetric hash is invariant under Reverse for all tuples.
func TestQuickSymmetricHash(t *testing.T) {
	f := func(sa, da int32, sp, dp uint16) bool {
		ft := FiveTuple{SrcAddr: sa, DstAddr: da, SrcPort: sp, DstPort: dp, Proto: 17}
		return SymmetricHash(ft) == SymmetricHash(ft.Reverse())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct flows rarely collide (sanity of distribution): over
// random tuples, the low 3 bits of the hash should hit all 8 buckets.
func TestHashBucketCoverage(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 4096; i++ {
		ft := FiveTuple{
			SrcAddr: int32(i * 7), DstAddr: int32(i*13 + 1),
			SrcPort: uint16(i * 31), DstPort: uint16(i*17 + 3), Proto: 17,
		}
		seen[SymmetricHash(ft)%8]++
	}
	for b := uint64(0); b < 8; b++ {
		if seen[b] < 256 {
			t.Fatalf("bucket %d underpopulated: %d/4096", b, seen[b])
		}
	}
}

func TestTupleFromPacket(t *testing.T) {
	p := Packet{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20}
	ft := p.Tuple()
	if ft.SrcAddr != 1 || ft.DstAddr != 2 || ft.SrcPort != 10 || ft.DstPort != 20 || ft.Proto != 17 {
		t.Fatalf("Tuple = %+v", ft)
	}
}

func TestSizeBytesPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := Packet{Type: Type(77)}
	p.SizeBytes()
}
