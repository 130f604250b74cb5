package packet

import "testing"

func BenchmarkSymmetricHash(b *testing.B) {
	ft := FiveTuple{SrcAddr: 12, DstAddr: 99, SrcPort: 4791, DstPort: 1021, Proto: 17}
	var x uint64
	for i := 0; i < b.N; i++ {
		ft.SrcPort = uint16(i)
		x ^= SymmetricHash(ft)
	}
	_ = x
}

func BenchmarkAsymmetricHash(b *testing.B) {
	ft := FiveTuple{SrcAddr: 12, DstAddr: 99, SrcPort: 4791, DstPort: 1021, Proto: 17}
	var x uint64
	for i := 0; i < b.N; i++ {
		ft.SrcPort = uint16(i)
		x ^= AsymmetricHash(ft)
	}
	_ = x
}

func BenchmarkAddHopAndSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := Packet{Type: Ack}
		for h := 0; h < 5; h++ {
			p.AddHop(IntHop{SwitchID: int32(h), B: 100e9})
		}
		if p.SizeBytes() == 0 {
			b.Fatal("size")
		}
	}
}
