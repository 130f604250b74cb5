package packet

// ECMP path selection (Observation 2 / Fig 5).
//
// A data packet and its ACK carry mirrored 5-tuples: the ACK swaps source
// and destination addresses and ports. FNCC requires both directions to
// traverse the same switches, which the paper achieves with a symmetric
// routing table plus a hash that is invariant under that swap. SymmetricHash
// implements the invariant hash.

// FiveTuple is the ECMP hash input. Proto is fixed (UDP for RoCEv2) but kept
// for fidelity with the hash description in the paper.
type FiveTuple struct {
	SrcAddr, DstAddr int32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the tuple as seen by the reverse-direction packet.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcAddr: ft.DstAddr, DstAddr: ft.SrcAddr,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// Tuple extracts the packet's 5-tuple.
func (p *Packet) Tuple() FiveTuple {
	return FiveTuple{
		SrcAddr: p.Src, DstAddr: p.Dst,
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: 17, // UDP, RoCEv2
	}
}

func mix64(x uint64) uint64 {
	// splitmix64 finalizer: cheap, well-distributed, stateless.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SymmetricHash hashes the 5-tuple such that a tuple and its Reverse()
// produce the same value: the (addr, port) endpoint pairs are combined with
// commutative operations before mixing. With symmetric routing tables, equal
// hashes yield equal paths for data and ACK.
func SymmetricHash(ft FiveTuple) uint64 {
	a := uint64(uint32(ft.SrcAddr))<<16 | uint64(ft.SrcPort)
	b := uint64(uint32(ft.DstAddr))<<16 | uint64(ft.DstPort)
	// Commutative combine: unordered pair {a, b}.
	sum := a + b
	xor := a ^ b
	return mix64(sum<<1 ^ mix64(xor) ^ uint64(ft.Proto))
}
