package netsim_test

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFramesComeBackWhole drains a k=4 fat-tree FCT run under the two
// schemes that stamp INT — FNCC on ACKs, HPCC on data — serially and on two
// window workers, and checks what the shard pools hold afterwards: every
// frame handed out came back (Gets == Puts over the shards), every free
// frame's INT stack is empty or exactly PathHops (a stack carved from a hop
// chunk, never one grown past it), an AddHop past a carved stack's capacity
// leaves every other stack untouched, and a second Put of a carved frame
// still panics. The frame itself stays 128 bytes on a 64-bit word, 96 on a
// 32-bit one.
func TestFramesComeBackWhole(t *testing.T) {
	want := uintptr(128)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want = 96
	}
	if size := unsafe.Sizeof(packet.Packet{}); size != want {
		t.Fatalf("packet.Packet is %d bytes, want %d", size, want)
	}
	for _, sch := range []netsim.Scheme{core.NewScheme(core.DefaultConfig()), cc.NewHPCCScheme(cc.DefaultHPCCConfig())} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", sch.Name, workers), func(t *testing.T) {
				ft := topo.MustFatTree(netsim.DefaultConfig(), sch, topo.FatTreeOpts{
					K: 4, RateBps: 100e9, Delay: 1500 * sim.Nanosecond, Workers: workers})
				hosts := len(ft.Hosts)
				sizes := []int64{3_000, 40_000, 300_000, 1_000_000}
				for i := 0; i < 64; i++ {
					src, dst := i%hosts, (i*5+3)%hosts
					if src == dst {
						dst = (dst + 1) % hosts
					}
					ft.AddFlow(uint64(i+1), src, dst, sizes[i%len(sizes)], sim.Time(i)*sim.Microsecond)
				}
				net := ft.Net
				if !net.RunToCompletion(sim.Second) {
					t.Fatal("flows did not complete")
				}
				// The last ACKs are still on the wire when the last flow
				// completes at its receiver.
				net.RunUntil(net.Eng.Now() + sim.Millisecond)
				if st := net.TotalPoolStats(); st.Gets == 0 || st.Gets != st.Puts {
					t.Fatalf("pool stats %+v: want Gets == Puts after the drain", st)
				}

				pools := []*packet.Pool{net.Pool} // an unpartitioned network's one shard
				if shards := net.Shards(); shards != nil {
					pools = pools[:0]
					for _, sh := range shards {
						pools = append(pools, sh.Pool())
					}
				}
				var stamped []*packet.Packet
				for _, pool := range pools {
					free := make([]*packet.Packet, pool.Free())
					for i := range free {
						free[i] = pool.Get()
						if c := cap(free[i].Hops); c != 0 && c != net.PathHops() {
							t.Fatalf("a free frame's INT stack has capacity %d, want 0 or %d", c, net.PathHops())
						}
						if cap(free[i].Hops) > 0 {
							stamped = append(stamped, free[i])
						}
					}
				}
				if len(stamped) < 2 {
					t.Fatalf("%d free frames carry an INT stack, want several", len(stamped))
				}

				over := stamped[0]
				for i := 0; i <= net.PathHops(); i++ {
					over.AddHop(packet.IntHop{SwitchID: 99, QLen: 99})
				}
				for _, pkt := range stamped[1:] {
					for _, h := range pkt.Hops[:cap(pkt.Hops)] {
						if h != (packet.IntHop{}) {
							t.Fatalf("an AddHop past a carved stack wrote into another: %+v", h)
						}
					}
				}

				net.Pool.Put(stamped[1])
				defer func() {
					if recover() == nil {
						t.Error("a second Put of a carved frame did not panic")
					}
				}()
				net.Pool.Put(stamped[1])
			})
		}
	}
}
