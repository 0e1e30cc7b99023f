package workload

import (
	"hash/fnv"

	"falcon/internal/overlay"
	"falcon/internal/pcap"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
)

// Pcap replay turns a capture into an open-loop workload: every trace
// record becomes one send at its (time-warped) capture offset, with the
// trace's 5-tuples hashed onto a fixed set of testbed flows. The replay
// is a pure function of the records and the config — no RNG — so it is
// trivially seed-stable, and every send is a plain timed event on the
// client, so it is shard-invariant by the same argument as the
// fixed-rate generators: the schedule never consults datapath state.

// ReplayConfig maps a capture onto the testbed.
type ReplayConfig struct {
	Records []pcap.Record
	// Warp scales trace pacing: gaps between records are divided by
	// Warp, so Warp 2 replays twice as fast as captured. <= 0 means 1.
	Warp float64
	// Start is the sim time of the first record's send.
	Start sim.Time
	// Flows is how many testbed flow slots trace 5-tuples hash onto
	// (each slot is one flow identity + destination port).
	Flows    int
	BasePort uint16
	// SendCores are the client cores slots rotate over; AppCore pins
	// the receiving sockets.
	SendCores []int
	AppCore   int
	// Ctr selects the overlay container pair (1-based); 0 replays over
	// the host network.
	Ctr int
	// BaseFlowID offsets the slots' flow IDs.
	BaseFlowID uint64
	// SizeCap clamps per-packet payload bytes (traces can carry jumbo
	// frames the testbed flow would fragment).
	SizeCap int
}

func (cfg ReplayConfig) withDefaults() ReplayConfig {
	if cfg.Warp <= 0 {
		cfg.Warp = 1
	}
	if cfg.Flows == 0 {
		cfg.Flows = 8
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 6200
	}
	if len(cfg.SendCores) == 0 {
		cfg.SendCores = []int{2}
	}
	if cfg.BaseFlowID == 0 {
		cfg.BaseFlowID = 20_000
	}
	if cfg.SizeCap == 0 {
		cfg.SizeCap = 1472
	}
	return cfg
}

// Replay is a scheduled trace replay.
type Replay struct {
	// Socks are the receiving sockets, one per flow slot.
	Socks []*socket.Socket
	// Scheduled counts trace records mapped to sends; Skipped counts
	// records dropped because they did not parse as IPv4 UDP/TCP.
	Scheduled uint64
	Skipped   uint64

	sent uint64
}

// Sent returns how many replayed packets have been handed to the stack.
func (rp *Replay) Sent() uint64 { return rp.sent }

// replaySlot is one testbed flow identity trace tuples collapse onto.
type replaySlot struct {
	srcPort, dstPort uint16
	core             int
	flowID           uint64
	seq              uint64
}

// StartReplay opens the slots' sockets and schedules every record's
// send. The first record anchors the time base: record i goes out at
// Start + (T_i - T_0)/Warp.
func (tb *Testbed) StartReplay(cfg ReplayConfig) *Replay {
	cfg = cfg.withDefaults()
	rp := &Replay{}
	dst := ServerIP
	var from *overlay.Container
	if cfg.Ctr > 0 {
		from = tb.ClientCtrs[cfg.Ctr-1]
		dst = tb.ServerCtrs[cfg.Ctr-1].IP
	}
	slots := make([]*replaySlot, cfg.Flows)
	for i := range slots {
		slots[i] = &replaySlot{
			srcPort: uint16(21_000 + i),
			dstPort: cfg.BasePort + uint16(i),
			core:    cfg.SendCores[i%len(cfg.SendCores)],
			flowID:  cfg.BaseFlowID + uint64(i),
		}
		rp.Socks = append(rp.Socks, tb.Server.OpenUDP(dst, slots[i].dstPort, cfg.AppCore))
	}
	var t0 sim.Time
	for _, rec := range cfg.Records {
		f, err := proto.ParseFrame(rec.Frame)
		if err != nil || f.IP.FragOff != 0 {
			rp.Skipped++
			continue
		}
		size := f.PayloadLen()
		if size < 1 {
			size = 1
		}
		if size > cfg.SizeCap {
			size = cfg.SizeCap
		}
		if rp.Scheduled == 0 {
			t0 = rec.T
		}
		at := cfg.Start + sim.Time(float64(rec.T-t0)/cfg.Warp)
		slot := slots[tupleHash(f)%uint64(len(slots))]
		sz := size
		rp.Scheduled++
		tb.Client.E.At(at, func() {
			slot.seq++
			rp.sent++
			tb.Client.SendUDP(overlay.SendParams{
				From: from, SrcPort: slot.srcPort, DstIP: dst, DstPort: slot.dstPort,
				Payload: sz, Core: slot.core, FlowID: slot.flowID, Seq: slot.seq,
			})
		})
	}
	return rp
}

// tupleHash collapses a parsed frame's 5-tuple deterministically.
func tupleHash(f proto.Frame) uint64 {
	h := fnv.New64a()
	var b [13]byte
	src, dst := uint32(f.IP.Src), uint32(f.IP.Dst)
	b[0], b[1], b[2], b[3] = byte(src>>24), byte(src>>16), byte(src>>8), byte(src)
	b[4], b[5], b[6], b[7] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	sp, dp := f.SrcPort(), f.DstPort()
	b[8], b[9] = byte(sp>>8), byte(sp)
	b[10], b[11] = byte(dp>>8), byte(dp)
	b[12] = f.IP.Protocol
	_, _ = h.Write(b[:])
	return h.Sum64()
}
