package memsys

import "fmt"

// Params holds the machine configuration: node count, cache geometry, and
// the Table 1 latency/occupancy parameters (cycles at 1 GHz).
type Params struct {
	Nodes int // number of CMP nodes (each with two processors)

	LineSize int // cache line size, bytes (power of two)

	L1Size  int   // per-processor L1 data cache, bytes
	L1Assoc int   // L1 associativity
	L1Hit   int64 // L1 hit latency, cycles
	L2Size  int   // per-node shared unified L2, bytes
	L2Assoc int   // L2 associativity
	L2Hit   int64 // L2 hit latency, cycles
	L2Occ   int64 // L2 port occupancy per access (contention between the two processors)

	BusTime        int64 // transit, L2 to directory controller (DC)
	PILocalDCTime  int64 // occupancy of DC on local miss
	PIRemoteDCTime int64 // occupancy of local DC on outgoing miss
	NIRemoteDCTime int64 // occupancy of local DC on incoming reply
	NILocalDCTime  int64 // occupancy of remote DC on remote miss
	NetTime        int64 // transit, interconnection network
	MemTime        int64 // latency, DC to local memory

	NIPortOcc int64 // NI in/out port occupancy per message (queuing only)
	InvalOcc  int64 // DC serialization per invalidation sent
	SIRate    int64 // cycles between successive self-invalidation actions

	// DCBanks is the number of independently occupied directory-controller
	// banks per node (interleaved by line). Table 1 describes a single
	// occupancy, so the paper-faithful default is 1; higher values model a
	// banked hub as a sensitivity study.
	DCBanks int
}

// DefaultParams returns the Table 1 configuration for n nodes: 32 KB 2-way
// L1 with 1-cycle hits, 1 MB 4-way L2 with 10-cycle hits, and the Origin
// 3000-like latency set (170-cycle local miss, 290-cycle remote miss,
// unloaded).
func DefaultParams(n int) Params {
	return Params{
		Nodes:          n,
		LineSize:       64,
		L1Size:         32 << 10,
		L1Assoc:        2,
		L1Hit:          1,
		L2Size:         1 << 20,
		L2Assoc:        4,
		L2Hit:          10,
		L2Occ:          4,
		BusTime:        30,
		PILocalDCTime:  60,
		PIRemoteDCTime: 10,
		NIRemoteDCTime: 10,
		NILocalDCTime:  60,
		NetTime:        50,
		MemTime:        50,
		NIPortOcc:      8,
		InvalOcc:       10,
		SIRate:         4,
		DCBanks:        1,
	}
}

// Upper bounds on a machine. A spec arrives over the wire, so Validate
// keeps what one run allocates and the times it adds up bounded.
const (
	maxLineSize  = 4096    // bytes
	maxCacheSize = 1 << 30 // bytes, each of L1Size and L2Size
	// maxFrames bounds the cache frames of the whole machine, two L1s and
	// one L2 per node: 128 MiB of 32-byte frames. Table 1 at 64 nodes
	// has 1,114,112.
	maxFrames = 1 << 22
	// maxLatency bounds each latency, occupancy and SIRate in cycles, so
	// that no sum of them along a transaction overflows int64.
	maxLatency = 1 << 32
)

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Nodes < 1 || p.Nodes > 64:
		return fmt.Errorf("memsys: Nodes = %d, want 1..64", p.Nodes)
	case p.LineSize < WordSize || p.LineSize > maxLineSize || p.LineSize&(p.LineSize-1) != 0:
		return fmt.Errorf("memsys: LineSize = %d, want power of two in %d..%d", p.LineSize, WordSize, maxLineSize)
	case p.L1Size > maxCacheSize:
		return fmt.Errorf("memsys: L1Size = %d, want <= %d", p.L1Size, maxCacheSize)
	case p.L2Size > maxCacheSize:
		return fmt.Errorf("memsys: L2Size = %d, want <= %d", p.L2Size, maxCacheSize)
	// Dividing, not multiplying, so that a huge associativity cannot
	// overflow past the check.
	case p.L1Assoc < 1 || p.L1Size/p.LineSize < p.L1Assoc:
		return fmt.Errorf("memsys: bad L1 geometry (%d bytes, %d-way)", p.L1Size, p.L1Assoc)
	case p.L2Assoc < 1 || p.L2Size/p.LineSize < p.L2Assoc:
		return fmt.Errorf("memsys: bad L2 geometry (%d bytes, %d-way)", p.L2Size, p.L2Assoc)
	case p.SIRate < 1 || p.SIRate > maxLatency:
		return fmt.Errorf("memsys: SIRate = %d, want 1..%d", p.SIRate, maxLatency)
	case p.DCBanks < 1 || p.DCBanks > 16:
		return fmt.Errorf("memsys: DCBanks = %d, want 1..16", p.DCBanks)
	}
	if frames := p.Nodes * (2*p.L1Size + p.L2Size) / p.LineSize; frames > maxFrames {
		return fmt.Errorf("memsys: %d nodes of %d-byte L1s and %d-byte L2s hold %d cache frames, want <= %d",
			p.Nodes, p.L1Size, p.L2Size, frames, maxFrames)
	}
	// A negative latency or occupancy would schedule an event in the past.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"L1Hit", p.L1Hit}, {"L2Hit", p.L2Hit}, {"L2Occ", p.L2Occ},
		{"BusTime", p.BusTime}, {"PILocalDCTime", p.PILocalDCTime},
		{"PIRemoteDCTime", p.PIRemoteDCTime}, {"NIRemoteDCTime", p.NIRemoteDCTime},
		{"NILocalDCTime", p.NILocalDCTime}, {"NetTime", p.NetTime},
		{"MemTime", p.MemTime}, {"NIPortOcc", p.NIPortOcc}, {"InvalOcc", p.InvalOcc},
	} {
		if f.v < 0 || f.v > maxLatency {
			return fmt.Errorf("memsys: %s = %d, want 0..%d", f.name, f.v, maxLatency)
		}
	}
	return nil
}

// LocalMissLatency returns the unloaded latency of an L2 miss to the local
// memory (170 cycles with the defaults).
func (p Params) LocalMissLatency() int64 {
	return p.BusTime + p.PILocalDCTime + p.MemTime + p.BusTime
}

// RemoteMissLatency returns the unloaded latency of an L2 miss to a remote
// memory (290 cycles with the defaults).
func (p Params) RemoteMissLatency() int64 {
	return p.BusTime + p.PIRemoteDCTime + p.NetTime + p.NILocalDCTime +
		p.MemTime + p.NetTime + p.NIRemoteDCTime + p.BusTime
}
