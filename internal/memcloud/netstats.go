package memcloud

import (
	"fmt"
	"time"
)

// NetStats counts simulated messages and their payload bytes. The
// experiments in §6 attribute performance differences to network traffic
// ("more network traffic and synchronization cost will be incurred with more
// machines"), so every charging call — LabelBatch.Flush, ShipWords,
// AccountProxyTransfer — books its message into a NetStats the caller owns.
// The cluster keeps no counter of its own: a query's traffic is what its run
// charged, whatever else runs at the same time. A NetStats is a plain value;
// whoever shares one across goroutines synchronizes it.
type NetStats struct {
	Messages uint64
	Bytes    uint64
}

func (s NetStats) String() string {
	return fmt.Sprintf("messages=%d bytes=%d", s.Messages, s.Bytes)
}

// Add adds o's messages and bytes to s.
func (s *NetStats) Add(o NetStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
}

// Wire-size model: every message carries a fixed header plus 8 bytes per
// vertex ID or per label word shipped. The constants only need to be
// consistent, not exact, for the communication comparisons (load sets vs
// all-to-all) to be meaningful.
const (
	msgHeaderBytes = 16
	wordBytes      = 8
)

// payloadSize is the wire size of messages messages carrying words words in
// all. The model is affine, so how the words split between the messages
// does not matter.
func payloadSize(messages, words int) uint64 {
	return uint64(messages*msgHeaderBytes + words*wordBytes)
}

// NetworkModel converts message/byte counters into modeled transfer time,
// which the speed-up experiments (Figure 9) add to a query's
// ExecStats.ParallelTime. The defaults approximate the paper's GigE
// cluster: ~1 Gbit/s effective bandwidth and a small per-message overhead
// reflecting Trinity's aggressive message batching.
type NetworkModel struct {
	// LatencyPerMessage is charged once per accounted message.
	LatencyPerMessage time.Duration
	// BytesPerSecond divides the accounted payload bytes.
	BytesPerSecond int64
}

// DefaultNetworkModel mirrors the paper's 1 GigE fabric.
func DefaultNetworkModel() NetworkModel {
	return NetworkModel{LatencyPerMessage: 2 * time.Microsecond, BytesPerSecond: 125_000_000}
}

// TransferTime models the wall time to move the given cluster-wide traffic
// across a cluster of `machines` members. Each machine has its own NIC, so
// symmetric traffic moves in parallel: the model divides aggregate bytes
// and messages by the machine count (the per-machine share approximates the
// max over machines for the exchange patterns the engine generates).
func (m NetworkModel) TransferTime(s NetStats, machines int) time.Duration {
	if m.BytesPerSecond <= 0 && m.LatencyPerMessage <= 0 {
		return 0
	}
	if machines < 1 {
		machines = 1
	}
	perMachineMsgs := s.Messages / uint64(machines)
	perMachineBytes := s.Bytes / uint64(machines)
	d := time.Duration(perMachineMsgs) * m.LatencyPerMessage
	if m.BytesPerSecond > 0 {
		d += time.Duration(float64(perMachineBytes) / float64(m.BytesPerSecond) * float64(time.Second))
	}
	return d
}
