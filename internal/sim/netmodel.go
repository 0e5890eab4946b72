package sim

import "time"

// NetModel describes a network link class: one-way latency plus bandwidth.
// The benchmark profiles configure one model per link type (client↔lease
// manager, client↔client, client↔object store, external storage).
type NetModel struct {
	// Latency is the one-way propagation + protocol-stack delay per message.
	Latency time.Duration
	// Bandwidth is the sustained throughput in bytes per second; zero means
	// unlimited (only latency applies).
	Bandwidth int64
}

// TransferTime returns the one-way delay for a message of size bytes.
func (m NetModel) TransferTime(size int64) time.Duration {
	d := m.Latency
	if m.Bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / float64(m.Bandwidth) * float64(time.Second))
	}
	return d
}

// CostModel bundles the per-operation CPU charges the simulation applies on
// the client side. These stand in for the costs the paper attributes to
// local metadata work and memory copies.
type CostModel struct {
	// LocalMetaOp is the in-memory metadata table operation cost.
	LocalMetaOp time.Duration
	// MemCopyPerByte charges for cache memcpy work.
	MemCopyPerByte time.Duration
}

// MemCopy returns the charge for copying n bytes.
func (c CostModel) MemCopy(n int64) time.Duration {
	return time.Duration(float64(n) * float64(c.MemCopyPerByte))
}
