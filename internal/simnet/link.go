package simnet

import (
	"fmt"
	"time"
)

// Link models one node's egress path to the interconnect: a fixed
// per-message latency (wire + software stack) plus serialization at the
// sender's NIC. Transmissions from one node queue behind each other —
// which is what makes Gigabit Ethernet a bottleneck for back-to-back
// activation transfers (§V-B constrained hardware analysis) — while
// different senders proceed independently (switched fabric).
type Link struct {
	Latency     time.Duration // propagation + software overhead per message
	BytesPerSec float64       // serialization bandwidth
	busyUntil   Time
}

// NewLink builds a link from bandwidth (bytes/second) and latency.
func NewLink(bytesPerSec float64, latency time.Duration) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("simnet: non-positive link bandwidth %v", bytesPerSec))
	}
	return &Link{Latency: latency, BytesPerSec: bytesPerSec}
}

// Transmit reserves the link for a message of n bytes starting no earlier
// than now and returns the arrival time at the receiver. The sender is not
// blocked (buffered send semantics): only the link itself serialises.
func (l *Link) Transmit(now Time, n int) Time {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	xmit := time.Duration(float64(n) / l.BytesPerSec * float64(time.Second))
	l.busyUntil = start + xmit
	return l.busyUntil + l.Latency
}
