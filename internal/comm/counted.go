package comm

import "sync/atomic"

// LinkCounters accumulates per-endpoint traffic totals. All fields are
// atomic (and therefore 64-bit-aligned on every platform), so the
// telemetry layer reads them live while the transport goroutines write.
type LinkCounters struct {
	SentFrames atomic.Int64
	SentBytes  atomic.Int64
	RecvFrames atomic.Int64
	RecvBytes  atomic.Int64
}

// counted wraps an Endpoint, charging every frame to c. Send charges
// wireBytes when the caller provides it (the interconnect-model cost),
// falling back to payload length like the Endpoint contract.
type counted struct {
	Endpoint
	c *LinkCounters
}

func (ce counted) Send(dst int, tag Tag, payload []byte, wireBytes int) {
	n := wireBytes
	if n <= 0 {
		n = len(payload)
	}
	ce.c.SentFrames.Add(1)
	ce.c.SentBytes.Add(int64(n))
	ce.Endpoint.Send(dst, tag, payload, wireBytes)
}

func (ce counted) Recv(src int, tag Tag) []byte {
	b := ce.Endpoint.Recv(src, tag)
	ce.c.RecvFrames.Add(1)
	ce.c.RecvBytes.Add(int64(len(b)))
	return b
}

// Counted wraps ep so every Send/Recv updates c. The wrapper adds two
// atomic adds per frame and no allocations. A nil c returns ep unwrapped.
func Counted(ep Endpoint, c *LinkCounters) Endpoint {
	if c == nil {
		return ep
	}
	return counted{Endpoint: ep, c: c}
}
