package dve

// The bandwidth model follows Pellegrino & Dovrolis ("Bandwidth requirement
// and state consistency in three multiplayer game architectures", NetGames
// 2003), the paper's reference [20]: in a client-server architecture each
// client sends one input message per frame to the server and receives one
// state update per frame covering every client in its zone. A client in a
// zone with N clients therefore consumes, on the zone's target server,
//
//	RT = f × (S_in + N × S_out) × 8 bits/s
//
// which makes a zone's aggregate requirement quadratic in N — the paper's
// "bandwidth requirement increases quadratically with the number of
// clients interacting with each other". The 2×RT forwarding cost of a
// contact server that is not the target (the paper's R^C = 2 R^T) is
// applied by the core package.

const bitsPerByte = 8

// ClientRTMbps returns the bandwidth requirement, in Mbps, of one client
// in a zone currently holding zonePop clients (including the client
// itself).
func (c Config) ClientRTMbps(zonePop int) float64 {
	if zonePop < 1 {
		zonePop = 1
	}
	bytesPerSec := c.FrameRate * (c.MessageBytes + float64(zonePop)*c.MessageBytes)
	return bytesPerSec * bitsPerByte / 1e6
}

// ClientRTsInto returns the per-client bandwidth requirement vector for
// the world's current population, writing into buf when it has capacity.
func (w *World) ClientRTsInto(buf []float64) []float64 {
	pop := w.ZonePopulations()
	k := len(w.ClientZones)
	if cap(buf) < k {
		buf = make([]float64, k)
	}
	buf = buf[:k]
	for j, z := range w.ClientZones {
		buf[j] = w.Cfg.ClientRTMbps(pop[z])
	}
	return buf
}
