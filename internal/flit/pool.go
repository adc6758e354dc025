package flit

// PacketPool recycles Packets through a freelist so hot paths that mint
// short-lived packets every cycle — the router's hybrid multicast
// replicator — stop reaching the garbage collector. One pool belongs to
// one simulation run (one kernel) and is only touched from the goroutine
// driving that kernel, so it needs no synchronization — the same
// per-run ownership discipline as the rest of the simulator state.
//
// Packets from Get are marked internally; Put on a packet that did not
// come from a pool (or was already returned) is a no-op, so drain paths
// may call Put unconditionally on every ejected packet. A nil *PacketPool
// degrades gracefully: Get falls back to a plain heap allocation and Put
// does nothing, so unwired routers keep working without a pool.
type PacketPool struct {
	free []*Packet

	gets uint64 // packets handed out
	puts uint64 // packets returned
	news uint64 // gets that had to allocate (freelist empty)
}

// Get returns a zeroed pooled packet (or a plain allocation when p is nil).
func (p *PacketPool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*pkt = Packet{pooled: true}
		return pkt
	}
	p.news++
	return &Packet{pooled: true}
}

// Put returns a pooled packet to the freelist, dropping its payload
// reference. Non-pooled, already-returned, and nil packets are ignored.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil || !pkt.pooled {
		return
	}
	pkt.pooled = false
	p.puts++
	pkt.Payload = nil
	p.free = append(p.free, pkt)
}

// PoolStats is a snapshot of a pool's accounting, the basis of the leak
// invariant: after a run drains, Gets == Puts and Live == 0.
type PoolStats struct {
	Gets      uint64 // packets handed out
	Puts      uint64 // packets returned exactly once
	Allocated uint64 // gets served by a fresh allocation
	Live      uint64 // packets currently out (Gets - Puts)
}

// Stats returns the pool's accounting snapshot (zero for a nil pool).
func (p *PacketPool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{Gets: p.gets, Puts: p.puts, Allocated: p.news, Live: p.gets - p.puts}
}
