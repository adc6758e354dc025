// Package bank models one cache bank of the networked L2: a set-indexed
// array of block frames with LRU ordering inside each set, plus the
// Table 1 access latencies and wire delays by bank capacity.
//
// Banks hold state only; timing (busy intervals, queuing) is orchestrated
// by the protocol agents in the cache package. In uniform designs every
// bank is 64 KB direct-mapped; non-uniform designs (D, F) grow capacity
// and associativity with distance from the core, keeping 1024 sets per
// bank so a bank set always stacks into a 16-way set.
package bank

import (
	"fmt"

	"nucanet/internal/slab"
)

// Arena carves bank construction state — the frame slab and the set
// headers, a run's two largest construction allocations — from
// recyclable chunks (see internal/slab). A nil *Arena falls back to
// plain allocation. Single-goroutine, like every slab arena; batch
// construction reaches it through router.Arena.Banks.
type Arena struct {
	blocks slab.Chunk[Block]
	sets   slab.Chunk[frameSet]
}

// Reset recycles the arena's memory; see slab.Chunk.Reset for the
// aliasing contract.
func (a *Arena) Reset() {
	a.blocks.Reset()
	a.sets.Reset()
}

func (a *Arena) blockSlab(n int) []Block {
	if a == nil {
		return make([]Block, n)
	}
	return slab.Grab(&a.blocks, n)
}

func (a *Arena) setSlab(n int) []frameSet {
	if a == nil {
		return make([]frameSet, n)
	}
	return slab.Grab(&a.sets, n)
}

// BlockBytes is the cache block size (Table 1).
const BlockBytes = 64

// Spec sizes one bank.
type Spec struct {
	SizeKB int
	Ways   int
}

// Sets returns the number of sets in the bank.
func (s Spec) Sets() int { return s.SizeKB * 1024 / BlockBytes / s.Ways }

func (s Spec) String() string { return fmt.Sprintf("%dKB/%d-way", s.SizeKB, s.Ways) }

// Latency bundles the Table 1 timing of one bank size.
type Latency struct {
	Wire    int // link wire delay across this bank's tile (cycles)
	TagOnly int // tag-matching only
	TagRepl int // tag-matching + replacement (one combined access)
}

// LatencyFor returns the Table 1 latencies for a bank capacity.
func LatencyFor(sizeKB int) Latency {
	switch sizeKB {
	case 64:
		return Latency{Wire: 1, TagOnly: 2, TagRepl: 3}
	case 128:
		return Latency{Wire: 2, TagOnly: 4, TagRepl: 4}
	case 256:
		return Latency{Wire: 2, TagOnly: 4, TagRepl: 5}
	case 512:
		return Latency{Wire: 3, TagOnly: 5, TagRepl: 6}
	}
	panic(fmt.Sprintf("bank: no Table 1 latency for %d KB", sizeKB))
}

// Block is one resident cache block.
type Block struct {
	Tag   uint64
	Dirty bool
}

// frameSet holds the blocks of one set in MRU-to-LRU order.
type frameSet struct {
	blocks []Block // len <= ways; index 0 = MRU within this bank
}

// Bank is the mutable state of one cache bank.
type Bank struct {
	spec Spec
	lat  Latency
	sets []frameSet
	slab []Block // backing store of every set's frames (see New)

	// Counters for experiment reporting.
	Probes uint64 // tag-match accesses
	Stores uint64 // block installs
}

// New allocates an empty bank.
func New(spec Spec) *Bank {
	return NewIn(spec, nil)
}

// NewIn is New with its storage carved from an arena — batch
// construction lays a batch's bank state contiguously and recycles it
// across construction rounds. A nil arena allocates normally.
func NewIn(spec Spec, ar *Arena) *Bank {
	if spec.SizeKB <= 0 || spec.Ways <= 0 {
		panic(fmt.Sprintf("bank: bad spec %+v", spec))
	}
	b := &Bank{spec: spec, lat: LatencyFor(spec.SizeKB)}
	b.sets = ar.setSlab(spec.Sets())
	// Carve every set's frame storage out of one bank-wide slab. Insert
	// and InsertLRU guarantee len < Ways before appending, so a set's
	// slice never outgrows its full-capacity window and the three-index
	// slicing keeps an overflowing append from bleeding into the next
	// set. This removes the dominant warm-up cost (one allocation per
	// set on first insert — 256 K allocations for a 256-bank design).
	b.slab = ar.blockSlab(len(b.sets) * spec.Ways)
	for i := range b.sets {
		o := i * spec.Ways
		b.sets[i].blocks = b.slab[o : o : o+spec.Ways]
	}
	return b
}

// CloneState copies another bank's full mutable state into this one —
// frames, per-set fill, and counters. Both banks must have the same
// spec. Because every set's slice aliases a fixed window of the slab,
// one slab copy moves every frame and re-slicing restores the fills;
// cloning a warmed template this way replaces the per-block insert
// replay of warm-up with a memcpy (see cache.WarmImage).
func (b *Bank) CloneState(src *Bank) {
	if b.spec != src.spec {
		panic(fmt.Sprintf("bank: clone of %s into %s", src.spec, b.spec))
	}
	copy(b.slab, src.slab)
	for i := range b.sets {
		b.sets[i].blocks = b.sets[i].blocks[:len(src.sets[i].blocks)]
	}
	b.Probes, b.Stores = src.Probes, src.Stores
}

// Spec returns the bank geometry.
func (b *Bank) Spec() Spec { return b.spec }

// Latency returns the bank's Table 1 timings.
func (b *Bank) Latency() Latency { return b.lat }

func (b *Bank) set(idx int) *frameSet {
	if idx < 0 || idx >= len(b.sets) {
		panic(fmt.Sprintf("bank: set %d out of range [0,%d)", idx, len(b.sets)))
	}
	return &b.sets[idx]
}

// Lookup tag-matches a set; it does not touch recency.
func (b *Bank) Lookup(set int, tag uint64) (way int, ok bool) {
	b.Probes++
	fs := b.set(set)
	for i := range fs.blocks {
		if fs.blocks[i].Tag == tag {
			return i, true
		}
	}
	return 0, false
}

// Touch promotes a resident way to MRU within the bank.
func (b *Bank) Touch(set, way int) {
	fs := b.set(set)
	blk := fs.blocks[way]
	copy(fs.blocks[1:way+1], fs.blocks[:way])
	fs.blocks[0] = blk
}

// Remove extracts a resident way.
func (b *Bank) Remove(set, way int) Block {
	fs := b.set(set)
	blk := fs.blocks[way]
	fs.blocks = append(fs.blocks[:way], fs.blocks[way+1:]...)
	return blk
}

// EvictLRU removes and returns the LRU block of the set; ok is false if
// the set is empty.
func (b *Bank) EvictLRU(set int) (Block, bool) {
	fs := b.set(set)
	if len(fs.blocks) == 0 {
		return Block{}, false
	}
	blk := fs.blocks[len(fs.blocks)-1]
	fs.blocks = fs.blocks[:len(fs.blocks)-1]
	return blk, true
}

// Insert installs a block as the MRU of the set. The set must have a free
// frame — replacement protocols always evict first; violating that is a
// protocol bug, so it panics.
func (b *Bank) Insert(set int, blk Block) {
	fs := b.set(set)
	if len(fs.blocks) >= b.spec.Ways {
		panic(fmt.Sprintf("bank: insert into full set %d (%s)", set, b.spec))
	}
	b.Stores++
	fs.blocks = append(fs.blocks, Block{})
	copy(fs.blocks[1:], fs.blocks)
	fs.blocks[0] = blk
}

// InsertLRU installs a block as the LRU of the set (used when a
// replacement chain pushes a block down from a closer bank: the incoming
// block is colder than everything already here under Promotion-style
// ordering; Fast-LRU inserts at MRU instead).
func (b *Bank) InsertLRU(set int, blk Block) {
	fs := b.set(set)
	if len(fs.blocks) >= b.spec.Ways {
		panic(fmt.Sprintf("bank: insertLRU into full set %d (%s)", set, b.spec))
	}
	b.Stores++
	fs.blocks = append(fs.blocks, blk)
}

// SetDirty marks a resident way dirty (a write hit).
func (b *Bank) SetDirty(set, way int) {
	b.set(set).blocks[way].Dirty = true
}

// Occupancy returns how many frames of the set are filled.
func (b *Bank) Occupancy(set int) int { return len(b.set(set).blocks) }

// Blocks returns a copy of the set's blocks in MRU-to-LRU order.
func (b *Bank) Blocks(set int) []Block {
	fs := b.set(set)
	out := make([]Block, len(fs.blocks))
	copy(out, fs.blocks)
	return out
}

// Ways returns the bank associativity.
func (b *Bank) Ways() int { return b.spec.Ways }

// NumSets returns the set count.
func (b *Bank) NumSets() int { return len(b.sets) }
