package topology

import "fmt"

// HierSpec configures the two-level hierarchical topology: Chiplets
// intra-chiplet simplified meshes (horizontal links only in row 0)
// stitched by an inter-chiplet bridge ring. Each chiplet gets two bridge
// routers — a west bridge feeding its first row-0 router and an east
// bridge fed by its last — and the bridges close into one bidirectional
// ring, so row-0 lateral traffic inside a chiplet stays on the mesh while
// cross-chiplet traffic hops bridge to bridge.
//
// The bridges are ordinary nodes of the graph (two ports, no banks, off
// the logical grid like the halo hub), so routing precompute, the static
// verifiers, and every router engine compose with the hierarchy
// unchanged.
type HierSpec struct {
	W, H       int // total columns across all chiplets x mesh height
	Chiplets   int
	HorizDelay int
	VertDelay  []int
	// CoreX and MemX are global row-0 columns (the CMP fabric ignores
	// CoreX and spreads its cores; the single-core path uses it as is).
	CoreX, MemX int
}

func init() {
	Register("hier", func(p Params) (*Topology, error) {
		return newHier(HierSpec{W: p.W, H: p.H, Chiplets: p.Chiplets,
			CoreX: p.CoreX, MemX: p.MemX,
			HorizDelay: p.HorizDelay, VertDelay: p.VertDelay})
	})
}

func (s *HierSpec) check() error {
	if s.Chiplets < 2 {
		return fmt.Errorf("topology: hierarchical topology needs >= 2 chiplets, got %d", s.Chiplets)
	}
	if s.W < 1 || s.H < 1 {
		return fmt.Errorf("topology: bad hier %dx%d", s.W, s.H)
	}
	if s.W%s.Chiplets != 0 {
		return fmt.Errorf("topology: %d columns do not split into %d chiplets", s.W, s.Chiplets)
	}
	if s.W/s.Chiplets < 2 {
		return fmt.Errorf("topology: chiplets need >= 2 columns, got %d", s.W/s.Chiplets)
	}
	if s.CoreX < 0 || s.CoreX >= s.W || s.MemX < 0 || s.MemX >= s.W {
		return fmt.Errorf("topology: core/mem column out of range")
	}
	if len(s.VertDelay) > 1 && len(s.VertDelay) != s.H {
		return fmt.Errorf("topology: %d vertical delays for %d rows", len(s.VertDelay), s.H)
	}
	return nil
}

func (s *HierSpec) vdelay(y int) int {
	switch {
	case len(s.VertDelay) == 0:
		return 1
	case len(s.VertDelay) == 1:
		return s.VertDelay[0]
	default:
		return s.VertDelay[y]
	}
}

func (s *HierSpec) hdelay() int {
	if s.HorizDelay <= 0 {
		return 1
	}
	return s.HorizDelay
}

// HierRingPos returns the bridge ring position of a node: bridges carry
// their position directly (their logical X; they sit off the grid at
// Y = -1), and a mesh node's column projects between its chiplet's two
// bridges. The ring has W + 2*Chiplets positions; the routing algorithm
// and its channel order both steer by this projection.
func HierRingPos(t *Topology, n NodeID) int {
	nd := t.Nodes[n]
	if nd.Y < 0 {
		return nd.X
	}
	cw := t.W / HierChiplets(t)
	return (nd.X/cw)*(cw+2) + 1 + nd.X%cw
}

// HierChiplets counts the chiplets of a hier topology from its bridge
// nodes (the off-grid pairs).
func HierChiplets(t *Topology) int {
	nb := 0
	for _, nd := range t.Nodes {
		if nd.Y < 0 {
			nb++
		}
	}
	return nb / 2
}

func newHier(spec HierSpec) (*Topology, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	W, H, C := spec.W, spec.H, spec.Chiplets
	cw := W / C
	b := NewBuilder("hier", "hier", W, H)
	// Render with one extra top row for the bridge ring: mesh row y draws
	// at render row y+1, each chiplet's bridges at its edge columns of
	// render row 0.
	b.RenderSize(W, H+1)
	at := func(x, y int) NodeID { return y*W + x }
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			id := b.AddNode(x, y, 4)
			b.PlaceAt(id, x, y+1)
		}
	}
	// Vertical links in every global column, as in the simplified mesh.
	for y := 1; y < H; y++ {
		d := spec.vdelay(y)
		for x := 0; x < W; x++ {
			b.Connect(at(x, y-1), PortSouth, at(x, y), PortNorth, d)
		}
	}
	hd := spec.hdelay()
	// Row-0 horizontal links stay inside each chiplet.
	for x := 0; x+1 < W; x++ {
		if x/cw == (x+1)/cw {
			b.Connect(at(x, 0), PortEast, at(x+1, 0), PortWest, hd)
		}
	}
	// Bridge pairs: chiplet i's west bridge sits at ring position
	// i*(cw+2), its east bridge at i*(cw+2)+cw+1, with the chiplet's row-0
	// routers projecting between them. PortEast is always the clockwise
	// (increasing ring position) direction, matching the mesh row.
	west := make([]NodeID, C)
	east := make([]NodeID, C)
	for i := 0; i < C; i++ {
		west[i] = b.AddNode(i*(cw+2), -1, 2)
		b.PlaceAt(west[i], i*cw, 0)
		east[i] = b.AddNode(i*(cw+2)+cw+1, -1, 2)
		b.PlaceAt(east[i], i*cw+cw-1, 0)
		b.Connect(west[i], PortEast, at(i*cw, 0), PortWest, hd)
		b.Connect(at(i*cw+cw-1, 0), PortEast, east[i], PortWest, hd)
	}
	for i := 0; i < C; i++ {
		b.Connect(east[i], PortEast, west[(i+1)%C], PortWest, hd)
	}
	for x := 0; x < W; x++ {
		col := make([]NodeID, H)
		for y := 0; y < H; y++ {
			col[y] = at(x, y)
		}
		b.Column(col...)
	}
	b.Endpoints(at(spec.CoreX, 0), at(spec.MemX, 0))
	return b.Build()
}

// NewHier builds a hierarchical multi-chiplet topology, panicking on a
// malformed spec; Build("hier", params) returns errors instead.
func NewHier(spec HierSpec) *Topology { return must(newHier(spec)) }
