package graph

import "strconv"

// Path is a sequence of adjacent edges connecting distinct vertices
// (Section 2.1); its cardinality |P| is len. A Path value does not
// carry its Graph; use Graph.ValidPath for checks that need topology.
type Path []EdgeID

// Equal reports whether p and q are the same edge sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// String renders the path as "<e1,e2,...>".
func (p Path) String() string {
	var buf [keyStackBytes]byte
	return string(append(p.appendIDs(append(buf[:0], '<'), "e"), '>'))
}

// Key returns a compact string key usable as a map key for the path.
// Unlike String it has no decorative punctuation.
func (p Path) Key() string {
	var buf [keyStackBytes]byte
	return string(p.appendIDs(buf[:0], ""))
}

// AppendKey appends Key's bytes to b, for callers composing a longer
// key in one buffer.
func (p Path) AppendKey(b []byte) []byte { return p.appendIDs(b, "") }

// appendIDs appends the comma-separated edge ids, each after prefix.
func (p Path) appendIDs(b []byte, prefix string) []byte {
	for i, e := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, prefix...), int64(e), 10)
	}
	return b
}

// keyStackBytes sizes the stack buffer Key and String render into, so
// that the returned string is their only allocation: room for 64 edges
// of 3-digit ids or 36 of 6-digit ones. A longer key spills to the
// heap and stays correct.
const keyStackBytes = 256

// ValidPath reports whether p is a valid path in g: non-empty,
// consecutive edges adjacent, and all visited vertices distinct
// (the paper requires simple paths).
func (g *Graph) ValidPath(p Path) bool {
	if len(p) == 0 {
		return false
	}
	// Served paths are short, so the visited vertices live in a stack
	// array scanned linearly; only a longer path pays for a map.
	var (
		stack [validPathStackEdges + 1]VertexID
		seen  = stack[:0]
		far   map[VertexID]struct{}
	)
	if len(p) > validPathStackEdges {
		far = make(map[VertexID]struct{}, len(p)+1)
	}
	visit := func(v VertexID) (dup bool) {
		if far != nil {
			_, dup = far[v]
			far[v] = struct{}{}
			return dup
		}
		for _, u := range seen {
			if u == v {
				return true
			}
		}
		seen = append(seen, v)
		return false
	}
	for i, id := range p {
		if id < 0 || int(id) >= len(g.edges) {
			return false
		}
		e := g.edges[id]
		if i == 0 {
			visit(e.From)
		} else if g.edges[p[i-1]].To != e.From {
			return false
		}
		if visit(e.To) {
			return false
		}
	}
	return true
}

// validPathStackEdges is the longest path whose visited set ValidPath
// keeps on the stack: a linear scan of ≤ 65 vertices is cheaper than
// allocating and hashing into a map.
const validPathStackEdges = 64
