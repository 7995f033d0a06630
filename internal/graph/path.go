package graph

import (
	"fmt"
	"strconv"
)

// Path is a sequence of adjacent edges connecting distinct vertices
// (Section 2.1). A Path value does not carry its Graph; use the
// Graph-side methods (ValidPath, PathLengthM, ...) for checks that
// need topology. The pure-sequence operations (sub-path tests,
// intersection, difference) are defined on Path directly, exactly
// matching the paper's ∩ and \ operators on edge sequences.
type Path []EdgeID

// Cardinality returns |P|, the number of edges in the path.
func (p Path) Cardinality() int { return len(p) }

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

// IndexOfSubPath returns the index in p at which sub starts as a
// contiguous edge subsequence, or -1 if sub is not a sub-path of p.
// The empty path is not a sub-path of anything.
func (p Path) IndexOfSubPath(sub Path) int {
	if len(sub) == 0 || len(sub) > len(p) {
		return -1
	}
	for i := 0; i+len(sub) <= len(p); i++ {
		ok := true
		for j := range sub {
			if p[i+j] != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// HasSubPath reports whether sub is a sub-path of p (Section 2.1).
func (p Path) HasSubPath(sub Path) bool { return p.IndexOfSubPath(sub) >= 0 }

// Intersect returns p ∩ q: the longest contiguous edge sequence shared
// by both paths, per the paper's example ⟨e1,e2,e3⟩ ∩ ⟨e2,e3,e4⟩ =
// ⟨e2,e3⟩. When several shared runs have the same maximal length the
// earliest one in p is returned. Returns nil when the paths share no
// contiguous run.
func (p Path) Intersect(q Path) Path {
	bestLen, bestAt := 0, -1
	for i := range p {
		for j := range q {
			if p[i] != q[j] {
				continue
			}
			k := 0
			for i+k < len(p) && j+k < len(q) && p[i+k] == q[j+k] {
				k++
			}
			if k > bestLen {
				bestLen, bestAt = k, i
			}
		}
	}
	if bestAt < 0 {
		return nil
	}
	return p[bestAt : bestAt+bestLen].Clone()
}

// Minus returns p \ q: the sub-path of p that excludes the edges in q,
// per the paper's example ⟨e1,e2,e3⟩ \ ⟨e2,e3,e4⟩ = ⟨e1⟩. The result
// keeps every edge of p that does not occur in q, in order.
func (p Path) Minus(q Path) Path {
	drop := make(map[EdgeID]struct{}, len(q))
	for _, e := range q {
		drop[e] = struct{}{}
	}
	var out Path
	for _, e := range p {
		if _, ok := drop[e]; !ok {
			out = append(out, e)
		}
	}
	return out
}

// Prefix returns the first n edges of p.
func (p Path) Prefix(n int) Path { return p[:n].Clone() }

// Suffix returns the last n edges of p.
func (p Path) Suffix(n int) Path { return p[len(p)-n:].Clone() }

// CombineOverlapping merges two paths of equal cardinality k that share
// k−1 edges (p's suffix equals q's prefix) into the cardinality-(k+1)
// path, mirroring the Apriori-style growth of Section 3.2. It returns
// nil when the paths do not chain together that way.
func CombineOverlapping(p, q Path) Path {
	k := len(p)
	if k == 0 || len(q) != k {
		return nil
	}
	for i := 1; i < k; i++ {
		if p[i] != q[i-1] {
			return nil
		}
	}
	out := make(Path, 0, k+1)
	out = append(out, p...)
	out = append(out, q[k-1])
	return out
}

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

// PathLengthM returns the total length of p in meters.
func (g *Graph) PathLengthM(p Path) float64 {
	var sum float64
	for _, e := range p {
		sum += g.edges[e].LengthM
	}
	return sum
}

// PathFreeFlowSeconds returns the minimum legal travel time of p.
func (g *Graph) PathFreeFlowSeconds(p Path) float64 {
	var sum float64
	for _, e := range p {
		sum += g.edges[e].FreeFlowSeconds()
	}
	return sum
}

// PathVertices returns the vertex sequence visited by p, including the
// start of the first edge. The path must be valid.
func (g *Graph) PathVertices(p Path) []VertexID {
	if len(p) == 0 {
		return nil
	}
	vs := make([]VertexID, 0, len(p)+1)
	vs = append(vs, g.edges[p[0]].From)
	for _, e := range p {
		vs = append(vs, g.edges[e].To)
	}
	return vs
}

// EdgesToPath converts edge IDs to a Path after validating adjacency;
// it returns an error (instead of panicking) because inputs typically
// come from user queries or files.
func (g *Graph) EdgesToPath(ids []EdgeID) (Path, error) {
	p := Path(ids)
	if !g.ValidPath(p) {
		return nil, fmt.Errorf("graph: edge sequence %v is not a valid simple path", p)
	}
	return p.Clone(), nil
}
