package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestPathStringAndKey(t *testing.T) {
	p := Path{0, 1, 2}
	if got := p.String(); got != "<e0,e1,e2>" {
		t.Errorf("String = %q", got)
	}
	if got := p.Key(); got != "0,1,2" {
		t.Errorf("Key = %q", got)
	}
	if Path(nil).String() != "<>" {
		t.Error("empty path string")
	}
}

func TestPathEqualClone(t *testing.T) {
	p := Path{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone should be equal")
	}
	q[0] = 9
	if p.Equal(q) {
		t.Fatal("mutated clone should differ")
	}
	if p.Equal(Path{1, 2}) {
		t.Fatal("different lengths should differ")
	}
}

// TestPathKeyMatchesFmt pins Key and String to the fmt-built text they
// replaced, across the stack buffer's boundary.
func TestPathKeyMatchesFmt(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 23, 64, 73, 74, 200} {
		p := make(Path, n)
		for i := range p {
			p[i] = EdgeID(rnd.Int31())
		}
		var key, str strings.Builder
		str.WriteByte('<')
		for i, e := range p {
			if i > 0 {
				key.WriteByte(',')
				str.WriteByte(',')
			}
			fmt.Fprintf(&key, "%d", e)
			fmt.Fprintf(&str, "e%d", e)
		}
		str.WriteByte('>')
		if got := p.Key(); got != key.String() {
			t.Errorf("%d edges: Key = %q, want %q", n, got, key.String())
		}
		if got := p.String(); got != str.String() {
			t.Errorf("%d edges: String = %q, want %q", n, got, str.String())
		}
	}
	if got := (Path{-1, 7}).Key(); got != "-1,7" {
		t.Errorf("negative id: Key = %q", got)
	}
}

// validPathMap is ValidPath as it was when it allocated a map per
// call: the oracle of the differential test below.
func validPathMap(g *Graph, p Path) bool {
	if len(p) == 0 {
		return false
	}
	seen := make(map[VertexID]struct{}, len(p)+1)
	for i, id := range p {
		if id < 0 || int(id) >= len(g.edges) {
			return false
		}
		e := g.edges[id]
		if i == 0 {
			seen[e.From] = struct{}{}
		} else if g.edges[p[i-1]].To != e.From {
			return false
		}
		if _, dup := seen[e.To]; dup {
			return false
		}
		seen[e.To] = struct{}{}
	}
	return true
}

// TestValidPathMatchesMapVersion walks a random digraph every way a
// request can: self-avoiding walks (valid), walks that may revisit,
// arbitrary edge soup and out-of-range ids, at lengths on both sides
// of the stack array's bound.
func TestValidPathMatchesMapVersion(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	const nv = 400
	b := NewBuilder()
	for i := 0; i < nv; i++ {
		b.AddVertex(geo.Point{Lat: float64(i), Lon: 0})
	}
	for v := 0; v < nv; v++ {
		for k := 0; k < 3; k++ {
			if to := rnd.Intn(nv); to != v {
				b.AddEdge(VertexID(v), VertexID(to), 100, 50, ClassPrimary)
			}
		}
	}
	g := b.Freeze()
	walk := func(n int, avoid bool) Path {
		v := VertexID(rnd.Intn(nv))
		seen := map[VertexID]bool{v: true}
		var p Path
		for len(p) < n {
			out := g.Out(v)
			if len(out) == 0 {
				break
			}
			e := out[rnd.Intn(len(out))]
			if to := g.Edge(e).To; !avoid || !seen[to] {
				p, v, seen[to] = append(p, e), to, true
			} else if rnd.Intn(8) == 0 {
				break
			}
		}
		return p
	}
	valid, validLong := 0, 0
	for i := 0; i < 20000; i++ {
		n := 1 + rnd.Intn(2*validPathStackEdges+10)
		var p Path
		switch i % 4 {
		case 0:
			p = walk(n, true)
		case 1:
			p = walk(n, false)
		case 2:
			p = walk(n, true)
			if len(p) > 0 { // one edge swapped for a random one
				p[rnd.Intn(len(p))] = EdgeID(rnd.Intn(g.NumEdges()))
			}
		default:
			p = make(Path, n%6)
			for j := range p {
				p[j] = EdgeID(rnd.Intn(g.NumEdges()+4) - 2)
			}
		}
		want := validPathMap(g, p)
		if got := g.ValidPath(p); got != want {
			t.Fatalf("ValidPath(%v) = %v, map version says %v", p, got, want)
		}
		if want {
			valid++
			if len(p) > validPathStackEdges {
				validLong++
			}
		}
	}
	if valid < 2000 || validLong < 100 {
		t.Fatalf("only %d valid paths drawn (%d past the stack bound); the test is not exercising the accept side", valid, validLong)
	}
}

// TestPathKeyAndValidPathAllocs pins what the rewrite bought: Key
// allocates only its result, ValidPath nothing, for a served-size path.
func TestPathKeyAndValidPathAllocs(t *testing.T) {
	g, es := paperGraph(t)
	p := Path{es[0], es[1], es[2], es[3], es[4]}
	if n := testing.AllocsPerRun(100, func() { _ = p.Key() }); n > 1 {
		t.Errorf("Key allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.ValidPath(p) }); n != 0 {
		t.Errorf("ValidPath allocates %v times, want 0", n)
	}
}
