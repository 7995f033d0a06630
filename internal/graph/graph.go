package graph

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// VertexID identifies a vertex within a Graph.
type VertexID int32

// EdgeID identifies an edge within a Graph.
type EdgeID int32

// NoEdge is the sentinel "absent" edge identifier.
const NoEdge EdgeID = -1

// RoadClass categorizes an edge; it determines default speed limits in
// the synthetic networks and lets workloads skew traffic by road type.
type RoadClass uint8

// Road classes, ordered from highest to lowest capacity.
const (
	ClassMotorway RoadClass = iota
	ClassPrimary
	ClassSecondary
	ClassResidential
	numRoadClasses
)

// String returns the lowercase class name.
func (c RoadClass) String() string {
	switch c {
	case ClassMotorway:
		return "motorway"
	case ClassPrimary:
		return "primary"
	case ClassSecondary:
		return "secondary"
	case ClassResidential:
		return "residential"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NumRoadClasses is the number of distinct road classes.
const NumRoadClasses = int(numRoadClasses)

// Vertex is a road intersection or the end of a road.
type Vertex struct {
	ID VertexID
	Pt geo.Point
}

// Edge is a directed road segment from From to To.
type Edge struct {
	ID       EdgeID
	From, To VertexID
	LengthM  float64   // segment length in meters
	SpeedKmh float64   // legal speed limit in km/h
	Class    RoadClass // road category
}

// FreeFlowSeconds returns the minimum legal traversal time of the edge.
func (e Edge) FreeFlowSeconds() float64 {
	if e.SpeedKmh <= 0 {
		return math.Inf(1)
	}
	return e.LengthM / (e.SpeedKmh / 3.6)
}

// Graph is an immutable-after-Freeze directed road network.
//
// Build a graph with NewBuilder / AddVertex / AddEdge / Freeze. A
// frozen Graph is safe for concurrent readers.
type Graph struct {
	vertices []Vertex
	edges    []Edge
	out      [][]EdgeID // out[v] lists edges leaving v
	in       [][]EdgeID // in[v] lists edges entering v
	frozen   bool
}

// Builder incrementally constructs a Graph.
type Builder struct {
	g *Graph
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder {
	return &Builder{g: &Graph{}}
}

// AddVertex appends a vertex at point pt and returns its ID.
func (b *Builder) AddVertex(pt geo.Point) VertexID {
	id := VertexID(len(b.g.vertices))
	b.g.vertices = append(b.g.vertices, Vertex{ID: id, Pt: pt})
	return id
}

// AddEdge appends a directed edge and returns its ID. It panics if the
// endpoints do not exist or coincide, since that indicates a generator
// bug rather than a runtime condition.
func (b *Builder) AddEdge(from, to VertexID, lengthM, speedKmh float64, class RoadClass) EdgeID {
	n := VertexID(len(b.g.vertices))
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("graph: edge endpoint out of range: %d->%d (have %d vertices)", from, to, n))
	}
	if from == to {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", from))
	}
	if lengthM <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge length %v", lengthM))
	}
	id := EdgeID(len(b.g.edges))
	b.g.edges = append(b.g.edges, Edge{
		ID: id, From: from, To: to,
		LengthM: lengthM, SpeedKmh: speedKmh, Class: class,
	})
	return id
}

// Freeze finalizes the graph: it builds adjacency indexes and returns
// the graph. The builder must not be used afterwards.
func (b *Builder) Freeze() *Graph {
	g := b.g
	b.g = nil
	g.out = make([][]EdgeID, len(g.vertices))
	g.in = make([][]EdgeID, len(g.vertices))
	for _, e := range g.edges {
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
	}
	g.frozen = true
	return g
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) Vertex { return g.vertices[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the backing edge slice; callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Vertices returns the backing vertex slice; callers must not modify it.
func (g *Graph) Vertices() []Vertex { return g.vertices }

// Out returns the IDs of edges leaving v; callers must not modify it.
func (g *Graph) Out(v VertexID) []EdgeID { return g.out[v] }

// In returns the IDs of edges entering v; callers must not modify it.
func (g *Graph) In(v VertexID) []EdgeID { return g.in[v] }

// NextEdges returns the edges adjacent to e, i.e. those departing from
// e's end vertex (Section 2.1: two edges are adjacent if one edge's
// end vertex equals the other's start vertex).
func (g *Graph) NextEdges(e EdgeID) []EdgeID {
	return g.out[g.edges[e].To]
}

// Adjacent reports whether b may directly follow a on a path.
func (g *Graph) Adjacent(a, b EdgeID) bool {
	return g.edges[a].To == g.edges[b].From
}

// BBox returns the bounding box of all vertices.
func (g *Graph) BBox() geo.BBox {
	b := geo.EmptyBBox()
	for _, v := range g.vertices {
		b.Extend(v.Pt)
	}
	return b
}
