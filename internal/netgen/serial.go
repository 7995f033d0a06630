package netgen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/textio"
)

// WriteGraph serializes g as line-oriented text: one "V lat lon" line
// per vertex (IDs are implicit, in order) followed by one
// "E from to length speed class" line per edge. The format is stable
// and diff-friendly so generated networks can be committed or shipped.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for _, v := range g.Vertices() {
		if _, err := fmt.Fprintf(bw, "V %.7f %.7f\n", v.Pt.Lat, v.Pt.Lon); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "E %d %d %.2f %.1f %d\n",
			e.From, e.To, e.LengthM, e.SpeedKmh, e.Class); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadGraph parses the format written by WriteGraph.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	b := graph.NewBuilder()
	sc := textio.NewScanner(r, 0)
	line := 0
	nVertices := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "V":
			if len(fields) != 3 {
				return nil, fmt.Errorf("netgen: line %d: vertex needs 2 fields", line)
			}
			lat, err1 := strconv.ParseFloat(fields[1], 64)
			lon, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("netgen: line %d: bad vertex coordinates", line)
			}
			b.AddVertex(geo.Point{Lat: lat, Lon: lon})
			nVertices++
		case "E":
			if len(fields) != 6 {
				return nil, fmt.Errorf("netgen: line %d: edge needs 5 fields", line)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			length, err3 := strconv.ParseFloat(fields[3], 64)
			speed, err4 := strconv.ParseFloat(fields[4], 64)
			class, err5 := strconv.Atoi(fields[5])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
				return nil, fmt.Errorf("netgen: line %d: bad edge fields", line)
			}
			if from < 0 || from >= nVertices || to < 0 || to >= nVertices {
				return nil, fmt.Errorf("netgen: line %d: edge endpoint out of range", line)
			}
			if class < 0 || class >= graph.NumRoadClasses {
				return nil, fmt.Errorf("netgen: line %d: bad road class %d", line, class)
			}
			b.AddEdge(graph.VertexID(from), graph.VertexID(to), length, speed, graph.RoadClass(class))
		default:
			return nil, fmt.Errorf("netgen: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := b.Freeze()
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("netgen: no vertices in input")
	}
	return g, nil
}
