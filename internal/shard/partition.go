package shard

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	pathcost "repro"
	"repro/internal/textio"
)

// partitionVersion tags the partition file format. The file crosses
// deployments (the trainer writes it, every shard and the coordinator
// read it), so it fails loudly on mismatch.
const partitionVersion = "partition-v1"

// Partition assigns every vertex of a road network to one of K
// regions. An edge belongs to the region of its source vertex, so a
// path changes region exactly where consecutive edges disagree — the
// cut points the coordinator decomposes queries at.
//
// The partition also carries the model's training parameters: the
// coordinator never loads a model, yet must agree with the shards on
// the α-interval grid and result resolution to compose their states.
type Partition struct {
	// K is the number of regions.
	K int
	// Vertex maps each vertex ID to its region in [0, K).
	Vertex []int
	// Params are the training parameters of the model this partition
	// serves, copied verbatim into the partition file.
	Params pathcost.Params
}

// NewPartition builds a deterministic K-way region partition of g by
// round-robin multi-source BFS: K seed vertices spread uniformly over
// the ID space grow their regions one frontier vertex per round, so
// regions come out contiguous (where the graph is) and balanced to
// within a frontier. Vertices unreachable from every seed fall back
// to an ID-range assignment. The construction reads nothing but the
// graph topology, so every process that runs it gets the same answer.
func NewPartition(g *pathcost.Graph, k int, params pathcost.Params) (*Partition, error) {
	n := g.NumVertices()
	if k < 1 {
		return nil, fmt.Errorf("shard: partition needs k ≥ 1, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("shard: cannot cut %d vertices into %d regions", n, k)
	}
	region := make([]int, n)
	for i := range region {
		region[i] = -1
	}
	queues := make([][]pathcost.VertexID, k)
	for r := 0; r < k; r++ {
		seed := pathcost.VertexID(r * n / k)
		for region[seed] >= 0 { // collision on tiny graphs: take the next free ID
			seed = (seed + 1) % pathcost.VertexID(n)
		}
		region[seed] = r
		queues[r] = append(queues[r], seed)
	}
	for remaining := true; remaining; {
		remaining = false
		for r := 0; r < k; r++ {
			if len(queues[r]) == 0 {
				continue
			}
			v := queues[r][0]
			queues[r] = queues[r][1:]
			if len(queues[r]) > 0 {
				remaining = true
			}
			// Expand along both edge directions: regions should follow
			// road connectivity, not just one-way reachability.
			for _, e := range g.Out(v) {
				if w := g.Edge(e).To; region[w] < 0 {
					region[w] = r
					queues[r] = append(queues[r], w)
					remaining = true
				}
			}
			for _, e := range g.In(v) {
				if w := g.Edge(e).From; region[w] < 0 {
					region[w] = r
					queues[r] = append(queues[r], w)
					remaining = true
				}
			}
		}
	}
	for v := range region {
		if region[v] < 0 {
			region[v] = v * k / n
		}
	}
	return &Partition{K: k, Vertex: region, Params: params}, nil
}

// EdgeRegion returns the region owning edge e (its source vertex's).
func (p *Partition) EdgeRegion(g *pathcost.Graph, e pathcost.EdgeID) int {
	return p.Vertex[g.Edge(e).From]
}

// PathInRegion reports whether every edge of path lies in one region,
// and which. The model splitter keeps a variable on a shard exactly
// when its path passes this test.
func (p *Partition) PathInRegion(g *pathcost.Graph, path pathcost.Path) (int, bool) {
	if len(path) == 0 {
		return 0, false
	}
	r := p.EdgeRegion(g, path[0])
	for _, e := range path[1:] {
		if p.EdgeRegion(g, e) != r {
			return 0, false
		}
	}
	return r, true
}

// Segment is one maximal same-region run of a query path.
type Segment struct {
	Region int
	Path   pathcost.Path
}

// SegmentPath cuts path into maximal same-region runs, in order. The
// concatenation of the segments is the original path.
func (p *Partition) SegmentPath(g *pathcost.Graph, path pathcost.Path) []Segment {
	var segs []Segment
	start := 0
	for i := 1; i <= len(path); i++ {
		if i == len(path) || p.EdgeRegion(g, path[i]) != p.EdgeRegion(g, path[start]) {
			segs = append(segs, Segment{
				Region: p.EdgeRegion(g, path[start]),
				Path:   path[start:i:i],
			})
			start = i
		}
	}
	return segs
}

// Write serializes the partition. The format follows the model file's
// conventions: a version line, the identical 10-field params line, the
// vertex regions in fixed-width chunks, and an end marker so
// truncation is detectable.
func (p *Partition) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d %d\n", partitionVersion, p.K, len(p.Vertex))
	pr := p.Params
	fmt.Fprintf(bw, "params %d %d %d %g %d %d %d %d %d %g\n",
		pr.AlphaMinutes, pr.Beta, pr.MaxRank, pr.Resolution, int(pr.Domain),
		pr.MaxAccBuckets, pr.MaxResultBuckets, pr.StaticBuckets, pr.Auto.Folds, pr.GTThresholdS)
	for i := 0; i < len(p.Vertex); i += 32 {
		end := i + 32
		if end > len(p.Vertex) {
			end = len(p.Vertex)
		}
		fmt.Fprint(bw, "region")
		for _, r := range p.Vertex[i:end] {
			fmt.Fprintf(bw, " %d", r)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "end-partition")
	return bw.Flush()
}

// ReadPartition parses a partition file and validates it against the
// road network it will serve. The input may come from operators'
// hands, so every count and region index is checked.
func ReadPartition(r io.Reader, g *pathcost.Graph) (*Partition, error) {
	sc := textio.NewScanner(r, 0)
	next := func() (string, bool) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				return line, true
			}
		}
		return "", false
	}
	line, ok := next()
	if !ok {
		return nil, fmt.Errorf("shard: empty partition file")
	}
	var k, nv int
	if _, err := fmt.Sscanf(line, partitionVersion+" %d %d", &k, &nv); err != nil {
		return nil, fmt.Errorf("shard: bad partition header %q: %w", line, err)
	}
	if k < 1 || nv != g.NumVertices() {
		return nil, fmt.Errorf("shard: partition is for %d vertices in %d regions; the network has %d vertices",
			nv, k, g.NumVertices())
	}
	line, ok = next()
	if !ok {
		return nil, fmt.Errorf("shard: partition file ends before params")
	}
	var pr pathcost.Params
	var domain int
	if _, err := fmt.Sscanf(line, "params %d %d %d %g %d %d %d %d %d %g",
		&pr.AlphaMinutes, &pr.Beta, &pr.MaxRank, &pr.Resolution, &domain,
		&pr.MaxAccBuckets, &pr.MaxResultBuckets, &pr.StaticBuckets, &pr.Auto.Folds, &pr.GTThresholdS); err != nil {
		return nil, fmt.Errorf("shard: bad params line %q: %w", line, err)
	}
	pr.Domain = pathcost.CostDomain(domain)
	out := &Partition{K: k, Vertex: make([]int, 0, nv), Params: pr}
	for {
		line, ok = next()
		if !ok {
			return nil, fmt.Errorf("shard: partition file truncated after %d of %d vertices", len(out.Vertex), nv)
		}
		if line == "end-partition" {
			break
		}
		fields := strings.Fields(line)
		if fields[0] != "region" {
			return nil, fmt.Errorf("shard: unexpected line %q in partition file", line)
		}
		for _, f := range fields[1:] {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 || v >= k {
				return nil, fmt.Errorf("shard: region %q out of range [0, %d)", f, k)
			}
			out.Vertex = append(out.Vertex, v)
		}
	}
	if len(out.Vertex) != nv {
		return nil, fmt.Errorf("shard: partition lists %d vertices, header promised %d", len(out.Vertex), nv)
	}
	return out, nil
}
