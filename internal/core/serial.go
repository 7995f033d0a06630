package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/textio"
)

// serialVersion tags the model file format.
const serialVersion = "hybridgraph-v1"

// WriteModel serializes the trained hybrid graph (parameters, statistics
// and every trajectory-backed variable) as line-oriented text, so a
// model can be trained once and served later. The road network is not
// embedded; loading requires the same graph.
func (h *HybridGraph) WriteModel(w io.Writer) error {
	return h.WriteModelSynopsis(w, nil)
}

// WriteModelSynopsis is WriteModel plus an optional synopsis section:
// the offline sub-path synopsis is trained with the model and ships
// inside the same file, so the serving daemon loads pre-materialized
// states at boot. A nil or empty synopsis writes a plain model file,
// and readers predating the synopsis section only lose the synopsis —
// the model records are unchanged.
func (h *HybridGraph) WriteModelSynopsis(w io.Writer, syn *SynopsisStore) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, serialVersion)
	p := h.Params
	fmt.Fprintf(bw, "params %d %d %d %g %d %d %d %d %d %g\n",
		p.AlphaMinutes, p.Beta, p.MaxRank, p.Resolution, int(p.Domain),
		p.MaxAccBuckets, p.MaxResultBuckets, p.StaticBuckets, p.Auto.Folds, p.GTThresholdS)
	st := h.stats
	fmt.Fprintf(bw, "stats %d %d %d %d", st.CoveredEdges, st.EdgesWithData, st.StorageFloats, st.SupportTotal)
	for _, c := range st.VariablesByRank {
		fmt.Fprintf(bw, " %d", c)
	}
	fmt.Fprintln(bw)

	var err error
	h.ForEachVariable(func(v *Variable) {
		if err != nil {
			return
		}
		err = writeVariable(bw, v)
	})
	if err != nil {
		return err
	}
	if syn != nil && syn.Len() > 0 {
		if err := writeSynopsis(bw, syn); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeVariable(bw *bufio.Writer, v *Variable) error {
	fmt.Fprintf(bw, "var %s %d %d %g %g\n", v.Path.Key(), v.Interval, v.Support, v.TimeMin, v.TimeMax)
	if v.Hist != nil {
		bs := v.Hist.Buckets()
		fmt.Fprintf(bw, "h %d", len(bs))
		for _, b := range bs {
			fmt.Fprintf(bw, " %g %g %g", b.Lo, b.Hi, b.Pr)
		}
		fmt.Fprintln(bw)
		return nil
	}
	m := v.Joint
	fmt.Fprintf(bw, "m %d\n", m.Dims())
	for d := 0; d < m.Dims(); d++ {
		bd := m.Bounds(d)
		fmt.Fprintf(bw, "b %d", len(bd))
		for _, x := range bd {
			fmt.Fprintf(bw, " %g", x)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "c %d\n", m.NumCells())
	var err error
	m.ForEachSorted(func(k hist.CellKey, pr float64) {
		if err != nil {
			return
		}
		for d := 0; d < m.Dims(); d++ {
			if _, werr := fmt.Fprintf(bw, "%d ", k[d]); werr != nil {
				err = werr
				return
			}
		}
		_, err = fmt.Fprintf(bw, "%g\n", pr)
	})
	return err
}

// ReadHybrid deserializes a model written by WriteModel, re-binding it to
// the given road network, and discarding any synopsis section (see
// ReadHybridSynopsis). Every variable path is validated against the
// graph so a mismatched network fails loudly instead of answering
// nonsense.
func ReadHybrid(r io.Reader, g *graph.Graph) (*HybridGraph, error) {
	h, _, err := ReadHybridSynopsis(r, g)
	return h, err
}

// ReadHybridSynopsis deserializes a model plus its optional synopsis
// section. Models written before the synopsis existed — or with a nil
// synopsis — return a nil store; files carrying an unknown synopsis
// version or a corrupt section fail with a descriptive error.
func ReadHybridSynopsis(r io.Reader, g *graph.Graph) (*HybridGraph, *SynopsisStore, error) {
	sc := textio.NewScanner(r, 0)
	rd := &hybridReader{sc: sc}

	if line, ok := rd.next(); !ok || line != serialVersion {
		return nil, nil, fmt.Errorf("core: not a %s file", serialVersion)
	}
	h := &HybridGraph{
		G:         g,
		vars:      make(map[string]*pathVars),
		unit:      make([]*pathVars, g.NumEdges()),
		byStart:   make([][]*pathVars, g.NumEdges()),
		fallbacks: make(map[graph.EdgeID]*Variable),
	}
	// params
	line, ok := rd.next()
	if !ok {
		return nil, nil, fmt.Errorf("core: truncated model (params)")
	}
	f := strings.Fields(line)
	if len(f) != 11 || f[0] != "params" {
		return nil, nil, fmt.Errorf("core: bad params line %q", line)
	}
	p := DefaultParams()
	p.AlphaMinutes = atoi(f[1])
	p.Beta = atoi(f[2])
	p.MaxRank = atoi(f[3])
	p.Resolution = atof(f[4])
	p.Domain = CostDomain(atoi(f[5]))
	p.MaxAccBuckets = atoi(f[6])
	p.MaxResultBuckets = atoi(f[7])
	p.StaticBuckets = atoi(f[8])
	p.Auto.Folds = atoi(f[9])
	p.GTThresholdS = atof(f[10])
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: model params invalid: %w", err)
	}
	h.Params = p
	// stats
	line, ok = rd.next()
	if !ok {
		return nil, nil, fmt.Errorf("core: truncated model (stats)")
	}
	f = strings.Fields(line)
	if len(f) < 5 || f[0] != "stats" {
		return nil, nil, fmt.Errorf("core: bad stats line %q", line)
	}
	savedStats := BuildStats{
		CoveredEdges:  atoi(f[1]),
		EdgesWithData: atoi(f[2]),
		StorageFloats: atoi(f[3]),
		SupportTotal:  atoi(f[4]),
	}
	for _, c := range f[5:] {
		savedStats.VariablesByRank = append(savedStats.VariablesByRank, atoi(c))
	}
	h.stats.VariablesByRank = make([]int, len(savedStats.VariablesByRank))

	// variables, up to EOF or the optional synopsis section
	var synHeader string
	for {
		line, ok := rd.next()
		if !ok {
			break
		}
		f := strings.Fields(line)
		if strings.HasPrefix(f[0], "synopsis-") {
			// Defer parsing until the model is complete: synopsis
			// entries resolve factors against the loaded variables.
			synHeader = line
			break
		}
		if len(f) != 6 || f[0] != "var" {
			return nil, nil, fmt.Errorf("core: expected var line, got %q", line)
		}
		path, err := parsePathKey(f[1])
		if err != nil {
			return nil, nil, err
		}
		if !g.ValidPath(path) {
			return nil, nil, fmt.Errorf("core: model path %v is not valid in this graph", path)
		}
		v := &Variable{
			Path:     path,
			Interval: atoi(f[2]),
			Support:  atoi(f[3]),
			TimeMin:  atof(f[4]),
			TimeMax:  atof(f[5]),
		}
		if err := rd.readDistribution(v); err != nil {
			return nil, nil, err
		}
		h.addVariable(v)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	// Cross-check the variable counts; other stats fields are not
	// recomputable without the data, so trust the file.
	for r := range savedStats.VariablesByRank {
		if r < len(h.stats.VariablesByRank) && h.stats.VariablesByRank[r] != savedStats.VariablesByRank[r] {
			return nil, nil, fmt.Errorf("core: model corrupt: rank-%d count %d, file says %d",
				r+1, h.stats.VariablesByRank[r], savedStats.VariablesByRank[r])
		}
	}
	h.stats.CoveredEdges = savedStats.CoveredEdges
	h.stats.EdgesWithData = savedStats.EdgesWithData
	h.stats.SupportTotal = savedStats.SupportTotal
	sortRows(h)
	var syn *SynopsisStore
	if synHeader != "" {
		var err error
		syn, err = readSynopsis(rd, h, synHeader)
		if err != nil {
			return nil, nil, err
		}
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
	}
	return h, syn, nil
}

func sortRows(h *HybridGraph) {
	for _, list := range h.byStart {
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && len(list[j].path) < len(list[j-1].path); j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
	}
}

type hybridReader struct {
	sc     *bufio.Scanner
	peeked *string
}

func (r *hybridReader) next() (string, bool) {
	if r.peeked != nil {
		s := *r.peeked
		r.peeked = nil
		return s, true
	}
	for r.sc.Scan() {
		line := strings.TrimSpace(r.sc.Text())
		if line != "" {
			return line, true
		}
	}
	return "", false
}

func (r *hybridReader) readDistribution(v *Variable) error {
	line, ok := r.next()
	if !ok {
		return fmt.Errorf("core: truncated model (distribution of %v)", v.Path)
	}
	f := strings.Fields(line)
	switch f[0] {
	case "h":
		if len(f) < 2 {
			return fmt.Errorf("core: bad histogram line for %v", v.Path)
		}
		n := atoi(f[1])
		if n < 1 || n >= len(f) || len(f) != 2+3*n {
			return fmt.Errorf("core: bad histogram line for %v", v.Path)
		}
		bs := make([]hist.Bucket, n)
		for i := 0; i < n; i++ {
			bs[i] = hist.Bucket{Lo: atof(f[2+3*i]), Hi: atof(f[3+3*i]), Pr: atof(f[4+3*i])}
		}
		// Exact, not renormalizing: stored masses already sum to ≈1,
		// and dividing by that almost-one total would perturb every
		// bucket at the bit level — loaded models would then answer
		// slightly differently than the process that trained them, and
		// write→read→write would not reproduce the file.
		hg, err := hist.FromBucketsExact(bs, 1e-6)
		if err != nil {
			return fmt.Errorf("core: %v: %w", v.Path, err)
		}
		v.Hist = hg
		return nil
	case "m":
		if len(f) != 2 {
			return fmt.Errorf("core: bad joint line for %v", v.Path)
		}
		dims := atoi(f[1])
		if dims < 1 || dims > hist.MaxDims {
			return fmt.Errorf("core: joint of %v has %d dims, range is [1,%d]", v.Path, dims, hist.MaxDims)
		}
		bounds := make([][]float64, dims)
		for d := 0; d < dims; d++ {
			line, ok := r.next()
			if !ok {
				return fmt.Errorf("core: truncated bounds of %v", v.Path)
			}
			bf := strings.Fields(line)
			if bf[0] != "b" || len(bf) < 2 {
				return fmt.Errorf("core: expected bounds line for %v", v.Path)
			}
			n := atoi(bf[1])
			if n < 2 || len(bf) != 2+n {
				return fmt.Errorf("core: bad bounds line for %v", v.Path)
			}
			bounds[d] = make([]float64, n)
			for i := 0; i < n; i++ {
				bounds[d][i] = atof(bf[2+i])
			}
		}
		m, err := hist.NewMulti(bounds)
		if err != nil {
			return fmt.Errorf("core: %v: %w", v.Path, err)
		}
		line, ok := r.next()
		if !ok {
			return fmt.Errorf("core: truncated cells of %v", v.Path)
		}
		cf := strings.Fields(line)
		if cf[0] != "c" || len(cf) != 2 {
			return fmt.Errorf("core: expected cell count for %v", v.Path)
		}
		count := atoi(cf[1])
		if count < 1 {
			return fmt.Errorf("core: bad cell count for %v", v.Path)
		}
		// Cells were written by ForEachSorted, so they arrive in
		// ascending key order and SetCell appends each one straight
		// onto the columnar arrays — loading builds the sorted layout
		// directly, with no re-sorting and no hashing.
		idx := make([]int, dims)
		for i := 0; i < count; i++ {
			line, ok := r.next()
			if !ok {
				return fmt.Errorf("core: truncated cell %d of %v", i, v.Path)
			}
			xf := strings.Fields(line)
			if len(xf) != dims+1 {
				return fmt.Errorf("core: bad cell line for %v", v.Path)
			}
			for d := 0; d < dims; d++ {
				idx[d] = atoi(xf[d])
				if idx[d] < 0 || idx[d] >= m.NumBuckets(d) {
					return fmt.Errorf("core: cell index out of range for %v", v.Path)
				}
			}
			m.SetCell(idx, atof(xf[dims]))
		}
		// Validated, not renormalized — see the histogram case above.
		if err := m.CheckNormalized(1e-6); err != nil {
			return fmt.Errorf("core: %v: %w", v.Path, err)
		}
		v.Joint = m
		return nil
	default:
		return fmt.Errorf("core: unknown distribution record %q for %v", f[0], v.Path)
	}
}

func parsePathKey(key string) (graph.Path, error) {
	parts := strings.Split(key, ",")
	p := make(graph.Path, len(parts))
	for i, s := range parts {
		id, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("core: bad path key %q", key)
		}
		p[i] = graph.EdgeID(id)
	}
	return p, nil
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}
