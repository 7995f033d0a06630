package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/textio"
)

// serialVersion tags the model file format.
const serialVersion = "hybridgraph-v1"

// normTolerance bounds how far a deserialized distribution's total
// mass may sit from one. Stored masses are exact images of normalized
// in-memory values, so anything beyond float accumulation noise means
// corruption.
const normTolerance = 1e-6

// WriteModel serializes the trained hybrid graph (parameters, statistics
// and every trajectory-backed variable) as line-oriented text, so a
// model can be trained once and served later. The road network is not
// embedded; loading requires the same graph.
func (h *HybridGraph) WriteModel(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, serialVersion)
	fmt.Fprintln(bw, ParamsLine(h.Params))
	fmt.Fprint(bw, "stats")
	for _, n := range h.stats.fields() {
		fmt.Fprintf(bw, " %d", n)
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
	return bw.Flush()
}

// ParamsLine formats the "params" line of a model file: the ten
// parameters a model is trained and served with. Partition files carry
// the same line. The rest of Params (Auto's search bounds and seed,
// Workers) is training-time tuning no reader needs; ParseParamsLine
// restores it from DefaultParams.
func ParamsLine(p Params) string {
	return fmt.Sprintf("params %d %d %d %g %d %d %d %d %d %g",
		p.AlphaMinutes, p.Beta, p.MaxRank, p.Resolution, int(p.Domain),
		p.MaxAccBuckets, p.MaxResultBuckets, p.StaticBuckets, p.Auto.Folds, p.GTThresholdS)
}

// ParseParamsLine parses a line written by ParamsLine over
// DefaultParams, strictly, and rejects parameters Validate rejects.
func ParseParamsLine(line string) (Params, error) {
	f := strings.Fields(line)
	if len(f) != 11 || f[0] != "params" {
		return Params{}, fmt.Errorf("core: bad params line %q", line)
	}
	var np numParser
	p := DefaultParams()
	p.AlphaMinutes = np.int(f[1])
	p.Beta = np.int(f[2])
	p.MaxRank = np.int(f[3])
	p.Resolution = np.float(f[4])
	p.Domain = CostDomain(np.int(f[5]))
	p.MaxAccBuckets = np.int(f[6])
	p.MaxResultBuckets = np.int(f[7])
	p.StaticBuckets = np.int(f[8])
	p.Auto.Folds = np.int(f[9])
	p.GTThresholdS = np.float(f[10])
	if np.err != nil {
		return Params{}, fmt.Errorf("core: bad params line %q: %w", line, np.err)
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("core: params invalid: %w", err)
	}
	return p, nil
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
	return writeJoint(bw, v.Joint)
}

// writeJoint dumps a joint exactly: its dimension count, its bounds and
// its cells in sorted key order (%g is the shortest representation that
// parses back to the same float64, so the dump is lossless).
func writeJoint(w io.Writer, m *hist.Multi) error {
	fmt.Fprintf(w, "m %d\n", m.Dims())
	for d := 0; d < m.Dims(); d++ {
		bd := m.Bounds(d)
		fmt.Fprintf(w, "b %d", len(bd))
		for _, x := range bd {
			fmt.Fprintf(w, " %g", x)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "c %d\n", m.NumCells())
	var err error
	m.ForEachSorted(func(k hist.CellKey, pr float64) {
		if err != nil {
			return
		}
		for d := 0; d < m.Dims(); d++ {
			if _, werr := fmt.Fprintf(w, "%d ", k[d]); werr != nil {
				err = werr
				return
			}
		}
		_, err = fmt.Fprintf(w, "%g\n", pr)
	})
	return err
}

// ReadHybrid deserializes a model written by WriteModel, re-binding it to
// the given road network. Every variable path is validated against the
// graph, so a mismatched network fails loudly instead of answering
// nonsense, and every number is parsed strictly, so a corrupt file fails
// with a descriptive error instead of loading garbage or panicking.
//
// Reading stops at a "synopsis-" header. Files written while a model
// could carry an offline synopsis hold that section after the complete
// model records, so they load exactly as the same file without it.
func ReadHybrid(r io.Reader, g *graph.Graph) (*HybridGraph, error) {
	sc := textio.NewScanner(r, 0)
	rd := &hybridReader{sc: sc}

	if line, ok := rd.next(); !ok || line != serialVersion {
		return nil, fmt.Errorf("core: not a %s file", serialVersion)
	}
	line, ok := rd.next()
	if !ok {
		return nil, fmt.Errorf("core: truncated model (params)")
	}
	p, err := ParseParamsLine(line)
	if err != nil {
		return nil, err
	}
	h := newHybrid(g, p)
	var np numParser
	// stats: four totals, then one variable count per rank
	line, ok = rd.next()
	if !ok {
		return nil, fmt.Errorf("core: truncated model (stats)")
	}
	f := strings.Fields(line)
	if len(f) != 5+p.MaxRank || f[0] != "stats" {
		return nil, fmt.Errorf("core: bad stats line %q (want four totals and %d rank counts)", line, p.MaxRank)
	}
	saved := make([]int, len(f)-1)
	for i := range saved {
		saved[i] = np.int(f[1+i])
	}
	if np.err != nil {
		return nil, fmt.Errorf("core: bad stats line %q: %w", line, np.err)
	}

	// variables, up to EOF or a trailing synopsis section
	for {
		line, ok := rd.next()
		if !ok {
			break
		}
		f := strings.Fields(line)
		if strings.HasPrefix(f[0], "synopsis-") {
			break
		}
		if len(f) != 6 || f[0] != "var" {
			return nil, fmt.Errorf("core: expected var line, got %q", line)
		}
		path, err := parsePathKey(f[1])
		if err != nil {
			return nil, err
		}
		if len(path) > p.MaxRank {
			return nil, fmt.Errorf("core: model path %v has %d edges, MaxRank is %d", path, len(path), p.MaxRank)
		}
		if !g.ValidPath(path) {
			return nil, fmt.Errorf("core: model path %v is not valid in this graph", path)
		}
		v := &Variable{
			Path:     path,
			Interval: np.int(f[2]),
			Support:  np.int(f[3]),
			TimeMin:  np.float(f[4]),
			TimeMax:  np.float(f[5]),
		}
		if np.err != nil {
			return nil, fmt.Errorf("core: bad var line %q: %w", line, np.err)
		}
		if v.Interval < 0 || v.Interval >= p.NumIntervals() {
			return nil, fmt.Errorf("core: %v: interval %d outside [0,%d)", path, v.Interval, p.NumIntervals())
		}
		if err := rd.readDistribution(v); err != nil {
			return nil, err
		}
		if !h.put(v) {
			return nil, fmt.Errorf("core: %v: interval %d stored twice", path, v.Interval)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every count but |E″|, a property of the training data, follows
	// from the variables: the file must agree.
	h.stats.EdgesWithData = saved[1]
	if got := h.stats.fields(); !slices.Equal(got, saved) {
		return nil, fmt.Errorf("core: model corrupt: its variables give stats %v, file says %v", got, saved)
	}
	return h, nil
}

// fields lists the stats line's numbers: four totals, then one
// variable count per rank.
func (st BuildStats) fields() []int {
	return append([]int{st.CoveredEdges, st.EdgesWithData, st.StorageFloats, st.SupportTotal}, st.VariablesByRank...)
}

type hybridReader struct {
	sc *bufio.Scanner
}

// next returns the next non-blank line, trimmed.
func (r *hybridReader) next() (string, bool) {
	for r.sc.Scan() {
		line := strings.TrimSpace(r.sc.Text())
		if line != "" {
			return line, true
		}
	}
	return "", false
}

// readDistribution reads the record after v's var line: a histogram
// ("h") for a rank-1 variable, a joint ("m", its bounds and cells) with
// one dimension per edge otherwise.
func (r *hybridReader) readDistribution(v *Variable) error {
	line, ok := r.next()
	if !ok {
		return fmt.Errorf("core: truncated model (distribution of %v)", v.Path)
	}
	var np numParser
	f := strings.Fields(line)
	switch {
	case f[0] == "h" && v.Rank() == 1:
		if len(f) < 2 {
			return fmt.Errorf("core: bad histogram line for %v", v.Path)
		}
		n := np.int(f[1])
		if np.err != nil || n < 1 || n >= len(f) || len(f) != 2+3*n {
			return fmt.Errorf("core: bad histogram line for %v", v.Path)
		}
		bs := make([]hist.Bucket, n)
		for i := range bs {
			bs[i] = hist.Bucket{Lo: np.float(f[2+3*i]), Hi: np.float(f[3+3*i]), Pr: np.float(f[4+3*i])}
		}
		if np.err != nil {
			return fmt.Errorf("core: histogram of %v: %w", v.Path, np.err)
		}
		// Exact, not renormalizing: stored masses already sum to ≈1,
		// and dividing by that almost-one total would perturb every
		// bucket at the bit level — loaded models would then answer
		// slightly differently than the process that trained them, and
		// write→read→write would not reproduce the file.
		hg, err := hist.FromBucketsExact(bs, normTolerance)
		if err != nil {
			return fmt.Errorf("core: %v: %w", v.Path, err)
		}
		v.Hist = hg
		return nil
	case f[0] == "m" && v.Rank() > 1:
		if len(f) != 2 {
			return fmt.Errorf("core: bad joint line for %v", v.Path)
		}
		if dims := np.int(f[1]); np.err != nil || dims != v.Rank() {
			return fmt.Errorf("core: joint of %v has %s dims, want %d", v.Path, f[1], v.Rank())
		}
		m, err := r.readJoint(v.Rank())
		if err != nil {
			return fmt.Errorf("core: joint of %v: %w", v.Path, err)
		}
		v.Joint = m
		return nil
	default:
		return fmt.Errorf("core: unexpected distribution record %q for rank-%d %v", f[0], v.Rank(), v.Path)
	}
}

// readJoint reads a joint's bounds and cell records after its "m" line.
func (r *hybridReader) readJoint(dims int) (*hist.Multi, error) {
	var np numParser
	bounds := make([][]float64, dims)
	for d := range bounds {
		line, ok := r.next()
		if !ok {
			return nil, fmt.Errorf("truncated bounds")
		}
		bf := strings.Fields(line)
		if bf[0] != "b" || len(bf) < 2 {
			return nil, fmt.Errorf("expected bounds line, got %q", line)
		}
		n := np.int(bf[1])
		if np.err != nil || n < 2 || len(bf) != 2+n {
			return nil, fmt.Errorf("bad bounds line %q", line)
		}
		bounds[d] = make([]float64, n)
		for i := range bounds[d] {
			bounds[d][i] = np.float(bf[2+i])
		}
		if np.err != nil {
			return nil, fmt.Errorf("bad bounds line %q: %w", line, np.err)
		}
	}
	m, err := hist.NewMulti(bounds)
	if err != nil {
		return nil, err
	}
	line, ok := r.next()
	if !ok {
		return nil, fmt.Errorf("truncated cells")
	}
	cf := strings.Fields(line)
	if cf[0] != "c" || len(cf) != 2 {
		return nil, fmt.Errorf("expected cell count, got %q", line)
	}
	count := np.int(cf[1])
	if np.err != nil || count < 1 {
		return nil, fmt.Errorf("bad cell count %q", line)
	}
	// Cells were written by ForEachSorted, so they arrive in ascending
	// key order and SetCell appends each one straight onto the columnar
	// arrays — loading builds the sorted layout directly, with no
	// re-sorting and no hashing.
	idx := make([]int, dims)
	for i := 0; i < count; i++ {
		line, ok := r.next()
		if !ok {
			return nil, fmt.Errorf("truncated cell %d of %d", i, count)
		}
		xf := strings.Fields(line)
		if len(xf) != dims+1 {
			return nil, fmt.Errorf("bad cell line %q", line)
		}
		for d := range idx {
			idx[d] = np.int(xf[d])
			if np.err == nil && (idx[d] < 0 || idx[d] >= m.NumBuckets(d)) {
				return nil, fmt.Errorf("cell index %d out of range on dim %d (%d buckets)", idx[d], d, m.NumBuckets(d))
			}
		}
		pr := np.float(xf[dims])
		if np.err != nil {
			return nil, fmt.Errorf("bad cell line %q: %w", line, np.err)
		}
		if pr < 0 {
			return nil, fmt.Errorf("cell probability %v is negative", pr)
		}
		m.SetCell(idx, pr)
	}
	// Validated, not renormalized — see the histogram case.
	if err := m.CheckNormalized(normTolerance); err != nil {
		return nil, err
	}
	return m, nil
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

// numParser parses a record's numbers strictly — garbage, NaN and ±Inf
// are errors, never zero — and keeps the first error, so a record is
// parsed field by field and checked once.
type numParser struct{ err error }

func (np *numParser) int(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil && np.err == nil {
		np.err = fmt.Errorf("bad integer %q", s)
	}
	return n
}

func (np *numParser) float(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if (err != nil || math.IsNaN(v) || math.IsInf(v, 0)) && np.err == nil {
		np.err = fmt.Errorf("bad number %q", s)
	}
	return v
}
