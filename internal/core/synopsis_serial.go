package core

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/hist"
)

// synopsisVersion tags the synopsis section of a model file. The
// section is optional and versioned independently of the surrounding
// model format: models written before the synopsis existed load with
// an empty synopsis, and an unknown section version fails loudly
// instead of being misparsed.
const synopsisVersion = "synopsis-v1"

// normTolerance bounds how far a deserialized distribution's total
// mass may sit from one. Stored masses are exact images of normalized
// in-memory values, so anything beyond float accumulation noise means
// corruption.
const normTolerance = 1e-6

// writeSynopsis appends the synopsis section: a header, one entry per
// materialized state in sorted key order (so output is deterministic),
// and a trailer that guards against truncation.
func writeSynopsis(w io.Writer, syn *SynopsisStore) error {
	if _, err := fmt.Fprintf(w, "%s %d %s %d\n",
		synopsisVersion, len(syn.keys), syn.opt.Method, syn.opt.RankCap); err != nil {
		return err
	}
	for _, k := range syn.keys {
		if err := writeSynopsisEntry(w, syn.entries[k]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "end-synopsis")
	return err
}

// writeSynopsisEntry serializes one materialized PathState: its path
// and departure, the decomposition as references into the model
// (variables are stored once, in the var records; the synopsis only
// names them), and the chain states that make extension and
// marginalization possible without recomputation. The "pre" record —
// the last factor's product, which the state no longer keeps — is
// rebuilt for the file, whose format predates that; the reader drops it.
func writeSynopsisEntry(w io.Writer, st *PathState) error {
	if _, err := fmt.Fprintf(w, "syn %s %g %d 1\n",
		st.path.Key(), st.t, len(st.de.Vars)); err != nil {
		return err
	}
	for i, v := range st.de.Vars {
		var err error
		if v.SpeedLimit {
			_, err = fmt.Fprintf(w, "u %d %d\n", st.de.Pos[i], v.Path[0])
		} else {
			_, err = fmt.Fprintf(w, "v %d %s %d\n", st.de.Pos[i], v.Path.Key(), v.Interval)
		}
		if err != nil {
			return err
		}
	}
	for _, cs := range st.inter {
		if err := writeChainState(w, "state", cs); err != nil {
			return err
		}
	}
	last := len(st.de.Vars) - 1
	pre, err := st.lastProduct(factorPositions(st.de, last))
	if err != nil {
		return err
	}
	err = writeChainState(w, "pre", pre)
	hist.PutMulti(pre.m)
	return err
}

func writeChainState(w io.Writer, tag string, cs *chainState) error {
	if _, err := fmt.Fprintf(w, "%s %d", tag, len(cs.open)); err != nil {
		return err
	}
	for _, q := range cs.open {
		if _, err := fmt.Fprintf(w, " %d", q); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return writeMultiRaw(w, cs.m)
}

// writeMultiRaw dumps a Multi exactly (the %g verb is the shortest
// representation that parses back to the same float64, so the dump is
// lossless); cells go out in sorted key order for determinism.
func writeMultiRaw(w io.Writer, m *hist.Multi) error {
	if _, err := fmt.Fprintf(w, "m %d\n", m.Dims()); err != nil {
		return err
	}
	for d := 0; d < m.Dims(); d++ {
		bd := m.Bounds(d)
		if _, err := fmt.Fprintf(w, "b %d", len(bd)); err != nil {
			return err
		}
		for _, x := range bd {
			if _, err := fmt.Fprintf(w, " %g", x); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "c %d\n", m.NumCells()); err != nil {
		return err
	}
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

// countWriter measures serialized size without buffering anything.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// synopsisEntryBytes returns the serialized size of one entry — the
// unit the byte budget of BuildSynopsis is charged in, and the size
// reported by SynopsisStats.Bytes for built and loaded stores alike.
func synopsisEntryBytes(st *PathState) (int, error) {
	var cw countWriter
	if err := writeSynopsisEntry(&cw, st); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// --- reading ----------------------------------------------------------

// Strict numeric parsing: the model reader's lenient atoi/atof (which
// map garbage to zero) are fine for the trusted var records it guards
// with cross-checks, but the synopsis section promises descriptive
// errors on corruption, so every number is parsed loudly here.

func atoiStrict(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("core: synopsis: bad integer %q", s)
	}
	return n, nil
}

// factorPos parses a factor's query position, rejecting anything
// outside the entry path before it can reach Decomposition.Validate —
// whose pos+rank bound check can overflow on adversarial positions,
// turning a corrupt file into an index panic downstream.
func factorPos(s string, pathLen int) (int, error) {
	pos, err := atoiStrict(s)
	if err != nil {
		return 0, err
	}
	if pos < 0 || pos >= pathLen {
		return 0, fmt.Errorf("core: synopsis: factor position %d outside the %d-edge path", pos, pathLen)
	}
	return pos, nil
}

func atofStrict(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("core: synopsis: bad number %q", s)
	}
	return v, nil
}

// readSynopsis parses the synopsis section whose header line has
// already been consumed. h must be fully loaded: entries resolve their
// decomposition factors against the model's variables (by path and
// interval), so the in-memory synopsis shares Variable pointers with
// the model exactly as a freshly built one does.
func readSynopsis(rd *hybridReader, h *HybridGraph, header string) (*SynopsisStore, error) {
	f := strings.Fields(header)
	if f[0] != synopsisVersion {
		return nil, fmt.Errorf("core: unsupported synopsis section %q (this build reads %s)", f[0], synopsisVersion)
	}
	if len(f) != 4 {
		return nil, fmt.Errorf("core: bad synopsis header %q", header)
	}
	count, err := atoiStrict(f[1])
	if err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("core: synopsis entry count %d is negative", count)
	}
	opt := QueryOptions{Method: Method(f[2])}
	if !memoizable(opt.Method) {
		return nil, fmt.Errorf("core: synopsis method %q has no incremental evaluator", f[2])
	}
	if opt.RankCap, err = atoiStrict(f[3]); err != nil {
		return nil, err
	}
	syn := newSynopsisStore(opt)
	for i := 0; i < count; i++ {
		st, err := readSynopsisEntry(rd, h, opt)
		if err != nil {
			return nil, fmt.Errorf("core: synopsis entry %d/%d: %w", i+1, count, err)
		}
		key := memoKey(st.path.Key(), st.t, opt)
		if _, dup := syn.entries[key]; dup {
			return nil, fmt.Errorf("core: synopsis entry %d/%d: duplicate entry for %v", i+1, count, st.path)
		}
		nbytes, err := synopsisEntryBytes(st)
		if err != nil {
			return nil, err
		}
		syn.add(key, st, nbytes)
	}
	line, ok := rd.next()
	if !ok || line != "end-synopsis" {
		return nil, fmt.Errorf("core: synopsis section truncated (missing end-synopsis trailer)")
	}
	return syn, nil
}

func readSynopsisEntry(rd *hybridReader, h *HybridGraph, opt QueryOptions) (*PathState, error) {
	line, ok := rd.next()
	if !ok {
		return nil, fmt.Errorf("truncated (expected syn record)")
	}
	f := strings.Fields(line)
	if len(f) != 5 || f[0] != "syn" {
		return nil, fmt.Errorf("expected syn record, got %q", line)
	}
	path, err := parsePathKey(f[1])
	if err != nil {
		return nil, err
	}
	if !h.G.ValidPath(path) {
		return nil, fmt.Errorf("path %v is not valid in this graph", path)
	}
	depart, err := atofStrict(f[2])
	if err != nil {
		return nil, err
	}
	nFactors, err := atoiStrict(f[3])
	if err != nil {
		return nil, err
	}
	if nFactors < 1 || nFactors > len(path) {
		return nil, fmt.Errorf("factor count %d out of range [1,%d]", nFactors, len(path))
	}
	hasPre, err := atoiStrict(f[4])
	if err != nil {
		return nil, err
	}
	if hasPre != 0 && hasPre != 1 {
		return nil, fmt.Errorf("preFold flag %d must be 0 or 1", hasPre)
	}

	de := &Decomposition{
		Vars: make([]*Variable, nFactors),
		Pos:  make([]int, nFactors),
	}
	for i := 0; i < nFactors; i++ {
		line, ok := rd.next()
		if !ok {
			return nil, fmt.Errorf("truncated (factor %d of %v)", i, path)
		}
		ff := strings.Fields(line)
		switch {
		case ff[0] == "v" && len(ff) == 4:
			pos, err := factorPos(ff[1], len(path))
			if err != nil {
				return nil, err
			}
			vp, err := parsePathKey(ff[2])
			if err != nil {
				return nil, err
			}
			iv, err := atoiStrict(ff[3])
			if err != nil {
				return nil, err
			}
			v := h.LookupInterval(vp, iv)
			if v == nil {
				return nil, fmt.Errorf("factor %v@%d not found in this model", vp, iv)
			}
			de.Vars[i], de.Pos[i] = v, pos
		case ff[0] == "u" && len(ff) == 3:
			pos, err := factorPos(ff[1], len(path))
			if err != nil {
				return nil, err
			}
			e, err := atoiStrict(ff[2])
			if err != nil {
				return nil, err
			}
			if e < 0 || e >= h.G.NumEdges() {
				return nil, fmt.Errorf("fallback edge %d out of range [0,%d)", e, h.G.NumEdges())
			}
			de.Vars[i], de.Pos[i] = h.fallbackVariable(graph.EdgeID(e)), pos
		default:
			return nil, fmt.Errorf("expected factor record, got %q", line)
		}
	}
	if err := de.Validate(path); err != nil {
		return nil, fmt.Errorf("stored decomposition invalid: %w", err)
	}

	// The interval past the last edge, which the file does not hold: Eq. 3
	// chained over the unit variables, as the candidate array chains it.
	next := TimeInterval{Lo: depart, Hi: depart}
	for _, e := range path {
		next = sae(next, h.bestUnitVariable(e, next, nil))
	}
	st := &PathState{h: h, path: path, t: depart, opt: opt, de: de, next: next}
	st.inter = make([]*chainState, nFactors)
	for i := 0; i < nFactors; i++ {
		cs, err := readChainState(rd, "state", len(path))
		if err != nil {
			return nil, fmt.Errorf("chain state %d of %v: %w", i, path, err)
		}
		st.inter[i] = cs
	}
	if hasPre == 1 {
		// Checked like every record, then dropped: lastProduct rebuilds it.
		if _, err := readChainState(rd, "pre", len(path)); err != nil {
			return nil, fmt.Errorf("pre-fold state of %v: %w", path, err)
		}
	}
	return st, nil
}

func readChainState(rd *hybridReader, tag string, pathLen int) (*chainState, error) {
	line, ok := rd.next()
	if !ok {
		return nil, fmt.Errorf("truncated (expected %s record)", tag)
	}
	f := strings.Fields(line)
	if f[0] != tag || len(f) < 2 {
		return nil, fmt.Errorf("expected %s record, got %q", tag, line)
	}
	nOpen, err := atoiStrict(f[1])
	if err != nil {
		return nil, err
	}
	if nOpen < 0 || nOpen >= hist.MaxDims || len(f) != 2+nOpen {
		return nil, fmt.Errorf("bad open-dimension list %q", line)
	}
	open := make([]int, nOpen)
	for i := range open {
		q, err := atoiStrict(f[2+i])
		if err != nil {
			return nil, err
		}
		if q < 0 || q >= pathLen || (i > 0 && q <= open[i-1]) {
			return nil, fmt.Errorf("open positions %v not ascending within the path", f[2:])
		}
		open[i] = q
	}
	m, err := readMultiRaw(rd)
	if err != nil {
		return nil, err
	}
	if m.Dims() != 1+nOpen {
		return nil, fmt.Errorf("state joint has %d dims, want %d (acc + open)", m.Dims(), 1+nOpen)
	}
	return &chainState{m: m, open: open}, nil
}

// readMultiRaw parses a writeMultiRaw dump, validating every index and
// probability so corrupt files error descriptively instead of
// panicking, and checking — not restoring — normalization so values
// stay bit-exact.
func readMultiRaw(rd *hybridReader) (*hist.Multi, error) {
	line, ok := rd.next()
	if !ok {
		return nil, fmt.Errorf("truncated (expected m record)")
	}
	f := strings.Fields(line)
	if f[0] != "m" || len(f) != 2 {
		return nil, fmt.Errorf("expected m record, got %q", line)
	}
	dims, err := atoiStrict(f[1])
	if err != nil {
		return nil, err
	}
	if dims < 1 || dims > hist.MaxDims {
		return nil, fmt.Errorf("dimension count %d out of range [1,%d]", dims, hist.MaxDims)
	}
	bounds := make([][]float64, dims)
	for d := 0; d < dims; d++ {
		line, ok := rd.next()
		if !ok {
			return nil, fmt.Errorf("truncated (bounds of dim %d)", d)
		}
		bf := strings.Fields(line)
		if bf[0] != "b" || len(bf) < 2 {
			return nil, fmt.Errorf("expected b record, got %q", line)
		}
		n, err := atoiStrict(bf[1])
		if err != nil {
			return nil, err
		}
		if n < 2 || len(bf) != 2+n {
			return nil, fmt.Errorf("bad bounds record %q", line)
		}
		bounds[d] = make([]float64, n)
		for i := 0; i < n; i++ {
			if bounds[d][i], err = atofStrict(bf[2+i]); err != nil {
				return nil, err
			}
		}
	}
	m, err := hist.NewMulti(bounds)
	if err != nil {
		return nil, err
	}
	line, ok = rd.next()
	if !ok {
		return nil, fmt.Errorf("truncated (expected c record)")
	}
	cf := strings.Fields(line)
	if cf[0] != "c" || len(cf) != 2 {
		return nil, fmt.Errorf("expected c record, got %q", line)
	}
	count, err := atoiStrict(cf[1])
	if err != nil {
		return nil, err
	}
	if count < 1 {
		return nil, fmt.Errorf("cell count %d must be positive", count)
	}
	// Cells were written in sorted key order, so SetCell appends each
	// one straight onto the columnar arrays — the sorted layout is
	// rebuilt directly (out-of-order cells in a hand-edited file still
	// load correctly through SetCell's insertion path).
	idx := make([]int, dims)
	for i := 0; i < count; i++ {
		line, ok := rd.next()
		if !ok {
			return nil, fmt.Errorf("truncated (cell %d of %d)", i, count)
		}
		xf := strings.Fields(line)
		if len(xf) != dims+1 {
			return nil, fmt.Errorf("bad cell record %q", line)
		}
		for d := 0; d < dims; d++ {
			j, err := atoiStrict(xf[d])
			if err != nil {
				return nil, err
			}
			if j < 0 || j >= m.NumBuckets(d) {
				return nil, fmt.Errorf("cell index %d out of range on dim %d (%d buckets)", j, d, m.NumBuckets(d))
			}
			idx[d] = j
		}
		pr, err := atofStrict(xf[dims])
		if err != nil {
			return nil, err
		}
		if pr < 0 {
			return nil, fmt.Errorf("cell probability %v is negative", pr)
		}
		m.SetCell(idx, pr)
	}
	if err := m.CheckNormalized(normTolerance); err != nil {
		return nil, err
	}
	return m, nil
}
