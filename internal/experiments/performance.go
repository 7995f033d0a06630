package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Fig16 reproduces the query-efficiency study (Figure 16): average
// run-time of estimating one path's cost distribution, per method and
// query cardinality, including the rank-capped OD-2/OD-3/OD-4.
func Fig16(e *Env) (*Table, error) {
	params := e.Params()
	h, err := e.Hybrid(params, 1)
	if err != nil {
		return nil, err
	}
	variants := []queryVariant{
		{"OD", core.QueryOptions{Method: core.MethodOD}},
		{"RD", core.QueryOptions{Method: core.MethodRD, Seed: 3}},
		{"HP", core.QueryOptions{Method: core.MethodHP}},
		{"LB", core.QueryOptions{Method: core.MethodLB}},
		{"OD-4", core.QueryOptions{Method: core.MethodOD, RankCap: 4}},
		{"OD-3", core.QueryOptions{Method: core.MethodOD, RankCap: 3}},
		{"OD-2", core.QueryOptions{Method: core.MethodOD, RankCap: 2}},
	}
	t := &Table{
		ID:     "fig16",
		Title:  fmt.Sprintf("Query run-time per method, %s (avg ms per path)", e.Cfg.Name),
		Header: append([]string{"|P|"}, names(variants)...),
	}
	depart := departureFor(params, params.IntervalOf(8*3600))
	for _, card := range []int{10, 20, 40, 60} {
		paths := e.randomPaths(card, e.Cfg.PathsPerPoint, 1000+int64(card))
		if len(paths) == 0 {
			continue
		}
		row := []string{d0(card)}
		for _, v := range variants {
			var total time.Duration
			n := 0
			for _, p := range paths {
				start := time.Now()
				if _, err := h.CostDistribution(p, depart, v.opt); err != nil {
					continue
				}
				total += time.Since(start)
				n++
			}
			if n == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, ms(float64(total.Microseconds())/1000/float64(n)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note("paper shape: OD fastest (fewest, coarsest factors); LB and HP slowest; OD-x faster for larger x")
	return t, nil
}

// queryVariant names one estimator configuration of Figure 16.
type queryVariant struct {
	name string
	opt  core.QueryOptions
}

func names(vs []queryVariant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name
	}
	return out
}

// Fig17 reproduces the OD run-time breakdown (Figure 17): time in the
// three steps — OI (identify optimal decomposition), JC (joint
// computation), MC (marginal derivation) — as the dataset grows.
func Fig17(e *Env) (*Table, error) {
	params := e.Params()
	t := &Table{
		ID:     "fig17",
		Title:  fmt.Sprintf("OD run-time breakdown, %s (|P|=20, avg ms)", e.Cfg.Name),
		Header: []string{"fraction", "OI", "JC", "MC", "total"},
	}
	paths := e.randomPaths(20, e.Cfg.PathsPerPoint, 1717)
	depart := departureFor(params, params.IntervalOf(8*3600))
	for _, frac := range []float64{0.25, 0.5, 0.75, 1} {
		h, err := e.Hybrid(params, frac)
		if err != nil {
			return nil, err
		}
		var oi, jc, mc time.Duration
		n := 0
		for _, p := range paths {
			res, err := h.CostDistribution(p, depart, core.QueryOptions{Method: core.MethodOD})
			if err != nil {
				continue
			}
			oi += res.Timing.OI
			jc += res.Timing.JC
			mc += res.Timing.MC
			n++
		}
		if n == 0 {
			continue
		}
		nf := float64(n)
		t.AddRow(pct(frac),
			ms(float64(oi.Microseconds())/1000/nf),
			ms(float64(jc.Microseconds())/1000/nf),
			ms(float64(mc.Microseconds())/1000/nf),
			ms(float64((oi+jc+mc).Microseconds())/1000/nf))
	}
	t.Note("paper shape: JC dominates; OI and MC are cheap")
	return t, nil
}

// Fig18 reproduces the stochastic-routing integration study
// (Figure 18): DFS budget-query run-times with LB, HP and OD cost
// estimators under three budget levels.
func Fig18(e *Env) (*Table, error) {
	params := e.Params()
	h, err := e.Hybrid(params, 1)
	if err != nil {
		return nil, err
	}
	r := routing.New(h)
	t := &Table{
		ID:     "fig18",
		Title:  fmt.Sprintf("Stochastic routing run-time, %s (avg ms per query)", e.Cfg.Name),
		Header: []string{"budget", "LB-DFS", "HP-DFS", "OD-DFS", "#queries"},
	}
	pairs := e.routePairs(params)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("fig18: no routable pairs")
	}
	for _, budgetMult := range []float64{1.3, 1.8, 2.5} {
		times := make(map[core.Method]time.Duration)
		n := 0
		for _, pr := range pairs {
			ok := true
			for _, m := range []core.Method{core.MethodLB, core.MethodHP, core.MethodOD} {
				start := time.Now()
				_, err := r.BestPath(routing.Query{
					Source: pr.src, Dest: pr.dst,
					Depart: 8 * 3600, Budget: pr.freeflow * budgetMult,
				}, routing.Options{Method: m, MaxExpansions: 3000})
				if err != nil {
					ok = false
					break
				}
				times[m] += time.Since(start)
			}
			if ok {
				n++
			}
		}
		if n == 0 {
			continue
		}
		nf := float64(n)
		t.AddRow(fmt.Sprintf("%.1f×ff", budgetMult),
			ms(float64(times[core.MethodLB].Microseconds())/1000/nf),
			ms(float64(times[core.MethodHP].Microseconds())/1000/nf),
			ms(float64(times[core.MethodOD].Microseconds())/1000/nf),
			d0(n))
	}
	t.Note("paper shape: OD-DFS outperforms HP-DFS and LB-DFS at every budget")
	return t, nil
}

type routePair struct {
	src, dst graph.VertexID
	freeflow float64
}

// routePairs samples reachable OD pairs with moderate free-flow times.
func (e *Env) routePairs(params core.Params) []routePair {
	rnd := newRand(99)
	var out []routePair
	for attempt := 0; attempt < 500 && len(out) < e.Cfg.RoutePairs; attempt++ {
		src := graph.VertexID(rnd.Intn(e.G.NumVertices()))
		dists := e.G.ShortestDistances(src, graph.FreeFlowWeight)
		var dst graph.VertexID = -1
		best := 0.0
		for v, d := range dists {
			if graph.VertexID(v) == src {
				continue
			}
			if d > best && d < 600 && d > 120 {
				best = d
				dst = graph.VertexID(v)
			}
		}
		if dst >= 0 {
			out = append(out, routePair{src: src, dst: dst, freeflow: best})
		}
	}
	return out
}
