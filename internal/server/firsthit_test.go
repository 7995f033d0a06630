package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/api"
)

// TestFirstHitsRace: on a fresh cache, eight goroutines make the first
// exact-level hits on the same answers at once, through the handler and
// through the library, in both orders. Every reader sees one digit
// record per answer, and every body is the one json.Marshal writes for
// the answer.
func TestFirstHitsRace(t *testing.T) {
	sys := hitSystem(t)
	sys.EnableQueryCache(256)
	type query struct {
		path    pathcost.Path
		method  pathcost.Method
		payload []byte
		want    []byte
	}
	rnd := rand.New(rand.NewSource(12))
	var qs []query
	for i := 0; len(qs) < 24; i++ {
		p, err := sys.RandomQueryPath(3+rnd.Intn(20), rnd.Intn)
		if err != nil {
			t.Fatal(err)
		}
		q := query{path: p, method: []pathcost.Method{pathcost.OD, pathcost.LB}[i%2]}
		res, err := sys.PathDistribution(p, 8*3600, q.method) // the miss that caches it
		if err != nil {
			t.Fatal(err)
		}
		if res.Decimals() != nil {
			continue // a path drawn twice: its answer has had its first hit
		}
		ans := api.DistributionPayload(string(q.method), sys.Params.IntervalOf(8*3600), res.Dist, 0,
			res.Decomp.Cardinality(), res.Decomp.MaxRank(), res.Timing.Total().Microseconds())
		if q.want, err = json.Marshal(ans); err != nil {
			t.Fatal(err)
		}
		q.want = append(q.want, '\n')
		if q.payload, err = json.Marshal(distributionRequest{Path: api.EdgeIDs(p), Depart: 8 * 3600, Method: string(q.method)}); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	h := New(sys, Config{}).Handler()
	const readers = 8
	records := make([][]*uint64, readers)
	bodies := make([][][]byte, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range readers {
		records[g], bodies[g] = make([]*uint64, len(qs)), make([][]byte, len(qs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, q := range qs {
				serve := func() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/distribution", bytes.NewReader(q.payload)))
					bodies[g][i] = rec.Body.Bytes()
				}
				if g%2 == 0 {
					serve()
				}
				res, err := sys.PathDistribution(q.path, 8*3600, q.method)
				if err != nil {
					t.Error(err)
					return
				}
				if d := res.Decimals(); len(d) > 0 {
					records[g][i] = &d[0]
				}
				if g%2 == 1 {
					serve()
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, q := range qs {
		for g := range readers {
			if records[g][i] == nil || records[g][i] != records[0][i] {
				t.Fatalf("answer %d: reader %d saw record %p, reader 0 %p: want one record per answer", i, g, records[g][i], records[0][i])
			}
			if !bytes.Equal(bodies[g][i], q.want) {
				t.Fatalf("answer %d: reader %d got\n%s\njson.Marshal writes\n%s", i, g, bodies[g][i], q.want)
			}
		}
	}
}
