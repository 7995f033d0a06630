package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

var (
	envOnce sync.Once
	envInst *Env
)

func tinyEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() { envInst = NewEnv(Tiny()) })
	return envInst
}

// TestAllFiguresRunOnTinyWorkload executes every registered experiment
// end to end on the tiny environment and checks structural sanity of
// the outputs (every figure produces rows, titles and renders).
func TestAllFiguresRunOnTinyWorkload(t *testing.T) {
	e := tinyEnv(t)
	for _, id := range IDs() {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			tab, err := Run(e, id)
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("figure %s produced no rows", id)
			}
			out := tab.Render()
			if !strings.Contains(out, tab.Title) {
				t.Fatalf("figure %s render missing title", id)
			}
			for _, n := range tab.Notes {
				if strings.Contains(n, "WARNING") {
					t.Logf("figure %s: %s", id, n)
				}
			}
		})
	}
}

// TestFiguresGolden pins every table of the tiny workload that is a
// pure function of its seed — all but the timing figures 16–18 — so a
// refactor cannot move a digit unnoticed. -update rewrites the file,
// only for a change whose point is to move figures.
func TestFiguresGolden(t *testing.T) {
	e := tinyEnv(t)
	var got bytes.Buffer
	for _, id := range []string{"3", "4", "5", "8", "9", "10", "11", "12", "13", "14", "15"} {
		tab, err := Run(e, id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		got.WriteString(tab.Render())
	}
	path := filepath.Join("testdata", "figures-tiny.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figures changed:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	e := tinyEnv(t)
	if _, err := Run(e, "99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bbbb"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 5)
	out := tab.Render()
	if !strings.Contains(out, "hello 5") {
		t.Fatal("note missing")
	}
	if !strings.Contains(out, "----") {
		t.Fatal("separator missing")
	}
}

func TestFigureShapesOnTinyWorkload(t *testing.T) {
	// Beyond "it runs": check the headline orderings hold even on the
	// tiny workload where they are expected to.
	e := tinyEnv(t)
	tab, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	// Sparseness: support at |P|=1 must exceed support at |P|=25.
	first := tab.Rows[0][1]
	last := tab.Rows[len(tab.Rows)-1][1]
	if atoiSafe(first) <= atoiSafe(last) {
		t.Errorf("fig3: support did not decay: %s .. %s", first, last)
	}
}

func TestRoutePairsFound(t *testing.T) {
	e := tinyEnv(t)
	pairs := e.routePairs(e.Params())
	if len(pairs) == 0 {
		t.Fatal("no route pairs found")
	}
	for _, p := range pairs {
		if p.src == p.dst || p.freeflow <= 0 {
			t.Fatalf("bad pair %+v", p)
		}
	}
}
