package shard

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	pathcost "repro"
)

func TestNewPartitionDeterministicAndComplete(t *testing.T) {
	sys := testSystem(t)
	for _, k := range []int{1, 2, 3, 4} {
		p1, err := NewPartition(sys.Graph, k, sys.Params)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		p2, err := NewPartition(sys.Graph, k, sys.Params)
		if err != nil {
			t.Fatalf("k=%d second run: %v", k, err)
		}
		if !reflect.DeepEqual(p1.Vertex, p2.Vertex) {
			t.Fatalf("k=%d: partition is not deterministic", k)
		}
		if len(p1.Vertex) != sys.Graph.NumVertices() {
			t.Fatalf("k=%d: %d assignments for %d vertices", k, len(p1.Vertex), sys.Graph.NumVertices())
		}
		seen := make([]bool, k)
		for v, r := range p1.Vertex {
			if r < 0 || r >= k {
				t.Fatalf("k=%d: vertex %d in region %d", k, v, r)
			}
			seen[r] = true
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("k=%d: region %d owns no vertices", k, r)
			}
		}
	}
}

func TestNewPartitionRejectsBadK(t *testing.T) {
	sys := testSystem(t)
	if _, err := NewPartition(sys.Graph, 0, sys.Params); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewPartition(sys.Graph, sys.Graph.NumVertices()+1, sys.Params); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSegmentPathReconstructsAndIsMaximal(t *testing.T) {
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range queryPaths(t, sys, 50, 3) {
		segs := part.SegmentPath(sys.Graph, p)
		var rebuilt pathcost.Path
		for i, s := range segs {
			if len(s.Path) == 0 {
				t.Fatalf("empty segment for %v", p)
			}
			for _, e := range s.Path {
				if part.EdgeRegion(sys.Graph, e) != s.Region {
					t.Fatalf("segment %d claims region %d but edge %d is in %d",
						i, s.Region, e, part.EdgeRegion(sys.Graph, e))
				}
			}
			if i > 0 && segs[i-1].Region == s.Region {
				t.Fatalf("adjacent segments share region %d: not maximal", s.Region)
			}
			rebuilt = append(rebuilt, s.Path...)
		}
		if !reflect.DeepEqual(rebuilt, p) {
			t.Fatalf("segments do not concatenate to the path: %v vs %v", rebuilt, p)
		}
	}
	if segs := part.SegmentPath(sys.Graph, nil); segs != nil {
		t.Fatalf("empty path segmented to %v", segs)
	}
}

func TestPartitionWriteReadRoundTrip(t *testing.T) {
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := part.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadPartition(bytes.NewReader(buf.Bytes()), sys.Graph)
	if err != nil {
		t.Fatalf("ReadPartition: %v", err)
	}
	if got.K != part.K || !reflect.DeepEqual(got.Vertex, part.Vertex) {
		t.Fatal("round-trip changed the region assignment")
	}
	// The params line carries the model file's 10 fields and the
	// reader restores the rest from DefaultParams, as the model
	// reader does.
	if got.Params != part.Params {
		t.Fatalf("round-trip changed params:\n%+v\nvs\n%+v", got.Params, part.Params)
	}
}

// TestReadPartitionValidatesParams: a partition's params pass the
// model reader's checks. With α = 0 the coordinator's interval grid
// divides by zero (IntervalOf(28800) was math.MinInt64).
func TestReadPartitionValidatesParams(t *testing.T) {
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 2, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	part.Params.AlphaMinutes = 0
	var buf bytes.Buffer
	if err := part.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPartition(&buf, sys.Graph); err == nil || !strings.Contains(err.Error(), "α = 0") {
		t.Fatalf("a partition with α = 0: %v, want it rejected", err)
	}
}

func TestReadPartitionRejectsGarbage(t *testing.T) {
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 2, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := part.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"empty":           "",
		"wrong version":   strings.Replace(good, partitionVersion, "partition-v9", 1),
		"no params":       strings.SplitAfter(good, "\n")[0],
		"truncated":       good[:len(good)/2],
		"missing end":     strings.Replace(good, "end-partition\n", "", 1),
		"region range":    strings.Replace(good, "region 0", "region 7", 1),
		"negative region": strings.Replace(good, "region 0", "region -1", 1),
		"junk line":       strings.Replace(good, "end-partition", "junk 1 2 3\nend-partition", 1),
		"binary":          "\x00\xff\x13\x37",
	}
	for name, data := range cases {
		if _, err := ReadPartition(strings.NewReader(data), sys.Graph); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSplitModelPartitionsVariables(t *testing.T) {
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	split, err := SplitModel(sys, part)
	if err != nil {
		t.Fatalf("SplitModel: %v", err)
	}
	if len(split.Shards) != 3 {
		t.Fatalf("%d shards, want 3", len(split.Shards))
	}
	// The synthesized workload concentrates trips, so a region may
	// legitimately own zero trajectory-backed variables (it still
	// serves its edges through the loader's fallbacks); what must hold
	// is that the shards partition exactly the union's variables.
	shardVars, unionVars, totalVars := 0, 0, 0
	for _, ss := range split.Shards {
		shardVars += ss.Stats().TotalVariables()
	}
	unionVars = split.Union.Stats().TotalVariables()
	totalVars = sys.Stats().TotalVariables()
	if shardVars != unionVars {
		t.Errorf("shards hold %d variables, union holds %d — must be a disjoint union", shardVars, unionVars)
	}
	if unionVars+split.Dropped != totalVars {
		t.Errorf("union %d + dropped %d != total %d", unionVars, split.Dropped, totalVars)
	}
	if split.Dropped == 0 {
		t.Error("no variables dropped: the partition cut nothing, test is vacuous")
	}

	// A written shard model round-trips through the standard loader
	// with its variable count intact — the pathcostd -model contract.
	var buf bytes.Buffer
	if err := split.Shards[1].SaveModel(&buf); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	loaded, err := pathcost.LoadSystem(sys.Graph, nil, &buf)
	if err != nil {
		t.Fatalf("loading written shard model: %v", err)
	}
	if got, want := loaded.Stats().TotalVariables(), split.Shards[1].Stats().TotalVariables(); got != want {
		t.Errorf("loaded shard model has %d variables, want %d", got, want)
	}
}

// TestReadPartitionLineLengthCap: the partition reader's scanner starts
// small and grows, and must still accept what the fixed 1 MiB buffer
// accepted — a line just under the cap loads, one over it fails as
// before (the scan stops there, which the reader reports as a
// truncated file).
func TestReadPartitionLineLengthCap(t *testing.T) {
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := part.Write(&buf); err != nil {
		t.Fatal(err)
	}
	padded := func(n int) string {
		return strings.Replace(buf.String(), "region ", "region "+strings.Repeat(" ", n), 1)
	}
	got, err := ReadPartition(strings.NewReader(padded(900<<10)), sys.Graph)
	if err != nil {
		t.Fatalf("partition with a 900 KiB line: %v", err)
	}
	if !reflect.DeepEqual(got.Vertex, part.Vertex) {
		t.Fatal("partition with a 900 KiB line changed the region assignment")
	}
	if _, err := ReadPartition(strings.NewReader(padded(1<<20)), sys.Graph); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("partition with a line over 1 MiB: %v, want the truncated-file error", err)
	}
}
