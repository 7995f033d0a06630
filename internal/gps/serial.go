package gps

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/textio"
)

// WriteCollection serializes matched trajectories as line-oriented
// text: one "T id depart edge:cost[:emission] ..." line per
// trajectory. The format round-trips exactly enough for training
// (costs keep three decimals ≈ millisecond precision).
func WriteCollection(w io.Writer, c *Collection) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trajectories %d %d\n", c.Len(), c.Records())
	for i := 0; i < c.Len(); i++ {
		m := c.Traj(i)
		fmt.Fprintf(bw, "T %d %.3f", m.ID, m.Depart)
		for j, e := range m.Path {
			if m.Emissions != nil {
				fmt.Fprintf(bw, " %d:%.3f:%.3f", e, m.EdgeCosts[j], m.Emissions[j])
			} else {
				fmt.Fprintf(bw, " %d:%.3f", e, m.EdgeCosts[j])
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteRaw serializes raw (unmatched) GPS traces as line-oriented
// text: one "R id lat:lon:time ..." line per trace. Latitude and
// longitude keep seven decimals (≈ centimeter precision), timestamps
// three (millisecond precision) — enough for map matching to
// round-trip.
func WriteRaw(w io.Writer, raw []*Trajectory) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "rawgps %d\n", len(raw))
	for _, tr := range raw {
		fmt.Fprintf(bw, "R %d", tr.ID)
		for _, rec := range tr.Records {
			fmt.Fprintf(bw, " %.7f:%.7f:%.3f", rec.Pt.Lat, rec.Pt.Lon, rec.Time)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadRaw parses the format written by WriteRaw. Traces are validated
// structurally (≥ 2 records, strictly increasing time); road-network
// consistency is the map matcher's job.
func ReadRaw(r io.Reader) ([]*Trajectory, error) {
	sc := textio.NewScanner(r, 0)
	if !sc.Scan() {
		return nil, fmt.Errorf("gps: empty raw-trace file")
	}
	header := strings.Fields(strings.TrimSpace(sc.Text()))
	if len(header) != 2 || header[0] != "rawgps" {
		return nil, fmt.Errorf("gps: bad raw-trace header %q", sc.Text())
	}
	count, err := strconv.Atoi(header[1])
	if err != nil || count < 0 {
		return nil, fmt.Errorf("gps: bad raw-trace header %q", sc.Text())
	}
	// Preallocation is capped so a corrupt header cannot demand
	// terabytes; the slice grows normally past the cap.
	prealloc := count
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	raw := make([]*Trajectory, 0, prealloc)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] != "R" || len(fields) < 4 {
			return nil, fmt.Errorf("gps: line %d: bad raw-trace record", line)
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gps: line %d: bad trace id", line)
		}
		tr := &Trajectory{ID: id, Records: make([]Record, 0, len(fields)-2)}
		for _, f := range fields[2:] {
			parts := strings.Split(f, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("gps: line %d: bad fix %q", line, f)
			}
			lat, err1 := strconv.ParseFloat(parts[0], 64)
			lon, err2 := strconv.ParseFloat(parts[1], 64)
			t, err3 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("gps: line %d: bad fix %q", line, f)
			}
			rec := Record{Time: t}
			rec.Pt.Lat, rec.Pt.Lon = lat, lon
			tr.Records = append(tr.Records, rec)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("gps: line %d: %w", line, err)
		}
		raw = append(raw, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(raw) != count {
		return nil, fmt.Errorf("gps: header says %d traces, found %d", count, len(raw))
	}
	return raw, nil
}

// ReadCollection parses the format written by WriteCollection and
// validates every trajectory against the graph.
func ReadCollection(r io.Reader, g *graph.Graph) (*Collection, error) {
	sc := textio.NewScanner(r, 0)
	if !sc.Scan() {
		return nil, fmt.Errorf("gps: empty collection file")
	}
	header := strings.Fields(strings.TrimSpace(sc.Text()))
	if len(header) != 3 || header[0] != "trajectories" {
		return nil, fmt.Errorf("gps: bad collection header %q", sc.Text())
	}
	count, err1 := strconv.Atoi(header[1])
	records, err2 := strconv.ParseInt(header[2], 10, 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("gps: bad collection header %q", sc.Text())
	}
	trajs := make([]*Matched, 0, count)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] != "T" || len(fields) < 4 {
			return nil, fmt.Errorf("gps: line %d: bad trajectory record", line)
		}
		id, err1 := strconv.ParseInt(fields[1], 10, 64)
		depart, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("gps: line %d: bad id or departure", line)
		}
		m := &Matched{ID: id, Depart: depart}
		withEmissions := strings.Count(fields[3], ":") == 2
		if withEmissions {
			m.Emissions = make([]float64, 0, len(fields)-3)
		}
		for _, f := range fields[3:] {
			parts := strings.Split(f, ":")
			if len(parts) < 2 || len(parts) > 3 {
				return nil, fmt.Errorf("gps: line %d: bad edge record %q", line, f)
			}
			e, err1 := strconv.Atoi(parts[0])
			cost, err2 := strconv.ParseFloat(parts[1], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("gps: line %d: bad edge record %q", line, f)
			}
			m.Path = append(m.Path, graph.EdgeID(e))
			m.EdgeCosts = append(m.EdgeCosts, cost)
			if withEmissions {
				if len(parts) != 3 {
					return nil, fmt.Errorf("gps: line %d: missing emission in %q", line, f)
				}
				g, err := strconv.ParseFloat(parts[2], 64)
				if err != nil {
					return nil, fmt.Errorf("gps: line %d: bad emission in %q", line, f)
				}
				m.Emissions = append(m.Emissions, g)
			}
		}
		if err := m.Validate(g); err != nil {
			return nil, fmt.Errorf("gps: line %d: %w", line, err)
		}
		trajs = append(trajs, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(trajs) != count {
		return nil, fmt.Errorf("gps: header says %d trajectories, found %d", count, len(trajs))
	}
	return NewCollection(trajs, records), nil
}
