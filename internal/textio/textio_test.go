package textio

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestNewScannerLineCap(t *testing.T) {
	long := "x" + strings.Repeat(" ", 900<<10) + "y"
	sc := NewScanner(strings.NewReader("first\n"+long+"\nlast\n"), 0)
	var got []string
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("a %d-byte line: %v", len(long), err)
	}
	if len(got) != 3 || got[0] != "first" || got[1] != long || got[2] != "last" {
		t.Fatalf("scanned %d lines, the long one %d bytes", len(got), len(got[min(1, len(got)-1)]))
	}

	sc = NewScanner(strings.NewReader("first\n"+strings.Repeat("z", MaxLine+1)+"\nlast\n"), 0)
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 1 || !errors.Is(sc.Err(), bufio.ErrTooLong) {
		t.Fatalf("a line over MaxLine: %d lines scanned, err %v; want 1 and bufio.ErrTooLong", n, sc.Err())
	}
}

// TestNewScannerStartsSmall: opening a scanner must not cost the
// MaxLine-sized buffer it may eventually grow to.
func TestNewScannerStartsSmall(t *testing.T) {
	for _, c := range []struct {
		hint, budget int
	}{{0, startBuf + 4<<10}, {300, 4 << 10}} {
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			sc := NewScanner(strings.NewReader("a b c\nd e f\n"), c.hint)
			for sc.Scan() {
			}
		}
		runtime.ReadMemStats(&m1)
		if per := int(m1.TotalAlloc-m0.TotalAlloc) / runs; per > c.budget {
			t.Errorf("size hint %d: scanning two short lines allocated %d bytes, budget %d", c.hint, per, c.budget)
		}
	}
}
