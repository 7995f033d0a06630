package api

import (
	"math"
	"testing"
	"time"
)

// TestParseBudgetBoundary pins the header's range: up to
// math.MaxInt64/1e6 ms a budget is exact; past it, where the product
// with time.Millisecond would wrap (to a negative "unbounded" budget, or
// to a few hundred microseconds), it clamps to the largest Duration — no
// tighter than the tier's default. A value past int64 is still garbage.
func TestParseBudgetBoundary(t *testing.T) {
	const maxMs = math.MaxInt64 / int64(time.Millisecond)
	for _, tc := range []struct {
		val  string
		want time.Duration
		ok   bool
	}{
		{"1", time.Millisecond, true},
		{"40", 40 * time.Millisecond, true},
		{"9223372036854", time.Duration(maxMs) * time.Millisecond, true},
		{"9223372036855", math.MaxInt64, true},
		{"18446744073710", math.MaxInt64, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"9223372036854775808", 0, false},
		{"0", 0, false},
		{"-1", 0, false},
	} {
		got, ok, err := ParseBudget(tc.val)
		if ok != tc.ok || (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBudget(%q) = %v, %v, %v; want %v, %v", tc.val, got, ok, err, tc.want, tc.ok)
		}
	}
}
