// Package fixture is the reachability checker's test input: Dead has
// no reference, TestOnly is called only from a _test.go file, Used is
// called by cmd/use, and Queue's methods are heap.Interface's.
package fixture

// Dead is referenced nowhere.
func Dead() int { return 1 }

// TestOnly is referenced only by fixture_test.go.
func TestOnly() int { return 2 }

// Used is called by cmd/use.
func Used() int { return 3 }

// Queue is a min-heap of ints; container/heap calls its methods.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}
