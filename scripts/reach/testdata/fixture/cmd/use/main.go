// Command use is the fixture's one caller.
package main

import (
	"container/heap"
	"fmt"

	"fixture"
)

func main() {
	q := &fixture.Queue{3, 1, 2}
	heap.Init(q)
	fmt.Println(fixture.Used(), heap.Pop(q))
}
