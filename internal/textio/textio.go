package textio

import (
	"bufio"
	"io"
)

// MaxLine is the longest line, terminator included, the text formats
// accept; a longer one ends the scan with bufio.ErrTooLong.
const MaxLine = 1 << 20

// startBuf is the scanner's initial buffer: large enough that bulk
// files are read in few calls, small enough that opening a reader is
// not itself an allocation worth measuring. Longer lines grow it by
// doubling, up to MaxLine.
const startBuf = 64 << 10

// NewScanner returns a line scanner over r that accepts lines up to
// MaxLine bytes. sizeHint is the input's length when the caller knows
// it (the scanner then starts no larger than the input), 0 otherwise.
func NewScanner(r io.Reader, sizeHint int) *bufio.Scanner {
	n := startBuf
	if sizeHint > 0 && sizeHint < n {
		n = sizeHint
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, n), MaxLine)
	return sc
}
