package hist

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// Packed shortest decimals: the text of a histogram answer, computed
// once.
//
// A distribution answer writes its histogram (lo, hi and pr per bucket)
// and its Summary as JSON numbers: shortest round-trip decimals, in
// 'f' notation from 1e-6 up to 1e21. A cached answer's numbers never
// change, so their digits are worked out once and kept as one uint64
// each — the digits d < 10^17 in the high 57 bits, the decimal
// exponent x (the number is d·10^x) biased by decimalBias in the low
// 7 — and written back by integer-to-ASCII alone (AppendDecimal).

// noDecimal is the word of a number the packing cannot state exactly:
// -0, a negative, NaN or ±Inf, and anything JSON writes in 'e'
// notation (below 1e-6 and from 1e21 up). Its writer formats the float
// itself.
const noDecimal = ^uint64(0)

const (
	decimalExpBits = 7
	decimalBias    = 1 << (decimalExpBits - 1)
)

// packDecimal returns f's word: its shortest round-trip decimal, the
// digits strconv.FormatFloat(f, 'f', -1, 64) writes, or noDecimal.
func packDecimal(f float64) uint64 {
	if math.Float64bits(f) == 0 {
		return decimalBias // d = 0, x = 0: "0"
	}
	if !(f >= 1e-6 && f < 1e21) {
		return noDecimal
	}
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], f, 'e', -1, 64) // d[.ddd]e±xx
	var d uint64
	n, i := 0, 0
	for ; s[i] != 'e'; i++ {
		if s[i] != '.' {
			d = 10*d + uint64(s[i]-'0')
			n++
		}
	}
	x := 0
	for _, c := range s[i+2:] {
		x = 10*x + int(c-'0')
	}
	if s[i+1] == '-' {
		x = -x
	}
	x -= n - 1 // d·10^x
	if x < -decimalBias || x >= decimalBias {
		return noDecimal
	}
	return d<<decimalExpBits | uint64(x+decimalBias)
}

// AppendDecimal appends the 'f' text of the number packed in w to b,
// byte-equal to strconv.AppendFloat(b, f, 'f', -1, 64). It reports
// false, with b unchanged, for a word that packs no number.
func AppendDecimal(b []byte, w uint64) ([]byte, bool) {
	if w == noDecimal {
		return b, false
	}
	d := w >> decimalExpBits
	x := int(w&(1<<decimalExpBits-1)) - decimalBias
	n := decimalDigits(d)
	point := n + x // digits before the decimal point
	size := n + 1
	switch {
	case x >= 0:
		size = point
	case point <= 0:
		size = 2 - point + n
	}
	at := len(b)
	if cap(b)-at < size {
		g := make([]byte, at, 2*cap(b)+size)
		copy(g, b)
		b = g
	}
	b = b[:at+size]
	s := b[at:]
	switch {
	case x >= 0: // d, then x zeros
		putDigits(s[:n], d)
		for i := n; i < size; i++ {
			s[i] = '0'
		}
	case point > 0: // the point falls inside d
		p := pow10[-x]
		putDigits(s[:point], d/p)
		s[point] = '.'
		putDigits(s[point+1:], d%p)
	default: // 0.000d
		s[0], s[1] = '0', '.'
		putDigits(s[2:], d)
	}
	return b, true
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalDigits returns the number of decimal digits of d, 1 for 0.
// d|1 has as many digits as d: an odd d is itself, and an even d + 1
// is no power of ten.
func decimalDigits(d uint64) int {
	d |= 1
	t := bits.Len64(d) * 1233 >> 12 // ⌊log10 d⌋ or one more
	if d < pow10[t] {
		return t
	}
	return t + 1
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes d into all of s, right-aligned, zero-padded on the
// left. s must be wide enough.
func putDigits(s []byte, d uint64) {
	i := len(s)
	for ; i >= 2; i -= 2 {
		q := d / 100
		j := (d - 100*q) * 2
		s[i-2], s[i-1] = digitPairs[j], digitPairs[j+1]
		d = q
	}
	if i == 1 {
		s[0] = byte('0' + d)
	}
}

// Decimals is a histogram answer's digit record: a packed word for
// every number the answer writes, in the order it writes them — the
// Summary's mean, P10, P50 and P90, then per bucket its Lo (only when
// it is not bit-equal to the previous bucket's Hi, whose text an
// answer copies), Hi and Pr. AppendDecimal writes a word back, and
// refuses the word of a number the packing cannot state (-0, a
// negative, NaN, ±Inf, 'e' notation), which its writer formats
// instead; a nil record formats every number.
type Decimals []uint64

// DecimalSlot holds one answer's record once it is built. The zero
// slot is empty.
type DecimalSlot struct {
	// p points at a one-allocation array: the record's length, then
	// the record.
	p atomic.Pointer[uint64]
}

// Load returns the slot's record, nil while none is built.
func (s *DecimalSlot) Load() Decimals {
	p := s.p.Load()
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, 1+*p)[1:]
}

// Fill returns the slot's record, building it from h and sum if there
// is none: one allocation, published by compare-and-swap, so callers
// racing to the first fill all get the record that won.
func (s *DecimalSlot) Fill(h *Histogram, sum Summary) Decimals {
	if d := s.Load(); d != nil {
		return d
	}
	n := 4 + 2*len(h.buckets)
	for i, b := range h.buckets {
		if i == 0 || math.Float64bits(b.Lo) != math.Float64bits(h.buckets[i-1].Hi) {
			n++
		}
	}
	w := AppendDecimals(make([]uint64, 1, 1+n), h.buckets, sum)
	w[0] = uint64(n)
	if s.p.CompareAndSwap(nil, &w[0]) {
		return w[1:]
	}
	return s.Load()
}

// AppendDecimals appends the record of an answer with summary sum and
// buckets bs to w.
func AppendDecimals(w []uint64, bs []Bucket, sum Summary) Decimals {
	w = append(w, packDecimal(sum.Mean), packDecimal(sum.P10), packDecimal(sum.P50), packDecimal(sum.P90))
	for i, b := range bs {
		if i == 0 || math.Float64bits(b.Lo) != math.Float64bits(bs[i-1].Hi) {
			w = append(w, packDecimal(b.Lo))
		}
		w = append(w, packDecimal(b.Hi), packDecimal(b.Pr))
	}
	return w
}
