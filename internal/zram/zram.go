// Package zram provides the compression machinery behind the simulator's
// ZRAM swap device: an LZO-RLE-style byte compressor (run-length encoding
// of repeated bytes with literal passthrough, the fast path that the
// kernel's lzo-rle favours on zero-heavy anonymous pages), a deterministic
// synthetic page-content generator, and a compressed-pool accounting store.
//
// The compressor is functional — it round-trips real bytes — so the
// compressed-size accounting that drives ZRAM capacity behaviour is
// measured, not assumed.
//
// The encoder scans a 64-bit word at a time. To find the next run it
// tests the five 4-byte windows that fit in one little-endian load with
// SWAR (SIMD within a register) byte-equality masks, and it measures a
// run by XORing words with the run byte repeated eight times and counting
// trailing zero bits. Its output is byte-identical to the obvious byte
// loop (measure the run at i; emit it if it has 4 or more bytes, else
// skip it as literal bytes). From any i, the first window p ≥ i whose
// four bytes are equal is exactly where that loop emits its next run:
// either p == i, or src[p-1] != src[p], since otherwise the window at p-1
// would have matched first, so the loop's short runs tile [i, p) and
// its next measurement starts at p.
package zram

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// Token layout limits.
const (
	minRun = 4   // shortest run emitted as a run token
	maxRun = 259 // longest run one token holds: count-4 fits a byte
	maxLit = 256 // longest literal chunk one token holds: count-1 fits a byte
)

// Compress encodes src with a byte-oriented RLE scheme:
//
//	token 0x00, count-4, value      -> run of count (4..259) repeated bytes
//	token 0x01, count-1, bytes...   -> literal run of count (1..256) bytes
//
// Runs shorter than 4 are folded into literals. The output of n input
// bytes is never more than n + n/5 + 2 bytes. The encoding splits src
// into runs of 4 or more bytes, each with the literal stretch before it,
// and one final literal stretch. A literal stretch of L bytes costs L
// bytes plus a 2-byte header per chunk of at most 256, and a run token
// costs 3 bytes whatever its length. A stretch of L ≥ 1 literals followed
// by a run of R ≥ 4 therefore costs L + 2⌈L/256⌉ + 3 ≤ 6(L+R)/5: equality
// holds only at L = 1, R = 4, six output bytes for five input bytes
// ({1,2,2,2,2} repeated). A run with no literals before it costs 3 ≤
// 6R/5. The final stretch of T literals costs T + 2⌈T/256⌉ ≤ 6T/5 + 2.
// Summed, the output is at most 6n/5 + 2 bytes.
func Compress(src []byte) []byte { return AppendCompress(nil, src) }

// AppendCompress appends the compressed encoding of src to dst and returns
// the extended slice, letting hot callers reuse one scratch buffer instead
// of allocating per page write.
func AppendCompress(dst, src []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, len(src)/4+16)
	}
	for i := 0; i < len(src); {
		p := nextRun(src, i)
		dst = appendLiterals(dst, src[i:p])
		if p == len(src) {
			break
		}
		j := runEnd(src, p)
		dst = append(dst, 0x00, byte(j-p-minRun), src[p])
		i = j
	}
	return dst
}

// Word-at-a-time constants: lsb repeats a byte eight times; low7 masks
// the low seven bits of every byte.
const (
	lsb  = 0x0101010101010101
	low7 = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes returns x with the high bit of each byte set exactly where
// that byte of x is zero, and every other bit clear. Adding 0x7f to a
// byte's low seven bits never carries into the next byte, so unlike the
// borrow-based haszero test it has no false positives above a true zero.
func zeroBytes(x uint64) uint64 {
	return ^((x&low7 + low7) | x | low7)
}

// nextRun returns the first p ≥ i with src[p] == src[p+1] == src[p+2] ==
// src[p+3], or len(src) if there is none.
func nextRun(src []byte, i int) int {
	for ; i+8 <= len(src); i += 5 {
		// Byte k of e is zero iff src[i+k] == src[i+k+1], so byte k of d
		// is zero iff the window at i+k is one byte repeated. The mask
		// keeps the five windows k = 0..4 that fit in w; bytes 5..7 of d
		// compare against the zeros the shifts pull in.
		w := binary.LittleEndian.Uint64(src[i:])
		e := w ^ w>>8
		d := e | e>>8 | e>>16
		if z := zeroBytes(d) & (1<<40 - 1); z != 0 {
			return i + bits.TrailingZeros64(z)>>3
		}
	}
	for ; i+minRun <= len(src); i++ {
		if b := src[i]; src[i+1] == b && src[i+2] == b && src[i+3] == b {
			return i
		}
	}
	return len(src)
}

// runEnd returns the end of the run of src[p] that starts at p, capped at
// p+maxRun. The caller has checked src[p:p+minRun] are equal.
func runEnd(src []byte, p int) int {
	limit := min(p+maxRun, len(src))
	rep := uint64(src[p]) * lsb
	j := p + minRun
	for j+8 <= len(src) {
		if x := binary.LittleEndian.Uint64(src[j:]) ^ rep; x != 0 {
			return min(j+bits.TrailingZeros64(x)>>3, limit)
		}
		j += 8
		if j >= limit {
			return limit
		}
	}
	for j < limit && src[j] == src[p] {
		j++
	}
	return j
}

// appendLiterals appends lit as literal tokens of at most maxLit bytes.
func appendLiterals(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := min(len(lit), maxLit)
		dst = append(dst, 0x01, byte(n-1))
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

// ErrCorrupt reports malformed compressed data.
var ErrCorrupt = errors.New("zram: corrupt compressed stream")

// Decompress decodes data produced by Compress into dst, which must be
// exactly the original length. It returns ErrCorrupt on malformed input,
// and on any well-formed stream that Compress would not have produced:
// a short literal chunk followed by another literal, an equal 4-byte
// window inside a literal stretch, or a literal or run that continues the
// byte of a run shorter than the cap. A nil error therefore means
// Compress(dst) reproduces data exactly.
func Decompress(data []byte, dst []byte) error {
	di := 0
	litStart := -1 // dst offset of the open literal stretch, or -1
	lastLit := 0   // length of the latest literal chunk
	lastRun := 0   // length of the previous token if it was a run, else 0
	// continuesRun reports whether byte b extends a run that Compress
	// would have made longer.
	continuesRun := func(b byte) bool {
		return lastRun > 0 && lastRun < maxRun && dst[di-1] == b
	}
	i := 0
	for i < len(data) {
		if i+1 >= len(data) {
			return ErrCorrupt
		}
		switch data[i] {
		case 0x00:
			if i+2 >= len(data) {
				return ErrCorrupt
			}
			n := int(data[i+1]) + minRun
			v := data[i+2]
			if di+n > len(dst) || continuesRun(v) {
				return ErrCorrupt
			}
			if litStart >= 0 {
				lit := dst[litStart:di]
				if nextRun(lit, 0) != len(lit) || lit[len(lit)-1] == v {
					return ErrCorrupt
				}
				litStart = -1
			}
			for k := 0; k < n; k++ {
				dst[di+k] = v
			}
			di += n
			lastRun = n
			i += 3
		case 0x01:
			n := int(data[i+1]) + 1
			if i+2+n > len(data) || di+n > len(dst) {
				return ErrCorrupt
			}
			if (litStart >= 0 && lastLit != maxLit) || continuesRun(data[i+2]) {
				return ErrCorrupt
			}
			if litStart < 0 {
				litStart = di
			}
			copy(dst[di:di+n], data[i+2:i+2+n])
			di += n
			lastLit, lastRun = n, 0
			i += 2 + n
		default:
			return ErrCorrupt
		}
	}
	if litStart >= 0 && nextRun(dst[litStart:di], 0) != di-litStart {
		return ErrCorrupt
	}
	if di != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// ContentClass describes how compressible a page's synthetic contents are.
type ContentClass uint8

const (
	// ClassZeroHeavy models freshly-touched anonymous memory: mostly
	// zero bytes with sparse data (compresses very well).
	ClassZeroHeavy ContentClass = iota
	// ClassStructured models columnar/graph data: repetitive small
	// records (compresses moderately).
	ClassStructured
	// ClassRandom models hashed or encrypted data (incompressible).
	ClassRandom
)

// FillPage deterministically generates a page's contents into buf from its
// identity (vpn), a dirty-version counter, and its content class. The same
// (vpn, version, class) always yields the same bytes, so swap-out and
// swap-in see consistent data without the simulator retaining page bodies.
func FillPage(buf []byte, vpn int64, version uint32, class ContentClass) {
	seed := uint64(vpn)*0x9e3779b97f4a7c15 ^ uint64(version)<<32 ^ uint64(class)
	switch class {
	case ClassZeroHeavy:
		for i := range buf {
			buf[i] = 0
		}
		// Sprinkle a few words of data so pages differ.
		x := seed
		for k := 0; k < len(buf)/64; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			off := int(x % uint64(len(buf)-8))
			binary.LittleEndian.PutUint64(buf[off:], x)
		}
	case ClassStructured:
		// 16-byte records: 8-byte key varying slowly, 8 bytes of small
		// integers — long runs of shared high bytes.
		x := seed
		for off := 0; off+16 <= len(buf); off += 16 {
			binary.LittleEndian.PutUint64(buf[off:], seed>>16) // shared prefix
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(buf[off+8:], x%256)
		}
	default: // ClassRandom
		x := seed | 1
		for off := 0; off+8 <= len(buf); off += 8 {
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(buf[off:], x)
		}
	}
}

// Store is the compressed-pool accounting for a ZRAM device: per-slot
// compressed sizes and aggregate ratios. Page bodies are not retained —
// FillPage regenerates them — but sizes come from running the real
// compressor on the real bytes.
type Store struct {
	pageSize int
	// sizes is dense, indexed by slot: swap areas hand out slots from a
	// contiguous range starting at 0, and the fault path hits Write/Free
	// hard enough that map hashing showed up in profiles. 0 = unused (a
	// compressed page is never empty).
	sizes   []int32
	total   int64 // compressed bytes currently stored
	written int64 // uncompressed bytes ever written
	stored  int64 // compressed bytes ever written
	buf     []byte
	cbuf    []byte // reusable compression output scratch
}

// NewStore creates a Store for pages of pageSize bytes.
func NewStore(pageSize int) *Store {
	return &Store{pageSize: pageSize, buf: make([]byte, pageSize)}
}

// grow ensures the size table covers slot.
func (s *Store) grow(slot int32) {
	if int(slot) < len(s.sizes) {
		return
	}
	n := len(s.sizes)*2 + 64
	if n <= int(slot) {
		n = int(slot) + 1
	}
	sizes := make([]int32, n)
	copy(sizes, s.sizes)
	s.sizes = sizes
}

// Write compresses the synthetic contents of (vpn, version, class) into
// slot and returns the compressed size in bytes.
func (s *Store) Write(slot int32, vpn int64, version uint32, class ContentClass) int {
	FillPage(s.buf, vpn, version, class)
	s.cbuf = AppendCompress(s.cbuf[:0], s.buf)
	n := int32(len(s.cbuf))
	s.grow(slot)
	s.total += int64(n - s.sizes[slot])
	s.sizes[slot] = n
	s.written += int64(s.pageSize)
	s.stored += int64(n)
	return int(n)
}

// Free releases slot's storage.
func (s *Store) Free(slot int32) {
	if int(slot) < len(s.sizes) {
		s.total -= int64(s.sizes[slot])
		s.sizes[slot] = 0
	}
}

// SlotSize reports the compressed size of slot, or 0 if unused.
func (s *Store) SlotSize(slot int32) int {
	if int(slot) >= len(s.sizes) {
		return 0
	}
	return int(s.sizes[slot])
}

// CompressedBytes reports the bytes currently held by the pool.
func (s *Store) CompressedBytes() int64 { return s.total }

// Ratio reports the lifetime compression ratio (uncompressed/compressed),
// or 0 before any write.
func (s *Store) Ratio() float64 {
	if s.stored == 0 {
		return 0
	}
	return float64(s.written) / float64(s.stored)
}
