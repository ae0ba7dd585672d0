package zram

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// refCompress is the byte-at-a-time encoder that AppendCompress replaced,
// kept verbatim as the reference the word-at-a-time encoder must match
// byte for byte.
func refCompress(dst, src []byte) []byte {
	out := dst
	if out == nil {
		out = make([]byte, 0, len(src)/4+16)
	}
	i := 0
	litStart := -1
	flushLits := func(end int) {
		for litStart >= 0 && litStart < end {
			n := end - litStart
			if n > 256 {
				n = 256
			}
			out = append(out, 0x01, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
		litStart = -1
	}
	for i < len(src) {
		// Measure run length at i.
		j := i + 1
		for j < len(src) && src[j] == src[i] && j-i < 259 {
			j++
		}
		if j-i >= 4 {
			flushLits(i)
			out = append(out, 0x00, byte(j-i-4), src[i])
			i = j
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i = j
	}
	flushLits(len(src))
	return out
}

// maxCompressedLen is the size bound stated on Compress.
func maxCompressedLen(n int) int { return n + n/5 + 2 }

// literalBytes returns n bytes with no two neighbours equal.
func literalBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i%251 + 1)
	}
	return b
}

// compressSeeds are the inputs every compressor test starts from: pages of
// each content class, tiny inputs, runs around the token caps, literal
// stretches around the chunk size, and runs ending, and near-miss runs of
// three starting, at every offset of an 8-byte word.
func compressSeeds() [][]byte {
	var seeds [][]byte
	for _, class := range []ContentClass{ClassZeroHeavy, ClassStructured, ClassRandom} {
		page := make([]byte, 4096)
		FillPage(page, 11, 2, class)
		seeds = append(seeds, page)
	}
	seeds = append(seeds, []byte{}, []byte{5}, []byte{5, 5}, []byte{5, 5, 5}, []byte{5, 6, 5})
	for _, n := range []int{3, 4, 258, 259, 260, 262, 263, 518, 519} {
		// Alone, and between literals so that the word loops meet it.
		run := make([]byte, n)
		seeds = append(seeds, run)
		seeds = append(seeds, append(append(literalBytes(9), run...), literalBytes(9)...))
	}
	for _, n := range []int{255, 256, 257} {
		lit := literalBytes(n)
		seeds = append(seeds, lit)
		seeds = append(seeds, append(append([]byte{}, lit...), 0, 0, 0, 0, 3))
	}
	for off := 0; off < 8; off++ {
		// A 16-byte lead-in, then a zero run that ends at byte off of a
		// word, then literals.
		b := append(literalBytes(16), make([]byte, 8+off)...)
		seeds = append(seeds, append(b, literalBytes(20)...))
		// Three zeros, one short of a run, starting at byte off.
		b = append(literalBytes(16+off), 0, 0, 0)
		seeds = append(seeds, append(b, literalBytes(20)...))
	}
	return seeds
}

// checkCompress asserts the encoder matches the reference byte for byte,
// keeps dst's prefix, stays within the stated bound, and round-trips.
func checkCompress(t *testing.T, src []byte) {
	t.Helper()
	got := Compress(src)
	want := refCompress(nil, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding of %d bytes differs from the reference:\n got %x\nwant %x", len(src), got, want)
	}
	if app := AppendCompress([]byte{0xaa}, src); app[0] != 0xaa || !bytes.Equal(app[1:], want) {
		t.Fatalf("AppendCompress did not append to dst")
	}
	if len(got) > maxCompressedLen(len(src)) {
		t.Fatalf("%d bytes compressed to %d, over the bound %d", len(src), len(got), maxCompressedLen(len(src)))
	}
	dst := make([]byte, len(src))
	if err := Decompress(got, dst); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch")
	}
}

// FuzzCompressVsReference requires the word-at-a-time encoder to produce
// exactly the reference encoder's bytes, within the size bound, and to
// round-trip through Decompress.
func FuzzCompressVsReference(f *testing.F) {
	for _, src := range compressSeeds() {
		f.Add(src)
	}
	f.Fuzz(checkCompress)
}

// declaredLen sums the counts of the tokens in data, stopping at the first
// token it cannot read.
func declaredLen(data []byte) int {
	n := 0
	for i := 0; i+1 < len(data); {
		switch data[i] {
		case 0x00:
			n += int(data[i+1]) + minRun
			i += 3
		case 0x01:
			n += int(data[i+1]) + 1
			i += 2 + int(data[i+1]) + 1
		default:
			return n
		}
	}
	return n
}

// FuzzDecompress feeds arbitrary streams to Decompress, with dst sized to
// the length the stream declares and one byte either side. It must not
// panic, and must either report ErrCorrupt or decode a buffer that
// Compress turns back into exactly the input stream.
func FuzzDecompress(f *testing.F) {
	for _, src := range compressSeeds() {
		f.Add(Compress(src))
	}
	for _, stream := range [][]byte{
		{0x01, 0x00, 1, 0x01, 0x00, 2}, // short literal chunk, then another
		{0x01, 0x03, 4, 4, 4, 4},       // equal window inside a literal
		{0x01, 0x00, 4, 0x00, 0x00, 4}, // literal byte continues into a run
		{0x00, 0x00, 9, 0x00, 0x00, 9}, // uncapped run split in two
		{0x00, 0x00, 9, 0x01, 0x00, 9}, // uncapped run continued as a literal
		{0x00, 0xff, 9, 0x00, 0x00, 9}, // valid: capped run, then four more
		{0x00, 0xff, 9, 0x01, 0x00, 9}, // valid: capped run, then one more
		{0x00, 0x00, 9, 0x02, 0x00},    // unknown token
		{0x01, 0x05, 1, 2},             // truncated literal
	} {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := declaredLen(data)
		for _, size := range []int{n, n + 1, n - 1} {
			if size < 0 {
				continue
			}
			dst := make([]byte, size)
			err := Decompress(data, dst)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unexpected error %v", err)
				}
				continue
			}
			if size != n {
				t.Fatalf("decoded into %d bytes, stream declares %d", size, n)
			}
			if re := Compress(dst); !bytes.Equal(re, data) {
				t.Fatalf("accepted stream %x re-compresses to %x", data, re)
			}
		}
	})
}

// TestCompressSizeBound checks the bound stated on Compress on arbitrary
// inputs, on the same inputs folded onto two byte values so that runs are
// common, and on the input that meets it: {1,2,2,2,2} repeated, six output
// bytes for every five input bytes.
func TestCompressSizeBound(t *testing.T) {
	f := func(src []byte) bool {
		if len(Compress(src)) > maxCompressedLen(len(src)) {
			return false
		}
		for i := range src {
			src[i] &= 1
		}
		return len(Compress(src)) <= maxCompressedLen(len(src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{1, 2, 2, 2, 2}, 819) // 4095 bytes
	if got := len(Compress(src)); got != 4914 || got > maxCompressedLen(len(src)) {
		t.Fatalf("adversarial input compressed to %d bytes, want 4914 within the bound %d",
			got, maxCompressedLen(len(src)))
	}
}
