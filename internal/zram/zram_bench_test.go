package zram

import "testing"

// benchSink keeps the compressor's result live.
var benchSink []byte

var benchClasses = []struct {
	name  string
	class ContentClass
}{
	{"zero-heavy", ClassZeroHeavy},
	{"structured", ClassStructured},
	{"random", ClassRandom},
}

// BenchmarkStoreWrite times one ZRAM swap-out: generate a 4 KiB page and
// compress it into a slot, cycling over 1024 slots and fresh page
// identities.
func BenchmarkStoreWrite(b *testing.B) {
	for _, bc := range benchClasses {
		b.Run(bc.name, func(b *testing.B) {
			s := NewStore(4096)
			b.SetBytes(4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Write(int32(i&1023), int64(i), 0, bc.class)
			}
		})
	}
}

// BenchmarkCompress times the encoder alone on one 4 KiB page of each
// content class, reusing the output buffer as Store.Write does.
func BenchmarkCompress(b *testing.B) {
	for _, bc := range benchClasses {
		b.Run(bc.name, func(b *testing.B) {
			page := make([]byte, 4096)
			FillPage(page, 11, 2, bc.class)
			out := AppendCompress(nil, page)
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = AppendCompress(out[:0], page)
			}
			benchSink = out
		})
	}
}
