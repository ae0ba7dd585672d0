package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
)

// TestCheckpointRoundTripsEveryMetric: every exported field of
// core.Metrics, filled with a distinct non-zero value, must survive
// encode→decode unchanged. A field the envelope dropped would be silently
// zeroed whenever a series round-trips through the checkpoint store — the
// sharded and server paths — while in-process runs keep it, so figures
// would diverge by execution mode instead of failing loudly.
func TestCheckpointRoundTripsEveryMetric(t *testing.T) {
	var m core.Metrics
	next := uint64(0)
	fill(t, reflect.ValueOf(&m).Elem(), "core.Metrics", &next)
	s := &Series{Workload: "tpch", Policy: PolMGLRU, System: SystemAt(0.5, core.SwapSSD),
		Trials: []core.Metrics{m}}
	blob, err := encodeSeries("k", s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeSeries("k", blob)
	if !ok {
		t.Fatal("decode rejected a freshly encoded envelope")
	}
	if !reflect.DeepEqual(got.Trials[0], m) {
		t.Fatalf("round trip changed the metrics:\n got %+v\nwant %+v", got.Trials[0], m)
	}
}

// fill sets every field reachable from v to a distinct non-zero value,
// and fails on a kind it does not know how to fill so a new field type
// cannot slip past the round-trip check unfilled.
func fill(t *testing.T, v reflect.Value, path string, next *uint64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint64:
		v.SetUint(n)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[string]uint64(nil)) {
			t.Fatalf("%s: cannot fill map type %v", path, v.Type())
		}
		v.Set(reflect.ValueOf(map[string]uint64{"seg": n}))
	case reflect.Pointer:
		if v.Type() != reflect.TypeOf((*stats.LatencyRecorder)(nil)) {
			t.Fatalf("%s: cannot fill pointer type %v", path, v.Type())
		}
		v.Set(reflect.ValueOf(recorder(int64(n), int64(n)+1)))
	default:
		t.Fatalf("%s: cannot fill kind %v", path, v.Kind())
	}
}

// recorder returns a latency recorder holding samples.
func recorder(samples ...int64) *stats.LatencyRecorder {
	l := stats.NewLatencyRecorder(len(samples))
	for _, s := range samples {
		l.Record(s)
	}
	return l
}

// TestCheckpointRoundTripPreservesFileCache: a series with page-cache
// counters must survive encode→decode→encode byte-identically — the
// regression behind the ext2 sharded run rendering zeroed refault and
// writeback columns.
func TestCheckpointRoundTripPreservesFileCache(t *testing.T) {
	s := &Series{
		Workload: "serve",
		Policy:   PolMGLRU,
		System:   SystemAt(0.5, core.SwapSSD),
		Trials: []core.Metrics{{
			Runtime:        12345,
			FootprintPages: 100,
			CapacityPages:  50,
			ReadLat:        recorder(10, 20),
			WriteLat:       recorder(),
			FaultLat:       recorder(30),
			FileCache: pagecache.Stats{
				Reads: 7, ReadaheadReads: 3, Dirtied: 5,
				FlushPasses: 2, Extents: 4, WritebackPages: 9,
				PageOuts: 1, Evictions: 6, Refaults: 8,
				FileIOErrors: 2, PoisonedFaults: 4, ReadaheadAborts: 1,
				WriteErrors: 3, DataAtRisk: 3,
				ThrottleStalls: 5, ThrottleStallTime: 777,
			},
			FileDevice: swap.Stats{Reads: 11, Writes: 13},
			FileInjected: fault.Stats{
				Storms: 2, StormDelay: 999, TransientReadErrors: 4,
				HardWriteErrors: 1, PrefetchErrors: 6,
			},
		}},
	}
	blob, err := encodeSeries("k", s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeSeries("k", blob)
	if !ok {
		t.Fatal("decode rejected a freshly encoded envelope")
	}
	if got.Trials[0].FileCache != s.Trials[0].FileCache {
		t.Fatalf("FileCache dropped: %+v, want %+v", got.Trials[0].FileCache, s.Trials[0].FileCache)
	}
	if got.Trials[0].FileDevice != s.Trials[0].FileDevice {
		t.Fatalf("FileDevice dropped: %+v, want %+v", got.Trials[0].FileDevice, s.Trials[0].FileDevice)
	}
	if got.Trials[0].FileInjected != s.Trials[0].FileInjected {
		t.Fatalf("FileInjected dropped: %+v, want %+v", got.Trials[0].FileInjected, s.Trials[0].FileInjected)
	}
	blob2, err := encodeSeries("k", got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("round-trip not byte-stable")
	}
}
