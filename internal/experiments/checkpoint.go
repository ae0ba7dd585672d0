package experiments

import (
	"encoding/json"

	"mglrusim/internal/core"
	"mglrusim/internal/stats"
)

// checkpointVersion guards the on-disk series format: a stored envelope
// from a different version is treated as absent and re-executed. Trials
// encode core.Metrics as declared, so a change to its fields or their
// order is a format change too.
const checkpointVersion = 2

// seriesEnvelope is the persisted form of one completed Series. The full
// cache key is embedded so a hash-named file is self-verifying, and
// latency recorders encode as their raw samples — exact integer
// nanoseconds, so a resumed series reproduces every percentile (and with
// it every figure byte) identically. All numeric fields are integers or
// Go-JSON float64s, both of which round-trip exactly.
type seriesEnvelope struct {
	Version  int
	Key      string
	Workload string
	Policy   string
	System   core.SystemConfig
	Trials   []core.Metrics
}

// encodeSeries serializes s for the checkpoint store under key.
func encodeSeries(key string, s *Series) ([]byte, error) {
	return json.Marshal(seriesEnvelope{
		Version:  checkpointVersion,
		Key:      key,
		Workload: s.Workload,
		Policy:   s.Policy,
		System:   s.System,
		Trials:   s.Trials,
	})
}

// SeriesSummary is the compact telemetry digest of one stored series —
// what the sweep server streams per completed cell without shipping the
// full artifact (raw latency samples dominate the blob).
type SeriesSummary struct {
	Workload       string  `json:"workload"`
	Policy         string  `json:"policy"`
	Trials         int     `json:"trials"`
	MeanRuntimeSec float64 `json:"meanRuntimeSec"`
	MeanFaults     float64 `json:"meanFaults"`
	// MeanRequestNS is the mean request latency across trials in
	// nanoseconds; zero for batch (runtime-metric) workloads.
	MeanRequestNS float64 `json:"meanRequestNS,omitempty"`
}

// SummarizeSeriesBlob digests a checkpoint-store blob into a
// SeriesSummary. ok is false when the blob is not a valid series envelope
// of the current format version.
func SummarizeSeriesBlob(data []byte) (SeriesSummary, bool) {
	s, _, ok := parseSeries(data)
	if !ok {
		return SeriesSummary{}, false
	}
	sum := SeriesSummary{
		Workload: s.Workload,
		Policy:   s.Policy,
		Trials:   len(s.Trials),
	}
	if len(s.Trials) > 0 {
		sum.MeanRuntimeSec = stats.Mean(s.Runtimes())
		sum.MeanFaults = stats.Mean(s.Faults())
		if req := s.MeanRequestNS(); len(req) > 0 {
			sum.MeanRequestNS = stats.Mean(req)
		}
	}
	return sum, true
}

// decodeSeries restores a persisted series. ok is false when the blob is
// unparsable, from a different format version, or stored under a
// different logical key (hash collision or stale file) — all of which
// mean "re-execute".
func decodeSeries(key string, data []byte) (*Series, bool) {
	s, stored, ok := parseSeries(data)
	if !ok || stored != key {
		return nil, false
	}
	return s, true
}

// parseSeries decodes an envelope of the current format version and
// returns the series with the cache key it was stored under.
func parseSeries(data []byte) (*Series, string, bool) {
	var env seriesEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Version != checkpointVersion {
		return nil, "", false
	}
	// A recorder stored as null decodes as nil; series consumers call
	// Count on every recorder, so restore it as an empty one.
	for i := range env.Trials {
		m := &env.Trials[i]
		for _, l := range []**stats.LatencyRecorder{&m.ReadLat, &m.WriteLat, &m.FaultLat} {
			if *l == nil {
				*l = stats.NewLatencyRecorder(0)
			}
		}
	}
	return &Series{
		Workload: env.Workload,
		Policy:   env.Policy,
		System:   env.System,
		Trials:   env.Trials,
	}, env.Key, true
}
