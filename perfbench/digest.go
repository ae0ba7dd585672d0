package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mglrusim/internal/core"
	"mglrusim/internal/stats"
)

// digestFields names, per struct type, the fields a cell digest covers.
// The list is fixed rather than derived by reflection so that a counter
// added to core.Metrics later does not change every digest; such a field
// is reported as uncovered instead (see digester.uncovered). A covered
// field that disappears does change the digest, as it should.
var digestFields = map[string][]string{
	"core.Metrics": {"Runtime", "AppCPU", "Counters", "Policy", "Device", "ReadLat", "WriteLat",
		"FootprintPages", "CapacityPages", "SegmentFaults", "FaultLat", "Injected", "FileInjected",
		"FileCache", "FileDevice"},
	"vmm.Counters": {"MajorFaults", "MinorFaults", "SwapIns", "SwapOuts", "DirectReclaims",
		"KswapdBursts", "Accesses", "ReadaheadIn", "ReadaheadHits", "ReadaheadWaste", "FileFaults",
		"FileWritebacks", "FileAccesses", "OOMKills", "OOMReapedSlots"},
	"policy.Stats": {"PTEScanned", "RegionsScanned", "RegionsSkipped", "RMapWalks", "Promoted",
		"Demoted", "Evicted", "Rotated", "AgingRuns", "Refaults", "TierProtected", "FileProtected",
		"ScanCPU"},
	"swap.Stats": {"Reads", "Writes", "ReadTime", "WriteTime", "WriteStalls", "CompressedBytes",
		"LifetimeCompressRatio"},
	"fault.Stats": {"Storms", "StallStorms", "StormDelay", "TransientReadErrors", "ReadRetries",
		"HardReadErrors", "TransientWriteErrors", "WriteRetries", "HardWriteErrors", "PrefetchErrors",
		"WritebackPages", "WritebackReads", "PoolStalls", "PoolStallTime"},
	"pagecache.Stats": {"Reads", "ReadaheadReads", "Dirtied", "FlushPasses", "Extents",
		"WritebackPages", "PageOuts", "Evictions", "Refaults", "FileIOErrors", "PoisonedFaults",
		"ReadaheadAborts", "WriteErrors", "DataAtRisk", "ThrottleStalls", "ThrottleStallTime"},
}

var recorderType = reflect.TypeOf((*stats.LatencyRecorder)(nil))

// digester hashes the simulated output of a series: every covered field
// of every trial's core.Metrics, latency samples included, in trial
// order. It reads the metrics themselves, never an encoding of them, so
// a change to the checkpoint format cannot move a digest.
type digester struct {
	uncovered map[string]bool
}

func newDigester() *digester { return &digester{uncovered: map[string]bool{}} }

// series returns the digest of one cell's trials.
func (d *digester) series(trials []core.Metrics) string {
	var b strings.Builder
	for i, m := range trials {
		fmt.Fprintf(&b, "trial %d\n", i)
		d.walk(&b, "", reflect.ValueOf(m))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func (d *digester) walk(b *strings.Builder, path string, v reflect.Value) {
	if v.Type() == recorderType {
		// A nil recorder and an empty one are the same output: the
		// checkpoint round trip turns the first into the second.
		b.WriteString(path)
		b.WriteByte('=')
		if !v.IsNil() {
			for _, s := range v.Interface().(*stats.LatencyRecorder).Samples() {
				b.WriteString(strconv.FormatInt(s, 10))
				b.WriteByte(',')
			}
		}
		b.WriteByte('\n')
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for _, name := range digestFields[t.String()] {
			f := v.FieldByName(name)
			if !f.IsValid() {
				fmt.Fprintf(b, "%s.%s missing\n", path, name)
				continue
			}
			d.walk(b, path+"."+name, f)
		}
		for i := 0; i < t.NumField(); i++ {
			if !slices.Contains(digestFields[t.String()], t.Field(i).Name) {
				d.uncovered[t.String()+"."+t.Field(i).Name] = true
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			fmt.Fprintf(b, "%s[%s]=%d\n", path, k.String(), v.MapIndex(k).Uint())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(b, "%s=%q\n", path, v.String())
	default:
		panic(fmt.Sprintf("perfbench: digest cannot encode %s (%s)", path, v.Type()))
	}
}

// uncoveredFields lists fields of the digested structs that the digest
// does not cover, sorted.
func (d *digester) uncoveredFields() []string {
	out := make([]string, 0, len(d.uncovered))
	for f := range d.uncovered {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
