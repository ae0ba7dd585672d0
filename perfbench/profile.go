package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers is every bucket a CPU sample can land in. A sample goes to the
// innermost function of this module on its stack, bucketed by package;
// a sample with no module frame is garbage collection or other runtime
// work (scheduler, netpoll, HTTP transport). The shares sum to 100.
var layers = []string{
	"sim.engine", "sim.rng", "workload", "vmm", "policy", "pagetable", "mem", "rmap",
	"zram", "swap", "pagecache", "fault", "core", "experiments", "checkpoint", "server",
	"shard", "stats", "telemetry", "other", "bench", "runtime.gc", "runtime.other",
}

// packageLayer maps a package under mglrusim/internal (first path
// element) to its layer. Helpers only one layer uses belong to it: the
// bloom filter and PID controller to MG-LRU, graph and key-value store
// generation to the workloads.
var packageLayer = map[string]string{
	"sim": "sim.engine", "workload": "workload", "graph": "workload", "kvstore": "workload",
	"vmm": "vmm", "policy": "policy", "bloom": "policy", "pidctl": "policy",
	"pagetable": "pagetable", "mem": "mem", "rmap": "rmap", "zram": "zram", "swap": "swap",
	"pagecache": "pagecache", "fault": "fault", "core": "core", "experiments": "experiments",
	"checkpoint": "checkpoint", "server": "server", "shard": "shard", "stats": "stats",
	"telemetry": "telemetry",
}

// gcPrefixes mark a stack without module frames as garbage collection.
var gcPrefixes = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanstack", "runtime.sweepone", "runtime.(*gcWork)",
	"runtime.(*sweepLocked)", "runtime.(*mheap).reclaim"}

// layerOf classifies one module function by name and source file.
func layerOf(name, file string) (string, bool) {
	const mod = "mglrusim"
	if name != mod && !strings.HasPrefix(name, mod+"/") && !strings.HasPrefix(name, mod+".") {
		return "", false
	}
	// The package path ends at the first '.' after the last '/' that
	// precedes any receiver or type-parameter list.
	head := name
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	pkg := head
	if i := strings.LastIndex(head, "/"); i >= 0 {
		if j := strings.Index(head[i:], "."); j >= 0 {
			pkg = head[:i+j]
		}
	} else if j := strings.Index(head, "."); j >= 0 {
		pkg = head[:j]
	}
	switch {
	case pkg == mod+"/perfbench":
		return "bench", true
	case strings.HasPrefix(pkg, mod+"/internal/"):
		first := strings.SplitN(strings.TrimPrefix(pkg, mod+"/internal/"), "/", 2)[0]
		l, ok := packageLayer[first]
		if !ok {
			return "other", true
		}
		if l == "sim.engine" && strings.HasSuffix(file, "/sim/rng.go") {
			return "sim.rng", true
		}
		return l, true
	}
	return "other", true
}

// cpuShares is the CPU time of one profile split by layer.
type cpuShares struct {
	ns    map[string]int64
	total int64
}

func (c cpuShares) pct(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.ns[layer]) / float64(c.total)
}

// parseCPUProfile decodes a gzipped pprof CPU profile as runtime/pprof
// writes it and attributes every sample's CPU time to a layer.
func parseCPUProfile(data []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuShares{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, fmt.Errorf("profile: %w", err)
	}
	type function struct{ name, file int64 }
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		funcs   = map[uint64]function{}
		locs    = map[uint64][]uint64{} // location -> function ids, innermost first
		samples []sample
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					for _, u := range pbAppendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuShares{}, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := cpuShares{ns: map[string]int64{}}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		layer := ""
		isGC := false
	stack:
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				f := funcs[fid]
				name := str(f.name)
				if l, ok := layerOf(name, str(f.file)); ok {
					layer = l
					break stack
				}
				for _, p := range gcPrefixes {
					if strings.HasPrefix(name, p) {
						isGC = true
					}
				}
			}
		}
		switch {
		case layer != "":
		case isGC:
			layer = "runtime.gc"
		default:
			layer = "runtime.other"
		}
		out.ns[layer] += v
		out.total += v
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field, packed or not.
func pbAppendUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := pbVarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
