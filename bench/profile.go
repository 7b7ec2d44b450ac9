package bench

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the repository modules the CPU ledger charges, in report
// order. bench is this benchmark's own code; go.gc takes the samples
// with no repository frame on the stack (garbage collection and the Go
// scheduler running on its own stack).
var Layers = []string{
	"sim", "platform", "slurm", "selectdmr", "nanos", "mpi", "apps", "redist",
	"checkpoint", "energy", "telemetry", "metrics", "workload", "core", "bench", "go.gc",
}

// Stack is one distinct call stack of a CPU profile.
type Stack struct {
	Frames []string // function names, innermost first
	Count  int64    // samples taken on this stack
}

// LayerOf charges a stack to the layer of its innermost repository
// frame. Runtime frames below it — the channel handoff under
// sim.(*Proc).block, map and allocator calls — count for the layer that
// called them.
func LayerOf(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "go.gc"
}

// frameLayer maps a function name to its layer, "" outside the repo.
func frameLayer(fn string) string {
	const internal = "repro/internal/"
	if strings.HasPrefix(fn, "repro/bench.") || strings.HasPrefix(fn, "repro/bench/") {
		return "bench"
	}
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	pkg := fn[len(internal):]
	// Generic type arguments may hold package paths of their own.
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i]
	}
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	// Longest match: the selection plug-in is a layer of its own, not
	// part of the controller that hosts it.
	if pkg == "slurm/selectdmr" || strings.HasPrefix(pkg, "slurm/selectdmr/") {
		return "selectdmr"
	}
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// Ledger accumulates CPU-profile samples by layer.
type Ledger struct {
	Samples     int64
	ByLayer     map[string]int64
	RuntimeLeaf int64 // samples whose innermost frame is in the Go runtime
}

// Add charges stacks to the ledger.
func (l *Ledger) Add(stacks []Stack) {
	if l.ByLayer == nil {
		l.ByLayer = make(map[string]int64)
	}
	for _, s := range stacks {
		l.Samples += s.Count
		l.ByLayer[LayerOf(s.Frames)] += s.Count
		if len(s.Frames) > 0 && strings.HasPrefix(s.Frames[0], "runtime.") {
			l.RuntimeLeaf += s.Count
		}
	}
}

// Share returns a layer's fraction of all samples.
func (l *Ledger) Share(layer string) float64 {
	if l.Samples == 0 {
		return 0
	}
	return float64(l.ByLayer[layer]) / float64(l.Samples)
}

// ReadProfile decodes the stacks of a runtime/pprof CPU profile: a
// gzipped protocol buffer in the pprof profile.proto schema. Only the
// fields attribution needs are read — each sample's location ids and
// first value, each location's lines (inlined calls, innermost first),
// and each function's name.
func ReadProfile(r io.Reader) ([]Stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, f field) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := fields(f.data, func(num int, f field) error {
				switch num {
				case 1: // location_id
					s.locs = f.varints(s.locs)
				case 2: // value; the first is the sample count
					if v := f.varints(nil); len(v) > 0 && s.count == 0 {
						s.count = int64(v[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(f.data, func(num int, f field) error {
				switch num {
				case 1:
					id = f.v
				case 4: // Line
					return fields(f.data, func(num int, f field) error {
						if num == 1 {
							fns = append(fns, f.v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(f.data, func(num int, f field) error {
				switch num {
				case 1:
					id = f.v
				case 2:
					name = f.v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	stacks := make([]Stack, 0, len(samples))
	for _, s := range samples {
		st := Stack{Count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.Frames = append(st.Frames, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// field is one decoded protocol-buffer field: a scalar v, or the bytes
// of a length-delimited value.
type field struct {
	wire uint64
	v    uint64
	data []byte
}

// varints appends a repeated integer field's values, packed or not.
func (f field) varints(out []uint64) []uint64 {
	if f.wire != 2 {
		return append(out, f.v)
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

var errMalformed = errors.New("malformed protocol buffer")

// fields walks the top-level fields of one protocol-buffer message.
func fields(b []byte, fn func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		f := field{wire: key & 7}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errMalformed
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}
