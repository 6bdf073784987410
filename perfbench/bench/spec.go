// Package bench holds what the end-to-end and the traced runners share:
// the workload definitions, the seeded input generator, the timed batch
// ladder and the open-loop serve load generator, and the result line. It calls
// only the public mincore API, so an internal refactor can break the
// traced layer split but never the end-to-end numbers.
package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

//go:embed workloads.json
var specJSON []byte

// Spec is the parsed workloads.json: the ε ladder every workload reports,
// the per-workload parameters, and what each metric means — for a layer
// metric, the end-to-end metric it should move.
type Spec struct {
	Ladder    []float64           `json:"ladder"`
	Workloads map[string]Workload `json:"workloads"`
	EndToEnd  map[string]string   `json:"end_to_end"`
	PerLayer  map[string]string   `json:"per_layer"`
}

// Workload describes one input set. Batch workloads use N and Sessions;
// the serve workload uses the stream fields. workloads.json also records,
// for people, each workload's dataset, ξ and why it was chosen.
type Workload struct {
	Name string `json:"-"`
	Kind string `json:"kind"`
	N    int    `json:"n"`
	D    int    `json:"d"`
	// DataSeed fixes the point cloud and the library's WithSeed; the
	// run's --seed only orders the input (see Input).
	DataSeed int64 `json:"data_seed"`
	// Sessions lists, per New of a batch pass, the ε built on that
	// Coreseter in order.
	Sessions [][]float64 `json:"sessions"`
	Prefill  int         `json:"prefill"`
	// PrefillBatch is the batch size of the set-up feed; BatchPoints the
	// batch size of the open loop.
	PrefillBatch int     `json:"prefill_batch"`
	BatchPoints  int     `json:"batch_points"`
	FeedsPerSec  float64 `json:"feeds_per_s"`
	ReadsPerSec  float64 `json:"reads_per_s"`
	ReadEps      float64 `json:"read_eps"`
	SketchEps    float64 `json:"sketch_eps"`
	CheckpointS  float64 `json:"checkpoint_s"`
	BuildWorkers int     `json:"build_workers"`
	SetupRepeats int     `json:"setup_repeats"`
	// LadderRounds is how many times the serve workload reads the whole
	// ladder on the quiesced stream, each read right after one batch.
	LadderRounds int                `json:"ladder_rounds"`
	LimitsMS     map[string]float64 `json:"limits_ms"`
}

// LoadSpec parses the embedded workload definitions.
func LoadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range s.Workloads {
		w.Name = name
		s.Workloads[name] = w
	}
	return &s, nil
}

// Lookup returns the named workload or an error listing the known ones.
func (s *Spec) Lookup(name string) (Workload, error) {
	if w, ok := s.Workloads[name]; ok {
		return w, nil
	}
	var names []string
	for n := range s.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// CheckManifest fails unless workloads.json documents exactly the metrics
// BENCHMARK.json declares; the build_s.eps* family shares one entry.
func (s *Spec) CheckManifest(m *Manifest) error {
	check := func(kind string, doc map[string]string, declared []ManifestMetric, family func(string) string) error {
		seen := map[string]bool{}
		for _, d := range declared {
			k := family(d.Name)
			if _, ok := doc[k]; !ok {
				return fmt.Errorf("workloads.json %s does not document %q", kind, d.Name)
			}
			seen[k] = true
		}
		for k := range doc {
			if !seen[k] {
				return fmt.Errorf("workloads.json %s documents %q, which BENCHMARK.json does not declare", kind, k)
			}
		}
		return nil
	}
	e2e := func(name string) string {
		if strings.HasPrefix(name, "build_s.") {
			return "build_s"
		}
		return name
	}
	if err := check("end_to_end", s.EndToEnd, m.EndToEnd, e2e); err != nil {
		return err
	}
	return check("per_layer", s.PerLayer, m.PerLayer, func(n string) string { return n })
}

// EpsKey formats ε the way metric names carry it: build_s.eps0.20.
func EpsKey(eps float64) string { return fmt.Sprintf("eps%.2f", eps) }
