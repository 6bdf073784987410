package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Manifest is the part of BENCHMARK.json the runners check their output
// against: the metric names and units of each run mode.
type Manifest struct {
	EndToEnd []ManifestMetric `json:"end_to_end"`
	PerLayer []ManifestMetric `json:"per_layer"`
}

// ManifestMetric is one metric declaration of BENCHMARK.json.
type ManifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// LoadManifest reads BENCHMARK.json from the working directory, which is
// the root of the checkout the benchmark runs in.
func LoadManifest() (*Manifest, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// Finish checks that metrics carry exactly the declared names and units
// and finite values, prints them one per line for people, and prints the
// result object as the last line. A mismatch is a bug in the runner and
// fails the run rather than reporting a partial result.
func Finish(w io.Writer, want []ManifestMetric, r Result) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("runner produced %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("runner did not produce metric %q", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %q has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			// A failed request can leave no finite sample; the run is then
			// already incorrect, and -1 keeps the line valid JSON.
			r.Metrics[m.Name] = Metric{Value: -1, Unit: m.Unit}
			r.Correct = false
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
