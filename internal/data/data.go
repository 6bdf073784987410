// Package data generates the evaluation datasets. NORMAL and UNIFORM
// follow Section 7 exactly. The six real-world datasets of Table 1 are
// not redistributable here (offline build), so deterministic synthetic
// stand-ins reproduce each one's size, dimensionality, and hull profile
// (the ξ regime that drives every experiment); the substitutions are
// documented in DESIGN.md §4. All generators are seeded and deterministic,
// and every dataset is normalized to [−1,1] per dimension as in the
// paper's preprocessing step.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"mincore/internal/geom"
)

// Dataset is a named point set.
type Dataset struct {
	Name   string
	Points []geom.Vector
	D      int
	// PaperN and PaperXi record the statistics of the dataset in Table 1
	// of the paper (0 for synthetic datasets that have no table entry).
	PaperN  int
	PaperXi int
}

// Normal returns n points in d dimensions, each attribute drawn
// independently from the standard normal distribution and rescaled to
// [−1,1] (Section 7).
func Normal(n, d int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	normalize(pts)
	return Dataset{Name: fmt.Sprintf("NORMAL-%dd", d), Points: pts, D: d}
}

// Uniform returns n points with each attribute drawn independently from
// the uniform distribution on [−1,1] (Section 7).
func Uniform(n, d int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = geom.NewVector(d)
		for j := range pts[i] {
			pts[i][j] = 2*rng.Float64() - 1
		}
	}
	return Dataset{Name: fmt.Sprintf("UNIFORM-%dd", d), Points: pts, D: d}
}

// normalize rescales every dimension of pts to [−1,1] in place
// (min-max, matching the paper's preprocessing).
func normalize(pts []geom.Vector) {
	if len(pts) == 0 {
		return
	}
	d := pts[0].Dim()
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range pts {
		for j := 0; j < d; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	for _, p := range pts {
		for j := 0; j < d; j++ {
			if hi[j] > lo[j] {
				p[j] = 2*(p[j]-lo[j])/(hi[j]-lo[j]) - 1
			} else {
				p[j] = 0
			}
		}
	}
}

// FourSquare models the check-in location datasets (2D): a mixture of
// dense urban clusters along a road-grid-like spread, giving the small
// hull (ξ ≈ 50–60) of city-bounded coordinates. city selects NYC or TKY
// statistics.
func FourSquare(city string, n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	// Cluster centers model neighborhoods; a wide shallow component
	// models suburban scatter bounding the hull.
	k := 12
	centers := make([]geom.Vector, k)
	for i := range centers {
		centers[i] = geom.Vector{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4}
	}
	pts := make([]geom.Vector, n)
	for i := range pts {
		if rng.Float64() < 0.9 {
			c := centers[rng.Intn(k)]
			pts[i] = geom.Vector{c[0] + rng.NormFloat64()*0.08, c[1] + rng.NormFloat64()*0.08}
		} else {
			// Suburban scatter: uniform over an elliptical metro boundary.
			// A uniform region gives the Θ(n^{1/3}) hull-vertex count that
			// matches the paper's ξ ≈ 50–60 for bounded city coordinates
			// (a Gaussian background would give only Θ(√log n) ≈ 10).
			r := math.Sqrt(rng.Float64())
			th := rng.Float64() * 2 * math.Pi
			pts[i] = geom.Vector{1.1 * r * math.Cos(th), 0.8 * r * math.Sin(th)}
		}
	}
	normalize(pts)
	name, paperN, paperXi := "FourSquare-NYC", 37000, 50
	if city == "TKY" {
		name, paperN, paperXi = "FourSquare-TKY", 59955, 60
	}
	return Dataset{Name: name, Points: pts, D: 2, PaperN: paperN, PaperXi: paperXi}
}

// RoadNetwork models the North Jutland road dataset (3D: longitude,
// latitude, elevation): positions scattered over an irregular region with
// elevation a smooth low-frequency surface plus noise, yielding the small
// ξ ≈ 180 hull of Table 1.
func RoadNetwork(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		// Region: union of a few elongated Gaussian "districts".
		var x, y float64
		switch rng.Intn(3) {
		case 0:
			x, y = rng.NormFloat64()*0.8, rng.NormFloat64()*0.3
		case 1:
			x, y = rng.NormFloat64()*0.3, rng.NormFloat64()*0.8
		default:
			x, y = rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
		}
		// Smooth terrain + noise.
		z := 0.4*math.Sin(2.1*x)*math.Cos(1.7*y) + 0.2*math.Sin(5.3*x+1.0) + rng.NormFloat64()*0.05
		pts[i] = geom.Vector{x, y, z}
	}
	normalize(pts)
	return Dataset{Name: "RoadNetwork", Points: pts, D: 3, PaperN: 434874, PaperXi: 182}
}

// Climate models seasonal average temperatures of weather stations (4D):
// four strongly correlated seasonal values driven by a latitude factor
// with continental/oceanic modulation, giving a flattened, cigar-shaped
// cloud with a large hull (ξ ≈ 900).
func Climate(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		lat := rng.Float64()*2 - 1      // −1 pole … +1 equator proxy
		base := 15*lat + 5              // annual mean
		amp := (1 - math.Abs(lat)) * 5  // seasonal amplitude shrinks at equator? inverted below
		cont := rng.NormFloat64() * 6   // continentality: larger swings inland
		amp = 10 + math.Abs(cont) - amp // net seasonal swing
		noise := func() float64 { return rng.NormFloat64() * 2 }
		winter := base - amp + noise()
		spring := base - amp*0.2 + noise()
		summer := base + amp + noise()
		autumn := base + amp*0.2 + noise()
		pts[i] = geom.Vector{winter, spring, summer, autumn}
	}
	normalize(pts)
	return Dataset{Name: "Climate", Points: pts, D: 4, PaperN: 566262, PaperXi: 888}
}

// AirQuality models pollutant concentration records (6D): correlated
// log-normal concentrations of six pollutants sharing an episode factor
// (smoggy days raise everything) with per-pollutant idiosyncratics,
// matching the heavy-tailed positive-orthant geometry of such data
// (ξ ≈ 530).
func AirQuality(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	loads := []float64{1.0, 0.9, 0.7, 0.8, 0.5, 0.6}
	for i := range pts {
		episode := rng.NormFloat64()
		p := geom.NewVector(6)
		for j := 0; j < 6; j++ {
			p[j] = math.Exp(0.8*loads[j]*episode + 0.5*rng.NormFloat64())
		}
		pts[i] = p
	}
	normalize(pts)
	return Dataset{Name: "AirQuality", Points: pts, D: 6, PaperN: 383980, PaperXi: 532}
}

// Colors models the Corel color-moment dataset (9D): per-channel mean,
// standard deviation, and skewness of image colors. Real image moments
// are driven by a handful of scene factors (overall brightness,
// colorfulness, warm/cool balance), which concentrates the cloud near a
// low-dimensional manifold — that structure is what keeps the hull at
// ξ ≈ 2000 out of 68,040 points (2.9%) in Table 1 despite d = 9. The
// generator therefore derives all nine moments from four latent factors
// plus small independent noise; an i.i.d. 9D cloud would make nearly
// every point extreme.
func Colors(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := geom.NewVector(9)
		bright := rng.Float64()                   // scene brightness
		colorful := rng.Float64() * rng.Float64() // saturation, skewed low
		warm := rng.NormFloat64() * 0.2           // warm/cool channel balance
		texture := rng.Float64()                  // busyness → spread & skew
		for ch := 0; ch < 3; ch++ {
			chShift := warm * float64(ch-1) // R up, B down for warm scenes
			noise := func() float64 { return rng.NormFloat64() * 0.02 }
			mean := clamp(bright+chShift+noise(), 0, 1)
			sd := clamp(0.1+0.35*colorful+0.15*texture+noise(), 0, 0.6)
			skew := (0.5 - bright) * (0.4 + texture) * 1.5
			p[ch*3] = mean
			p[ch*3+1] = sd
			p[ch*3+2] = skew + noise()*3
		}
		pts[i] = p
	}
	normalize(pts)
	return Dataset{Name: "Colors", Points: pts, D: 9, PaperN: 68040, PaperXi: 1961}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ByName returns the named dataset at size n (n ≤ 0 uses the paper's
// size). Names: foursquare-nyc, foursquare-tky, roadnetwork, climate,
// airquality, colors, normal-<d>d, uniform-<d>d.
func ByName(name string, n int, seed int64) (Dataset, error) {
	pick := func(def int) int {
		if n > 0 {
			return n
		}
		return def
	}
	switch name {
	case "foursquare-nyc":
		return FourSquare("NYC", pick(37000), seed), nil
	case "foursquare-tky":
		return FourSquare("TKY", pick(59955), seed), nil
	case "roadnetwork":
		return RoadNetwork(pick(434874), seed), nil
	case "climate":
		return Climate(pick(566262), seed), nil
	case "airquality":
		return AirQuality(pick(383980), seed), nil
	case "colors":
		return Colors(pick(68040), seed), nil
	}
	var d int
	if _, err := fmt.Sscanf(name, "normal-%dd", &d); err == nil && d >= 1 {
		return Normal(pick(100000), d, seed), nil
	}
	if _, err := fmt.Sscanf(name, "uniform-%dd", &d); err == nil && d >= 1 {
		return Uniform(pick(100000), d, seed), nil
	}
	return Dataset{}, fmt.Errorf("data: unknown dataset %q", name)
}

// RealNames lists the six Table 1 stand-ins in paper order.
func RealNames() []string {
	return []string{
		"foursquare-nyc", "foursquare-tky", "roadnetwork",
		"climate", "airquality", "colors",
	}
}
