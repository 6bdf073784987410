package bench

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MS converts a duration to float milliseconds.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// PeakRSSMB returns the process's peak resident set size in MB of 2^20 bytes
// (getrusage's ru_maxrss, which Linux reports in KiB).
func PeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}
