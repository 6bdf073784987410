package bench

import (
	"fmt"
	"io"
	"math"
)

// OpenLoop summarizes a serve run's load for people: the request
// latencies at the percentiles the sample supports, how far the
// generator fell behind its schedule, and whether a backlog grew. Flags
// names the validity checks the run broke.
type OpenLoop struct {
	AckP50, AckP99, ReadP50, ReadP90 float64
	FailRatio                        float64
	FeedLateMax, ReadLateMax         float64
	// Backlog is the mean of acknowledged-but-unapplied points, and
	// ReadLate the median read send delay, over the first and last third
	// of the run.
	BacklogFirst, BacklogLast   float64
	ReadLateFirst, ReadLateLast float64
	Flags                       []string
}

// Summarize computes the open-loop report and checks it against the
// workload's latency limits. A backlog grows when the last third of the
// run carries more unapplied points than two batches beyond the first
// third, or when reads leave a full read period later than at the start.
func Summarize(w Workload, r *ServeRun) OpenLoop {
	o := OpenLoop{
		AckP50: Quantile(r.AckMS, 0.50), AckP99: Quantile(r.AckMS, 0.99),
		ReadP50: Quantile(r.ReadMS, 0.50), ReadP90: Quantile(r.ReadMS, 0.90),
		FeedLateMax: Quantile(r.FeedLateMS, 1), ReadLateMax: Quantile(r.ReadLateMS, 1),
	}
	if r.Attempted > 0 {
		o.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
	o.BacklogFirst, o.BacklogLast = thirds(r.BacklogPts, mean)
	o.ReadLateFirst, o.ReadLateLast = thirds(r.ReadLateMS, Median)
	if lim, ok := w.LimitsMS["ack_p99"]; ok && !(o.AckP99 <= lim) {
		o.Flags = append(o.Flags, fmt.Sprintf("ack_p99 %.3g ms over the %g ms limit", o.AckP99, lim))
	}
	if lim, ok := w.LimitsMS["coreset_p90"]; ok && !(o.ReadP90 <= lim) {
		o.Flags = append(o.Flags, fmt.Sprintf("coreset_p90 %.3g ms over the %g ms limit", o.ReadP90, lim))
	}
	if o.BacklogLast > o.BacklogFirst+2*float64(w.BatchPoints) {
		o.Flags = append(o.Flags, "ingest backlog grew")
	}
	if o.ReadLateLast > o.ReadLateFirst+1000/w.ReadsPerSec {
		o.Flags = append(o.Flags, "read backlog grew")
	}
	return o
}

// Print writes the report, one line per figure.
func (o OpenLoop) Print(w io.Writer, r *ServeRun) {
	fmt.Fprintf(w, "open loop: %d acks, %d reads (%d cache hits), fail ratio %.4g\n",
		len(r.AckMS), len(r.ReadMS), r.ReadHits, o.FailRatio)
	fmt.Fprintf(w, "ack_p50_ms %.4g  ack_p99_ms %.4g  coreset_p50_ms %.4g  coreset_p90_ms %.4g\n",
		o.AckP50, o.AckP99, o.ReadP50, o.ReadP90)
	fmt.Fprintf(w, "generator late (max): feeds %.3g ms, reads %.3g ms\n", o.FeedLateMax, o.ReadLateMax)
	fmt.Fprintf(w, "backlog points first/last third: %.3g / %.3g; read delay first/last third: %.3g / %.3g ms\n",
		o.BacklogFirst, o.BacklogLast, o.ReadLateFirst, o.ReadLateLast)
	for _, f := range o.Flags {
		fmt.Fprintf(w, "FLAG: %s\n", f)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// thirds applies f to the first and the last third of xs.
func thirds(xs []float64, f func([]float64) float64) (first, last float64) {
	k := len(xs) / 3
	if k == 0 {
		return f(xs), f(xs)
	}
	return f(xs[:k]), f(xs[len(xs)-k:])
}
