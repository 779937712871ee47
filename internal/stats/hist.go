package stats

import "math/bits"

// Hist is an HDR-style latency histogram: log-linear buckets giving a
// bounded RELATIVE quantile error (at most 1/2^histSubBits ≈ 1.6%) over
// the whole non-negative int64 range, with a constant memory footprint and
// an allocation-free record path. It exists for the load lab (DESIGN.md
// §11): an open-loop generator records one value per operation at
// arbitrary rates, workers keep private histograms, and the per-worker
// histograms Merge into the run's distribution — a sorted-slice percentile
// over millions of samples would allocate per op and sort at read time.
//
// Values are unit-agnostic int64s (the load lab records nanoseconds).
// Negative values clamp to 0. A Hist is NOT goroutine-safe: share one per
// goroutine and Merge, or wrap it in a mutex.
type Hist struct {
	counts [histBuckets]uint64
	total  uint64
	sum    float64 // running sum for Mean (float: avoids int64 overflow at ns scale)
	min    int64
	max    int64
}

// Log-linear bucketing: values below histSubCount are exact; above, each
// power-of-two range is split into histSubCount linear sub-buckets, so a
// bucket's width is at most its lower bound / histSubCount.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits
	histRows     = 64 - histSubBits + 1 // row 0 exact + one row per exponent
	histBuckets  = histRows * histSubCount
)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{min: -1}
}

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // ≥ histSubBits
	shift := uint(exp - histSubBits)
	row := exp - histSubBits + 1
	sub := int(u>>shift) & (histSubCount - 1)
	return row*histSubCount + sub
}

// histUpper is the largest value a bucket holds — the value Quantile
// reports for samples in it (quantiles never under-report).
func histUpper(idx int) int64 {
	row := idx / histSubCount
	sub := idx % histSubCount
	if row == 0 {
		return int64(sub)
	}
	shift := uint(row - 1)
	lower := (int64(histSubCount) + int64(sub)) << shift
	return lower + (int64(1) << shift) - 1
}

// Record adds one observation. It performs no allocation (the load lab's
// hot path pins this with testing.AllocsPerRun).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.total++
	h.sum += float64(v)
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h (o is unchanged). Merging is exact: the combined
// histogram is identical to recording both sample streams into one.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total }

// Min returns the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Hist) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns an upper bound for the p-quantile (0 ≤ p ≤ 1): the
// bucket upper bound of the ⌈p·N⌉-th smallest observation, within the
// relative bucket error of the true value and never below it. Empty
// histograms return 0.
func (h *Hist) Quantile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	rank := uint64(p * float64(h.total))
	if float64(rank) < p*float64(h.total) || rank == 0 {
		rank++ // ceiling, and 1-based
	}
	if rank > h.total {
		rank = h.total
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := histUpper(i)
			if u > h.max {
				u = h.max // the top bucket may extend past the true max
			}
			return u
		}
	}
	return h.max
}
