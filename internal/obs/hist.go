package obs

import "math/bits"

// Hist is an HDR-style log-bucket histogram of uint64 samples
// (latencies in cycles, sizes in bytes). Buckets are powers of two
// split into 8 sub-buckets, giving ~12.5% relative resolution at any
// magnitude with a fixed 496-slot footprint and O(1) recording — no
// allocation, no floating point, fully deterministic.
type Hist struct {
	counts [histBuckets]uint64
	Count  uint64
	Sum    uint64
	Min    uint64
	Max    uint64
}

// HistID indexes a Log's histogram table. The order is the export's:
// the simulator records the first five and the wall-clock backends the
// first and the last three, and empty histograms are skipped, so each
// domain's export lists only its own.
type HistID uint8

const (
	HStealLatency HistID = iota // successful steal, begin → thread runnable
	HStackXfer                  // sim: stolen-stack transfer time
	HStackBytes                 // sim: stolen-stack transfer size (bytes)
	HSoftFAA                    // sim: software fetch-and-add round trip
	HSuspendSwap                // sim: suspend swap-out time
	HParkDur                    // wall: full park, block → wake token
	HCopyNS                     // wall: stolen/suspended stack memcpy time
	HCopyBytes                  // wall: stolen/suspended stack size (bytes)
	numHists
)

var histNames = [numHists]string{
	"steal latency", "stack transfer", "stack bytes", "software FAA", "suspend swap",
	"park duration", "stack-copy ns", "stack-copy bytes",
}

const (
	histSubBits = 3
	histSub     = 1 << histSubBits // 8 sub-buckets per power of two
	histBuckets = (64-histSubBits)*histSub + histSub
)

// histBucket maps a value to its bucket index. Values below 8 get exact
// buckets; above, the index is (exponent, top-3-mantissa-bits).
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits
	sub := (v >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histBucketLow returns the smallest value mapping to bucket i.
func histBucketLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := uint(i/histSub - 1 + histSubBits)
	sub := uint64(i % histSub)
	return 1<<exp | sub<<(exp-histSubBits)
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	h.counts[histBucket(v)]++
	h.Count++
	h.Sum += v
	if h.Count == 1 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the exact sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]): the
// highest value of the bucket holding the q·Count-th sample, clamped to
// the observed Max. Resolution is the bucket width (~12.5%).
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank = ceil(q * Count), at least 1.
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) || rank == 0 {
		rank++
	}
	if rank > h.Count {
		rank = h.Count
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			// Upper edge of bucket i: one below the next bucket's low.
			var hi uint64
			if i+1 < histBuckets {
				hi = histBucketLow(i+1) - 1
			} else {
				hi = ^uint64(0)
			}
			if hi > h.Max {
				hi = h.Max
			}
			if hi < h.Min {
				hi = h.Min
			}
			return hi
		}
	}
	return h.Max
}

// Merge adds q's samples into h.
func (h *Hist) Merge(q *Hist) {
	if q.Count == 0 {
		return
	}
	for i, c := range q.counts {
		h.counts[i] += c
	}
	if h.Count == 0 || q.Min < h.Min {
		h.Min = q.Min
	}
	if q.Max > h.Max {
		h.Max = q.Max
	}
	h.Count += q.Count
	h.Sum += q.Sum
}
