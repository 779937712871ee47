package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"esds/internal/core"
	"esds/internal/stats"
	"esds/internal/transport"
)

// snapshot is everything read at a window boundary. Two snapshots bracket a
// timed window; their difference is the window's cost.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // process user+system CPU
	mem     runtime.MemStats
	net     transport.Stats
	replica core.ReplicaMetrics // summed over every replica
	syncs   uint64
	records uint64
	journal int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal returns the clock ticks the hypervisor has taken from this
// machine's CPUs so far and the ticks of all CPU time (Linux /proc/stat; 0, 0
// elsewhere). A run that lost a large share to steal was measured on a
// slower machine than its neighbours.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's high-water resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeSnapshot(d *deployment) snapshot {
	s := snapshot{net: d.netStats(), journal: d.journalBytes()}
	for _, r := range d.replicas() {
		s.replica.Add(r.Metrics())
	}
	for _, st := range d.stores {
		syncs, records := st.Syncs()
		s.syncs += syncs
		s.records += records
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

// suffixSampler polls Replica.Metrics at 20 Hz during a traced window and
// keeps the unstable-suffix length (done but not yet memoized operations) of
// the replica that has the longest one at each tick.
type suffixSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startSuffixSampler(replicas []*core.Replica) *suffixSampler {
	s := &suffixSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				longest := 0
				for _, r := range replicas {
					m := r.Metrics()
					if n := m.DoneOps - m.MemoizedOps; n > longest {
						longest = n
					}
				}
				s.samples = append(s.samples, float64(longest))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *suffixSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count) and 0 for no values.
func median(xs []float64) float64 { return stats.Percentile(sorted(xs), 0.5) }

// histTotal is the sum of everything recorded in h.
func histTotal(h *stats.Hist) float64 { return h.Mean() * float64(h.Count()) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func histMs(h *stats.Hist, p float64) float64 { return float64(h.Quantile(p)) / 1e6 }

// latencies holds every latency of one kind in a window, in nanoseconds.
// The end-to-end percentiles are exact order statistics of these, not
// histogram bucket bounds: a bucket bound reads identically from run to run,
// which hides drift smaller than a bucket.
type latencies []int64

// ms returns the p-quantile (nearest rank) in milliseconds; the slice must
// be sorted. Empty gives 0.
func (l latencies) ms(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(l)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(l[rank]) / 1e6
}

// mergedLatencies pools and sorts the repetitions' samples of one kind.
func mergedLatencies(reps []*repStats, strict bool) latencies {
	var out latencies
	for _, r := range reps {
		if strict {
			out = append(out, r.strict...)
		} else {
			out = append(out, r.nonstrict...)
		}
	}
	slices.Sort(out)
	return out
}
