package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank q-th percentile of an ascending
// sample set; an empty set has none and yields NaN, which the metric
// checks then refuse.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vs (mean of the two middles when even)
// without disturbing the caller's order.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// betterMedian is the median the segment values of a run are reduced
// with. For an even count it does not average the two middle values but
// takes the better one — the lower for a lower-is-better metric, the
// higher otherwise. The box's disturbances are one-sided (a 200 ms
// hypervisor stall, a neighbour's burst: segments only ever get worse),
// and a stall that straddles a segment boundary spoils two of the four
// segments at once; the better middle value is the one closer to the
// undisturbed system, and it is the same rule on both sides of a diff.
func betterMedian(vs []float64, lowerIsBetter bool) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 || lowerIsBetter {
		return s[(n-1)/2]
	}
	return s[n/2]
}

// quartiles returns the first and third quartile of vs the way
// Python's statistics.quantiles(vs, n=4) does (the exclusive method),
// which is how the benchmark driver measures run-to-run spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the spread printed beside every reported median: the
// distance between the first and third quartile of the values, as a
// share of their median. Over a run's segments it says how far the
// run's own parts disagree; over runs it is the driver's criterion.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// sortedCopy returns vs ascending.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM)
// from /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
