package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// A timed phase is a warm-up followed by numSegments equal segments.
// Every reported end-to-end value is the median of its per-segment
// values (betterMedian), with the segment spread printed beside it, so
// one noisy stretch (a GC cycle, a neighbour on the box) moves a run's
// number far less than it would move a whole-run mean.
const numSegments = 4

// Op streams within a phase: the latency gates read stream 0; writers
// log their adds and removes separately.
const (
	streamMain = iota
	streamAdd
	streamRemove
)

// opRecord is one completed operation.
type opRecord struct {
	start  time.Duration // offset from phase start (the due time on an open loop)
	lat    time.Duration
	stream uint8
	failed bool
}

// phaseLog is the raw outcome of a timed phase.
type phaseLog struct {
	warm, segment time.Duration
	ops           []opRecord
	// alloc holds cumulative allocated bytes of the serving process at
	// the numSegments+1 segment boundaries.
	alloc []uint64
}

// clientFn performs a client's next operation and reports its stream
// and whether it succeeded. It is called from one goroutine only.
type clientFn func() (stream uint8, ok bool)

// selfAlloc reads this process's cumulative allocated bytes.
func selfAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// boundaryProbe samples alloc at every segment boundary of a phase
// that starts at t0, returning the numSegments+1 readings when done.
func boundaryProbe(t0 time.Time, warm, segment time.Duration, alloc func() uint64) func() []uint64 {
	out := make([]uint64, 0, numSegments+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k <= numSegments; k++ {
			time.Sleep(time.Until(t0.Add(warm + time.Duration(k)*segment)))
			out = append(out, alloc())
		}
	}()
	return func() []uint64 { <-done; return out }
}

// runClosedLoop runs one goroutine per client, each issuing its next
// op as soon as the previous one returns, for warm + numSegments x
// segment. Ops started during warm-up are run but not recorded.
func runClosedLoop(clients []clientFn, warm, segment time.Duration, alloc func() uint64) *phaseLog {
	log := &phaseLog{warm: warm, segment: segment}
	t0 := time.Now()
	end := warm + numSegments*segment
	probe := boundaryProbe(t0, warm, segment, alloc)
	logs := make([][]opRecord, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, next clientFn) {
			defer wg.Done()
			var recs []opRecord
			for {
				start := time.Since(t0)
				if start >= end {
					break
				}
				stream, ok := next()
				if start >= warm {
					recs = append(recs, opRecord{start: start - warm, lat: time.Since(t0) - start, stream: stream, failed: !ok})
				}
			}
			logs[i] = recs
		}(i, c)
	}
	wg.Wait()
	log.alloc = probe()
	for _, recs := range logs {
		log.ops = append(log.ops, recs...)
	}
	return log
}

// segmentStats is one stream's view of one segment: its latencies,
// ascending, in milliseconds, failed ops included.
type segmentStats struct {
	lats []float64
}

// segmentOf returns the segment an op started in.
func (l *phaseLog) segmentOf(op opRecord) int {
	return min(int(op.start/l.segment), numSegments-1)
}

// bySegment splits a stream's ops over the segments they started in.
func (l *phaseLog) bySegment(stream uint8) [numSegments]segmentStats {
	var out [numSegments]segmentStats
	for _, op := range l.ops {
		if op.stream != stream {
			continue
		}
		k := l.segmentOf(op)
		out[k].lats = append(out[k].lats, ms(op.lat))
	}
	for k := range out {
		sort.Float64s(out[k].lats)
	}
	return out
}

// counts returns attempted and failed ops over all streams.
func (l *phaseLog) counts() (attempted, failed int64) {
	for _, op := range l.ops {
		attempted++
		if op.failed {
			failed++
		}
	}
	return attempted, failed
}

// segmentValues evaluates f on every segment that has samples.
func segmentValues(segs [numSegments]segmentStats, f func(segmentStats) float64) []float64 {
	var out []float64
	for _, s := range segs {
		if len(s.lats) > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

// latencyPercentile reports a stream's q-th latency percentile as the
// median of its per-segment percentiles.
func (l *phaseLog) latencyPercentile(stream uint8, q float64) (value, segSpread float64, samples int) {
	segs := l.bySegment(stream)
	vs := segmentValues(segs, func(s segmentStats) float64 { return percentile(s.lats, q) })
	for _, s := range segs {
		samples += len(s.lats)
	}
	return betterMedian(vs, true), spread(vs), samples
}

// throughput reports a stream's completed work per second, per
// segment: an op counts in the segment it finished in, and only if it
// succeeded. A failed op is no work done, however fast it failed; and on
// an open loop, where every due request is sent sooner or later, only
// counting at completion lets a server that falls behind show as fewer
// ops per second (the backlog finishes after the phase and counts
// nowhere).
func (l *phaseLog) throughput(stream uint8) (value, segSpread float64) {
	var done [numSegments]int
	for _, op := range l.ops {
		if k := int((op.start + op.lat) / l.segment); op.stream == stream && !op.failed && k < numSegments {
			done[k]++
		}
	}
	vs := make([]float64, 0, numSegments)
	for _, n := range done {
		vs = append(vs, float64(n)/l.segment.Seconds())
	}
	return betterMedian(vs, false), spread(vs)
}

// allocKBPerOp reports allocated KiB per op of any stream, per segment.
func (l *phaseLog) allocKBPerOp() (value, segSpread float64) {
	var n [numSegments]int
	for _, op := range l.ops {
		n[l.segmentOf(op)]++
	}
	var vs []float64
	for k := 0; k < numSegments && k+1 < len(l.alloc); k++ {
		if n[k] > 0 {
			vs = append(vs, float64(l.alloc[k+1]-l.alloc[k])/1024/float64(n[k]))
		}
	}
	return betterMedian(vs, true), spread(vs)
}

// allLatencies returns a stream's latencies over the whole phase,
// ascending, in milliseconds.
func (l *phaseLog) allLatencies(stream uint8) []float64 {
	var out []float64
	for _, op := range l.ops {
		if op.stream == stream {
			out = append(out, ms(op.lat))
		}
	}
	sort.Float64s(out)
	return out
}
