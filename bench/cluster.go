package main

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

const (
	clusterLegs   = 4
	clusterCorpus = "movies"
)

// legCall is one request a shard leg served, timed at the leg's
// http.Handler boundary: everything the leg process would do for it
// (frame decode, leg search, frame encode) and nothing of the
// coordinator's.
type legCall struct {
	Leg       int   `json:"leg"`
	Start     int64 `json:"start_ns"` // since the recorder's origin
	End       int64 `json:"end_ns"`
	ReqBytes  int64 `json:"req_bytes"`
	RespBytes int64 `json:"resp_bytes"`
}

// legRecorder collects leg calls while switched on. It is off during
// the untraced timed phase, where a metered leg costs one atomic load.
type legRecorder struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	calls  []legCall
}

// take returns and clears the calls recorded so far.
func (r *legRecorder) take() []legCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// meteredLeg wraps a leg's handler with the recorder.
type meteredLeg struct {
	leg   int
	inner http.Handler
	rec   *legRecorder
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (m *meteredLeg) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.rec.on.Load() {
		m.inner.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Since(m.rec.origin)
	m.inner.ServeHTTP(cw, r)
	end := time.Since(m.rec.origin)
	req := r.ContentLength
	if req < 0 {
		req = 0
	}
	m.rec.mu.Lock()
	m.rec.calls = append(m.rec.calls, legCall{Leg: m.leg, Start: int64(start), End: int64(end), ReqBytes: req, RespBytes: cw.n})
	m.rec.mu.Unlock()
}

// unionNS returns the total length of the union of the calls'
// intervals: the time at least one leg was busy.
func unionNS(calls []legCall) int64 {
	if len(calls) == 0 {
		return 0
	}
	sorted := append([]legCall(nil), calls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	total := int64(0)
	lo, hi := sorted[0].Start, sorted[0].End
	for _, c := range sorted[1:] {
		if c.Start > hi {
			total += hi - lo
			lo, hi = c.Start, c.End
		} else if c.End > hi {
			hi = c.End
		}
	}
	return total + hi - lo
}

// clusterStack is a coordinator over clusterLegs in-process shard
// servers on real loopback listeners.
type clusterStack struct {
	root    *xmltree.Node
	co      *dist.Coordinator
	eng     *engine.Engine
	rec     *legRecorder
	servers []*http.Server
	serving sync.WaitGroup
	dialMS  float64
}

// close shuts the legs down and waits for their serve loops to end.
func (s *clusterStack) close() {
	if s == nil {
		return
	}
	for _, hs := range s.servers {
		hs.Close()
	}
	s.serving.Wait()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the coordinator's leg client dials through it
	}
}

// setupCluster generates one tree replica per process role (every leg
// and the coordinator own theirs, as separate processes would), boots
// the legs, dials the coordinator, and answers one query.
func setupCluster(cfg runConfig) func() (*clusterStack, error) {
	return func() (*clusterStack, error) {
		s := &clusterStack{rec: &legRecorder{origin: time.Now()}}
		endpoints := make([]string, 0, clusterLegs)
		shared := cfg.corpus()
		for g := 0; g < clusterLegs; g++ {
			sv, err := dist.NewServer(g, clusterLegs)
			if err != nil {
				s.close()
				return nil, err
			}
			if err := sv.AddCorpus(clusterCorpus, shared); err != nil {
				s.close()
				return nil, fmt.Errorf("leg %d: %w", g, err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				s.close()
				return nil, err
			}
			hs := &http.Server{Handler: &meteredLeg{leg: g, inner: sv, rec: s.rec}}
			s.servers = append(s.servers, hs)
			s.serving.Add(1)
			go func() {
				defer s.serving.Done()
				_ = hs.Serve(l) // returns http.ErrServerClosed on close
			}()
			endpoints = append(endpoints, "http://"+l.Addr().String())
		}
		s.root = shared
		t := time.Now()
		co, err := dist.Dial(endpoints, clusterCorpus, s.root, dist.Config{})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.dialMS = ms(time.Since(t))
		s.co = co
		s.eng = engine.FromDist(co, engine.Config{})
		if _, err := s.eng.SearchRankedPage(firstQuery(s.root), xseek.SearchOptions{Limit: pageLimit}); err != nil {
			s.close()
			return nil, fmt.Errorf("first query: %w", err)
		}
		return s, nil
	}
}

func runClusterK4(cfg runConfig, res *runResult) error {
	st, setupS, setupSp, err := measureSetup(cfg.setups, setupCluster(cfg), (*clusterStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	facts := readCorpus(st.root)
	pool := buildPool(facts)
	res.Pool = poolComposition(pool)

	// One client: the latency is the fan-out's critical path, not
	// queueing behind another request on a 2-core box.
	client := newReadClient(st.eng, pool, cfg.seed, 0)
	log := runClosedLoop([]clientFn{client.next}, cfg.warmup, cfg.segment(), selfAlloc)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	setEndToEnd(res, log, setupS, setupSp, cfg.setups, rss)
	noteErrors(res, client.lastErr)

	ref := xseek.NewParallel(cfg.corpus())
	checked, failed, detail := verifySamples(ref, pool, []*readClient{client}, nil)
	res.check("cluster_pages_bit_identical_to_in_process", checked, failed, detail)

	if err := dodProbe(res, st.eng, buildSelections(pool), dodOpsProbe); err != nil {
		return err
	}
	return writeProbe(cfg, res, st.eng, facts)
}
