package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/snippet"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

const (
	// httpConns is the number of keep-alive connections, one per client
	// goroutine: the box has two cores.
	httpConns = 2
	// httpRate is the fixed arrival rate, requests/second, of the traced
	// run's open loop and the cadence of the write probe.
	httpRate = 400.0
	// httpCompareK results are compared per compare request.
	httpCompareK = 5
	// The write probe runs httpProbeRounds rounds of httpProbePairs
	// add/remove pairs, the first of each round an untimed warm-up, and
	// compacts after every round: 62 writes stay below the 64 pending
	// writes at which xsactd compacts in the background and renumbers the
	// ID the probe holds between an add and its remove. One round's 30
	// samples of a 0.4 ms request put the median's run-to-run spread at
	// the 25 % bound; four halve it.
	httpProbeRounds = 4
	httpProbePairs  = 31
)

// httpClass is one request class of the API mix.
type httpClass uint8

const (
	httpSearch httpClass = iota
	httpRanked
	httpCompare
	httpSnippet
	numHTTPClasses
)

var httpClassNames = [numHTTPClasses]string{"search", "ranked", "compare", "snippet"}

// httpMix is the request mix, in httpClass order.
var httpMix = [numHTTPClasses]float64{0.35, 0.30, 0.25, 0.10}

// builtinDataset mirrors cmd/xsactd's dataset table: menu name (the
// API's dataset parameter), generator, and canonical queries.
type builtinDataset struct {
	name    string
	gen     func() *xmltree.Node
	queries []string
}

func builtinDatasets() []builtinDataset {
	return []builtinDataset{
		{"Product Reviews", func() *xmltree.Node { return dataset.ProductReviews(dataset.ReviewsConfig{Seed: 1}) }, dataset.ReviewQueries()},
		{"Outdoor Retailer", func() *xmltree.Node { return dataset.OutdoorRetailer(dataset.RetailerConfig{Seed: 1}) }, dataset.RetailerQueries()},
		{"Movies", func() *xmltree.Node { return dataset.Movies(dataset.MoviesConfig{Seed: 1}) }, dataset.MovieQueries()},
	}
}

// httpTarget is one distinct request of the workload, with what the
// in-process replay needs to repeat it without HTTP.
type httpTarget struct {
	class   httpClass
	path    string // path + query string
	dataset string
	query   string
	idx     int // snippet: result index
	k       int // compare: results 0..k-1
}

// buildXsactd compiles cmd/xsactd into the build directory.
func buildXsactd(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.buildDir, "xsactd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xsactd")
	cmd.Dir = cfg.repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xsactd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by listening on :0 and closing.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// xsactdProc is a running xsactd with its serving and profiling
// addresses.
type xsactdProc struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been waited for
	base    string        // http://addr
	pprof   string        // http://addr of the -pprof side listener
	stderr  bytes.Buffer
	startMS float64 // process start → first good reply
	client  *http.Client
}

// stop kills the server and waits for it to exit.
func (p *xsactdProc) stop() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // fails only if it has exited already
	<-p.exited
	p.client.CloseIdleConnections()
}

// get issues one GET and returns status and body.
func (p *xsactdProc) get(u string) (int, []byte, error) {
	resp, err := p.client.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// totalAlloc reads the server's cumulative allocated bytes from the
// profiling listener's /debug/memstats.
func (p *xsactdProc) totalAlloc() uint64 {
	code, body, err := p.get(p.pprof + "/debug/memstats")
	if err != nil || code != http.StatusOK {
		return 0
	}
	var m struct {
		TotalAlloc uint64 `json:"total_alloc"`
	}
	if json.Unmarshal(body, &m) != nil {
		return 0
	}
	return m.TotalAlloc
}

// startXsactd launches the binary, waits for its first good reply, and
// warms every built-in dataset (each builds lazily on first touch).
func startXsactd(bin string) (*xsactdProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	paddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &xsactdProc{base: "http://" + addr, pprof: "http://" + paddr, client: &http.Client{Timeout: 30 * time.Second}}
	p.cmd = exec.Command(bin, "-addr", addr, "-pprof", paddr, "-seed", "1")
	p.cmd.Stderr = &p.stderr
	// Should this process die without running stop, the kernel kills the
	// server.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.exited = make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // the exit is what matters, not its status
		close(p.exited)
	}()
	deadline := t.Add(30 * time.Second)
	for {
		code, _, err := p.get(p.base + "/api/v1/metrics")
		if err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("xsactd exited during start-up:\n%s", p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("xsactd did not answer within 30s: %v\n%s", err, p.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.startMS = ms(time.Since(t))
	for _, d := range builtinDatasets() {
		u := p.base + "/api/v1/search?" + url.Values{"dataset": {d.name}, "q": {d.queries[0]}, "limit": {"10"}}.Encode()
		if code, body, err := p.get(u); err != nil || code != http.StatusOK {
			p.stop()
			return nil, fmt.Errorf("warming %s: status %d err %v body %.200s", d.name, code, err, body)
		}
	}
	if code, _, err := p.get(p.pprof + "/debug/memstats"); err != nil || code != http.StatusOK {
		p.stop()
		return nil, fmt.Errorf("profiling listener: status %d err %v", code, err)
	}
	return p, nil
}

// searchTotal asks the server how many results a query has.
func (p *xsactdProc) searchTotal(ds, q string) (int, error) {
	u := p.base + "/api/v1/search?" + url.Values{"dataset": {ds}, "q": {q}, "limit": {"1"}}.Encode()
	code, body, err := p.get(u)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("search %s %q: status %d err %v", ds, q, code, err)
	}
	var r struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.Total, nil
}

// buildTargets derives the distinct requests of the mix from each
// dataset's canonical queries and their result counts. Everything fits
// every engine cache: this workload measures the front end.
func buildTargets(p *xsactdProc) (*apiTargets, error) {
	out := new(apiTargets)
	for _, d := range builtinDatasets() {
		for _, q := range d.queries {
			total, err := p.searchTotal(d.name, q)
			if err != nil {
				return out, err
			}
			page := url.Values{"dataset": {d.name}, "q": {q}, "limit": {strconv.Itoa(pageLimit)}}
			out[httpSearch] = append(out[httpSearch], httpTarget{class: httpSearch, path: "/api/v1/search?" + page.Encode(), dataset: d.name, query: q})
			page.Set("rank", "1")
			out[httpRanked] = append(out[httpRanked], httpTarget{class: httpRanked, path: "/api/v1/search?" + page.Encode(), dataset: d.name, query: q})
			if total >= 2 {
				k := httpCompareK
				if total < k {
					k = total
				}
				v := url.Values{"dataset": {d.name}, "q": {q}, "L": {"10"}, "alg": {string(core.AlgMultiSwap)}}
				for i := 0; i < k; i++ {
					v.Add("sel", strconv.Itoa(i))
				}
				out[httpCompare] = append(out[httpCompare], httpTarget{class: httpCompare, path: "/api/v1/compare?" + v.Encode(), dataset: d.name, query: q, k: k})
			}
			for i := 0; i < total && i < 3; i++ {
				v := url.Values{"dataset": {d.name}, "q": {q}, "idx": {strconv.Itoa(i)}}
				out[httpSnippet] = append(out[httpSnippet], httpTarget{class: httpSnippet, path: "/api/v1/snippet?" + v.Encode(), dataset: d.name, query: q, idx: i})
			}
		}
	}
	for c := range out {
		if len(out[c]) == 0 {
			return out, fmt.Errorf("no %s targets", httpClassNames[c])
		}
	}
	return out, nil
}

// apiTargets is the distinct requests of the mix, by class.
type apiTargets [numHTTPClasses][]httpTarget

// draw picks the next request of the mix.
func (ts *apiTargets) draw(r *rand.Rand) httpTarget {
	c := pickKind(r, httpMix[:])
	return ts[c][r.Intn(len(ts[c]))]
}

// httpOps draws n seeded requests from the mix.
func httpOps(targets *apiTargets, seed int64, n int) []httpTarget {
	r := rand.New(rand.NewSource(seed*1_000_003 + 61))
	ops := make([]httpTarget, n)
	for i := range ops {
		ops[i] = targets.draw(r)
	}
	return ops
}

// sender is one keep-alive connection to the server.
type sender struct {
	client *http.Client
}

func newSender() *sender {
	return &sender{client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do issues a request and returns the body; a transport error or a
// non-2xx status is a failed op.
func (s *sender) do(u string) ([]byte, error) {
	resp, err := s.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	return body, nil
}

// spinWindow is the tail of every scheduled wait that is spun rather
// than slept: nanosleep overshoots by roughly this much.
const spinWindow = 120 * time.Microsecond

// waitUntil blocks until t with microsecond precision. time.Sleep is
// no good here: an idle Go scheduler sleeps in epoll_wait, whose
// timeout is in whole milliseconds, so a request would leave about half
// a millisecond late on average — more than its service time. The wait
// sleeps in nanosleep(2) until just before t and spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up just lengthens the spin
	}
	for time.Until(t) > 0 {
	}
}

// sampledResponse is a response kept for the post-phase output check.
type sampledResponse struct {
	target httpTarget
	body   []byte
}

// apiClient is one closed-loop client of the API on its own keep-alive
// connection: it draws its next request from the seeded mix as soon as
// the previous reply has been read.
type apiClient struct {
	s         *sender
	base      string
	targets   *apiTargets
	r         *rand.Rand
	n         int
	respBytes int64
	samples   []sampledResponse
	lastErr   error
}

func newAPIClient(p *xsactdProc, targets *apiTargets, seed int64, client int) *apiClient {
	return &apiClient{
		s: newSender(), base: p.base, targets: targets,
		r: rand.New(rand.NewSource(seed*1_000_003 + 61 + int64(client)*7919)),
	}
}

// next implements clientFn.
func (c *apiClient) next() (uint8, bool) {
	t := c.targets.draw(c.r)
	body, err := c.s.do(c.base + t.path)
	c.n++
	if err != nil {
		c.lastErr = err
		return streamMain, false
	}
	c.respBytes += int64(len(body))
	if c.n%sampleEvery == 0 {
		c.samples = append(c.samples, sampledResponse{t, body})
	}
	return streamMain, true
}

// runAPIClients runs the workload's timed phase: httpConns closed-loop
// clients against the server.
func runAPIClients(p *xsactdProc, targets *apiTargets, seed int64, warm, segment time.Duration) (*phaseLog, []*apiClient) {
	clients := make([]*apiClient, httpConns)
	fns := make([]clientFn, httpConns)
	for i := range clients {
		clients[i] = newAPIClient(p, targets, seed, i)
		fns[i] = clients[i].next
	}
	log := runClosedLoop(fns, warm, segment, p.totalAlloc)
	for _, c := range clients {
		c.s.client.CloseIdleConnections()
	}
	return log, clients
}

// openLoopLog is an open-loop phase's outcome.
type openLoopLog struct {
	phaseLog
	lateMS  []float64 // how late each recorded request left, ascending
	lastErr error
}

// runOpenLoop sends ops on a seeded Poisson schedule at httpRate over
// httpConns connections. Each request is timed from its due time, so a
// stall delays — and is charged to — every request scheduled behind it.
// Only the traced run uses it; see README.md for why the gated phase is
// a closed loop.
func runOpenLoop(p *xsactdProc, ops []httpTarget, seed int64, warm, segment time.Duration) *openLoopLog {
	r := rand.New(rand.NewSource(seed*1_000_003 + 67))
	due := make([]time.Duration, len(ops))
	at := time.Duration(0)
	for i := range due {
		at += time.Duration(r.ExpFloat64() / httpRate * float64(time.Second))
		due[i] = at
	}
	end := warm + numSegments*segment

	log := &openLoopLog{phaseLog: phaseLog{warm: warm, segment: segment}}
	t0 := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < httpConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newSender()
			defer s.client.CloseIdleConnections()
			var recs []opRecord
			var late []float64
			var lastErr error
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || due[i] >= end {
					break
				}
				waitUntil(t0.Add(due[i]))
				sent := time.Since(t0)
				_, err := s.do(p.base + ops[i].path)
				done := time.Since(t0)
				if err != nil {
					lastErr = err
				}
				if due[i] < warm {
					continue
				}
				recs = append(recs, opRecord{start: due[i] - warm, lat: done - due[i], stream: streamMain, failed: err != nil})
				late = append(late, ms(sent-due[i]))
			}
			mu.Lock()
			log.ops = append(log.ops, recs...)
			log.lateMS = append(log.lateMS, late...)
			if lastErr != nil {
				log.lastErr = lastErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Float64s(log.lateMS)
	return log
}

// --- the in-process twin of the API handlers ---

// builtinEngines builds the three built-in corpora in process, the way
// xsactd does, for replaying API ops without HTTP.
func builtinEngines() map[string]*engine.Engine {
	out := make(map[string]*engine.Engine)
	for _, d := range builtinDatasets() {
		out[d.name] = engine.NewWithConfig(d.gen(), liveConfig)
	}
	return out
}

// apiAnswer is what the output check compares: the fields of an API
// response that identify its content.
type apiAnswer struct {
	IDs      []string
	Total    int
	DoD      int
	Features []string
}

// inProcess performs a target's engine work exactly as the handler
// does — same calls, same options — and returns the comparable answer.
func inProcess(engs map[string]*engine.Engine, t httpTarget) (apiAnswer, error) {
	eng := engs[t.dataset]
	var a apiAnswer
	switch t.class {
	case httpSearch:
		page, _, err := eng.SearchCleanedPage(t.query, xseek.SearchOptions{Limit: pageLimit})
		if err != nil {
			return a, err
		}
		a.Total = page.Total
		for _, r := range page.Results {
			a.IDs = append(a.IDs, r.Node.ID.String())
			_ = xseek.DescribeResult(r, 4)
		}
	case httpRanked:
		page, _, err := eng.SearchCleanedRankedPage(t.query, xseek.SearchOptions{Limit: pageLimit})
		if err != nil {
			return a, err
		}
		a.Total = page.Total
		for _, r := range page.Results {
			a.IDs = append(a.IDs, r.Node.ID.String())
			_ = xseek.DescribeResult(r.Result, 4)
		}
	case httpCompare:
		rs, _, err := eng.SearchCleaned(t.query)
		if err != nil {
			return a, err
		}
		if len(rs) < t.k {
			return a, fmt.Errorf("%q: %d results, need %d", t.query, len(rs), t.k)
		}
		dfss := eng.Generate(core.AlgMultiSwap, rs[:t.k], core.Options{SizeBound: 10, Pad: true})
		tbl := table.Build(dfss)
		a.DoD = core.TotalDoD(dfss, core.DefaultThreshold)
		a.Total = len(tbl.Rows)
	case httpSnippet:
		rs, cleaned, err := eng.SearchCleaned(t.query)
		if err != nil {
			return a, err
		}
		if t.idx >= len(rs) {
			return a, fmt.Errorf("%q: idx %d of %d", t.query, t.idx, len(rs))
		}
		r := rs[t.idx]
		sn := snippet.Generate(eng.Stats(r.Node, r.Label), snippet.Options{Query: strings.Join(cleaned, " ")})
		for _, f := range sn.Features {
			a.Features = append(a.Features, f.Entity+"/"+f.Attribute+"="+f.Value)
		}
	}
	return a, nil
}

// parseAnswer extracts the comparable answer from an API response.
func parseAnswer(t httpTarget, body []byte) (apiAnswer, error) {
	var a apiAnswer
	switch t.class {
	case httpSearch, httpRanked:
		var r struct {
			Total   int `json:"total"`
			Results []struct {
				ID string `json:"id"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.Total = r.Total
		for _, x := range r.Results {
			a.IDs = append(a.IDs, x.ID)
		}
	case httpCompare:
		var r struct {
			DoD  int               `json:"dod"`
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		a.DoD, a.Total = r.DoD, len(r.Rows)
	case httpSnippet:
		var r struct {
			Features []struct {
				Entity, Attribute, Value string
			} `json:"features"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		for _, f := range r.Features {
			a.Features = append(a.Features, f.Entity+"/"+f.Attribute+"="+f.Value)
		}
	}
	return a, nil
}

func (a apiAnswer) String() string {
	return fmt.Sprintf("total=%d dod=%d ids=%v features=%v", a.Total, a.DoD, a.IDs, a.Features)
}

// verifyResponses compares sampled API responses with the in-process
// answer to the same request.
func verifyResponses(engs map[string]*engine.Engine, samples []sampledResponse) (checked, failed int, detail string) {
	for _, s := range samples {
		checked++
		got, err := parseAnswer(s.target, s.body)
		want, werr := inProcess(engs, s.target)
		if err != nil || werr != nil || got.String() != want.String() {
			failed++
			if detail == "" {
				detail = fmt.Sprintf("%s: got %.100s want %.100s (%v, %v)", s.target.path, got, want, err, werr)
			}
		}
	}
	return checked, failed, detail
}

// --- API-side probes for the metrics the timed phase does not yield ---

// httpDoDProbe issues every distinct compare request once and returns
// the mean of the DoD the server reports.
func httpDoDProbe(p *xsactdProc, targets []httpTarget) (float64, error) {
	s := newSender()
	defer s.client.CloseIdleConnections()
	sum := 0
	for _, t := range targets {
		body, err := s.do(p.base + t.path)
		if err != nil {
			return 0, err
		}
		a, err := parseAnswer(t, body)
		if err != nil {
			return 0, err
		}
		sum += a.DoD
	}
	return float64(sum) / float64(len(targets)), nil
}

// httpWriteProbe times add/remove pairs through /api/v1/documents on
// the Movies dataset, compacting it after each round of pairs.
func httpWriteProbe(p *xsactdProc, seed int64) (adds, removes []float64, err error) {
	facts := readCorpus(dataset.Movies(dataset.MoviesConfig{Seed: 1}))
	r := rand.New(rand.NewSource(seed*1_000_003 + 43))
	// Writes leave on the timed phase's cadence, after the same spin, so
	// the client and the server are as warm as they were there; a
	// back-to-back ping-pong over loopback measures wake-up latency.
	slot, gap := time.Now(), time.Duration(float64(time.Second)/httpRate)
	pace := func() time.Time {
		slot = slot.Add(gap)
		if now := time.Now(); slot.Before(now) {
			slot = now
		}
		waitUntil(slot)
		return time.Now()
	}
	for n := 0; n < httpProbeRounds*httpProbePairs; n++ {
		i := n % httpProbePairs
		if n > 0 && i == 0 {
			resp, err := p.client.Post(p.base+"/api/v1/compact?"+url.Values{"dataset": {"Movies"}}.Encode(), "", nil)
			if err != nil {
				return nil, nil, err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, nil, fmt.Errorf("POST compact: status %d", resp.StatusCode)
			}
		}
		movie := newMovie(facts, r, fmt.Sprintf("benchprobe%dq", n))
		movie.AssignIDs(nil)
		reqBody, err := json.Marshal(map[string]string{"dataset": "Movies", "xml": xmltree.XMLString(movie)})
		if err != nil {
			return nil, nil, err
		}
		t := pace()
		resp, err := p.client.Post(p.base+"/api/v1/documents", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		addMS := ms(time.Since(t))
		if err != nil || resp.StatusCode != http.StatusCreated {
			return nil, nil, fmt.Errorf("POST documents: status %d err %v body %.200s", resp.StatusCode, err, body)
		}
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, nil, err
		}
		req, err := http.NewRequest(http.MethodDelete, p.base+"/api/v1/documents?"+url.Values{"dataset": {"Movies"}, "id": {doc.ID}}.Encode(), nil)
		if err != nil {
			return nil, nil, err
		}
		t = pace()
		resp, err = p.client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		removeMS := ms(time.Since(t))
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("DELETE documents: status %d err %v body %.200s", resp.StatusCode, err, body)
		}
		if i > 0 { // a round's first pair is the warm-up
			adds, removes = append(adds, addMS), append(removes, removeMS)
		}
	}
	return adds, removes, nil
}

func runHTTPAPI(cfg runConfig, res *runResult) error {
	bin, err := buildXsactd(cfg)
	if err != nil {
		return err
	}
	p, setupS, setupSp, err := measureSetup(cfg.setups, func() (*xsactdProc, error) { return startXsactd(bin) }, (*xsactdProc).stop)
	if err != nil {
		return err
	}
	defer p.stop()
	targets, err := buildTargets(p)
	if err != nil {
		return err
	}
	log, clients := runAPIClients(p, targets, cfg.seed, cfg.warmup, cfg.segment())
	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return err
	}
	setEndToEnd(res, log, setupS, setupSp, cfg.setups, rss)
	var samples []sampledResponse
	for _, c := range clients {
		noteErrors(res, c.lastErr)
		samples = append(samples, c.samples...)
	}
	checked, failed, detail := verifyResponses(builtinEngines(), samples)
	res.check("api_responses_equal_in_process_engine", checked, failed, detail)

	dod, err := httpDoDProbe(p, targets[httpCompare])
	if err != nil {
		return fmt.Errorf("dod probe: %w", err)
	}
	res.set("dod_mean", dod, 0, len(targets[httpCompare]))
	adds, removes, err := httpWriteProbe(p, cfg.seed)
	if err != nil {
		return fmt.Errorf("write probe: %w", err)
	}
	setWriteProbe(res, adds, removes)
	res.Attempted += int64(len(targets[httpCompare]) + len(adds) + len(removes))
	return nil
}
