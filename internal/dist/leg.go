package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/dewey"
	"repro/internal/shard"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// errEpochMismatch marks a leg response rejected for targeting a
// different state version. It is never retried at the transport
// level; the coordinator reloads its state and re-runs the whole
// fan-out instead, so a page is never assembled from mixed epochs.
var errEpochMismatch = errors.New("dist: leg epoch mismatch")

// Config tunes the coordinator's leg transport.
type Config struct {
	// Timeout bounds each HTTP attempt (default 5s).
	Timeout time.Duration
	// Retries is the number of additional attempts after a transport
	// failure (default 2); Backoff the delay before the first retry,
	// doubling each time (default 25ms). With replicas, one "attempt"
	// already tries every replica of the group — the retry loop only
	// re-runs after the whole replica set failed.
	Retries int
	Backoff time.Duration
	// Hedge, when > 0, launches a second identical read if the first
	// has not answered within this delay; the first response wins.
	// With replicas the hedge starts on the next replica in the read
	// rotation. Only idempotent query reads hedge — writes never do.
	Hedge time.Duration
	// AllowPartial lets ranked queries degrade when a leg is
	// unreachable after retries: the leg's contribution is dropped and
	// the page is flagged (total = xseek.StreamTotalUnknown). Doc-order
	// search stays strict regardless.
	AllowPartial bool
	// MaxInflight caps the ranked queries the coordinator admits
	// concurrently (0 = unlimited); MaxQueue is the queue-depth
	// watermark beyond the cap (0 defaults to MaxInflight, negative
	// sheds as soon as the cap is hit). Excess ranked queries fail
	// fast with ErrOverloaded instead of piling onto the legs;
	// doc-order reads and writes are never shed.
	MaxInflight int
	MaxQueue    int
	// Sleep is the retry/backoff sleeper (nil = time.Sleep). Tests
	// inject a fake clock here to assert backoff schedules without
	// wall-clock waiting.
	Sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Counters are the coordinator's transport-health metrics.
type Counters struct {
	Retries   atomic.Int64
	Hedges    atomic.Int64
	Degraded  atomic.Int64
	LegErrs   atomic.Int64
	Failovers atomic.Int64
	Shed      atomic.Int64
}

// legClient issues wire calls to shard servers with per-request
// timeouts, read spreading and failover across a group's replicas,
// bounded retries with exponential backoff, and optional hedged
// reads.
type legClient struct {
	cfg      Config
	hc       *http.Client
	corpus   string
	reps     *replicaTable
	counters *Counters
}

func newLegClient(cfg Config, corpus string, reps *replicaTable, counters *Counters) *legClient {
	cfg = cfg.withDefaults()
	return &legClient{cfg: cfg, hc: &http.Client{}, corpus: corpus, reps: reps, counters: counters}
}

// terminal reports an error no retry can fix.
func terminal(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusConflict || se.code == http.StatusUnprocessableEntity ||
			se.code == http.StatusNotFound || se.code == http.StatusBadRequest
	}
	return false
}

// conflict reports a 409 epoch rejection — terminal for this replica
// (no retry can fix it) but still worth failing over: a sibling
// replica that has not applied a half-broadcast write yet may serve
// the requested epoch.
func conflict(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusConflict
}

// replicaFault reports whether err indicts the replica itself (down,
// hung, or erroring server-side) rather than the request; only these
// demote the replica in the read order.
func replicaFault(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("dist: leg status %d: %s", e.code, e.body) }

// query runs one leg query with replica spread/failover, retries, and
// hedging, decoding the framed envelope. One "attempt" walks group
// g's replicas in rotation order and fails over to the next replica
// on any per-replica error before the retry loop (and its backoff)
// ever engages; a request-shaped rejection (400/404/422) aborts the
// walk because every replica would reject it identically.
func (c *legClient) query(g int, req *QueryRequest) (*Envelope, error) {
	attempt := func() (*Envelope, error) { return c.spreadQuery(g, req) }
	run := attempt
	if c.cfg.Hedge > 0 {
		run = func() (*Envelope, error) { return hedged(c.cfg.Hedge, c.counters, attempt) }
	}
	var err error
	backoff := c.cfg.Backoff
	for try := 0; try <= c.cfg.Retries; try++ {
		if try > 0 {
			c.counters.Retries.Add(1)
			c.cfg.Sleep(backoff)
			backoff *= 2
		}
		var env *Envelope
		if env, err = run(); err == nil {
			return env, nil
		}
		if terminal(err) {
			break
		}
	}
	c.counters.LegErrs.Add(1)
	if conflict(err) {
		var se *statusError
		errors.As(err, &se)
		return nil, fmt.Errorf("%w: %s", errEpochMismatch, se.body)
	}
	return nil, err
}

// spreadQuery tries group g's replicas once each in read-rotation
// order (healthy first), returning the first success.
func (c *legClient) spreadQuery(g int, req *QueryRequest) (*Envelope, error) {
	var err error
	for i, r := range c.reps.order(g) {
		if i > 0 {
			c.counters.Failovers.Add(1)
		}
		var env Envelope
		if err = c.postReplica(g, r, "/shard/v1/query", req, frameInto(&env)); err == nil {
			c.reps.ok(g, r)
			return &env, nil
		}
		if replicaFault(err) {
			c.reps.bad(g, r)
		}
		if terminal(err) && !conflict(err) {
			// The request itself is malformed or names unknown state;
			// every replica would reject it the same way.
			break
		}
	}
	return nil, err
}

// hedged races a second identical attempt if the first has not
// answered within the hedge delay; the first result wins and the
// loser's response is discarded.
func hedged[T any](delay time.Duration, counters *Counters, attempt func() (T, error)) (T, error) {
	type out struct {
		v   T
		err error
	}
	ch := make(chan out, 2)
	go func() { v, err := attempt(); ch <- out{v, err} }()
	t := time.NewTimer(delay)
	defer t.Stop()
	launched, pending := 1, 1
	var firstErr error
	for {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				return o.v, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if launched == 1 || pending == 0 {
				// Either the sole attempt failed before the hedge fired
				// (the retry loop, not a hedge, handles a known-bad
				// call), or both racers failed.
				var zero T
				return zero, firstErr
			}
			// One of two racers failed; wait for the sibling.
		case <-t.C:
			if launched == 1 {
				counters.Hedges.Add(1)
				launched, pending = 2, 2
				go func() { v, err := attempt(); ch <- out{v, err} }()
			}
		}
	}
}

// callReplica runs one non-query wire call (write, compact, ranking)
// against one specific replica, with retries but no hedging and no
// failover — write-path ops must reach every replica individually, so
// spreading them would defeat the point.
func (c *legClient) callReplica(g, r int, path string, body any, out any) error {
	var err error
	backoff := c.cfg.Backoff
	for try := 0; try <= c.cfg.Retries; try++ {
		if try > 0 {
			c.counters.Retries.Add(1)
			c.cfg.Sleep(backoff)
			backoff *= 2
		}
		if err = c.postReplica(g, r, path, body, jsonInto(out)); err == nil {
			c.reps.ok(g, r)
			return nil
		}
		if replicaFault(err) {
			c.reps.bad(g, r)
		}
		if terminal(err) {
			break
		}
	}
	c.counters.LegErrs.Add(1)
	if conflict(err) {
		var se *statusError
		errors.As(err, &se)
		return fmt.Errorf("%w: %s", errEpochMismatch, se.body)
	}
	return err
}

// getReplica fetches one GET endpoint (info, stats, snapshot) from a
// specific replica.
func (c *legClient) getReplica(g, r int, path string, decode func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(g, r, path), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	return decode(resp.Body)
}

// getSpread fetches one GET endpoint from any replica of group g,
// walking the read rotation (idempotent reads only).
func (c *legClient) getSpread(g int, path string, decode func(io.Reader) error) error {
	var err error
	for i, r := range c.reps.order(g) {
		if i > 0 {
			c.counters.Failovers.Add(1)
		}
		if err = c.getReplica(g, r, path, decode); err == nil {
			c.reps.ok(g, r)
			return nil
		}
		if replicaFault(err) {
			c.reps.bad(g, r)
		}
	}
	return err
}

func (c *legClient) url(g, r int, path string) string {
	return c.reps.endpoint(g, r) + path + "?corpus=" + url.QueryEscape(c.corpus)
}

func (c *legClient) postReplica(g, r int, path string, body any, decode func(io.Reader) error) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(g, r, path), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	if decode == nil {
		return nil
	}
	return decode(resp.Body)
}

func frameInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return DecodeFrame(r, v) }
}

func jsonInto(v any) func(io.Reader) error {
	if v == nil {
		return nil
	}
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

// httpLeg is the remote shard.Leg: each coordinator state binds fresh
// legs to its epoch and tree replica, so queries through a stale
// state self-identify at the legs (409) instead of mixing epochs.
type httpLeg struct {
	cl    *legClient
	g     int
	epoch uint64
	root  *xmltree.Node
}

func (l *httpLeg) SearchLeg(q shard.LegQuery) (shard.LegDocs, error) {
	env, err := l.cl.query(l.g, &QueryRequest{Epoch: l.epoch, Kind: KindSearch, Query: q.Query, Terms: q.Terms})
	if err != nil {
		return shard.LegDocs{}, err
	}
	var out shard.LegDocs
	out.SLCAs, err = parseIDs(env.SLCAs)
	if err != nil {
		return shard.LegDocs{}, err
	}
	out.Results = make([]*xseek.Result, len(env.Hits))
	for i, h := range env.Hits {
		if out.Results[i], err = resolveHit(l.root, h); err != nil {
			return shard.LegDocs{}, err
		}
	}
	if out.Boundary, err = resolveHits(l.root, env.Boundary); err != nil {
		return shard.LegDocs{}, err
	}
	return out, nil
}

// resolveHits reconstructs a wire hit list against the coordinator's
// tree replica, nil for an empty list.
func resolveHits(root *xmltree.Node, hits []WireHit) ([]*xseek.Result, error) {
	if len(hits) == 0 {
		return nil, nil
	}
	out := make([]*xseek.Result, len(hits))
	for i, h := range hits {
		r, err := resolveHit(root, h)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (l *httpLeg) RankedLeg(q shard.LegQuery, sharedT *xseek.SharedThreshold) (shard.LegPage, error) {
	req := &QueryRequest{
		Epoch: l.epoch, Kind: KindRanked,
		Query: q.Query, Terms: q.Terms, Limit: q.Limit,
		Approx: q.Accuracy == xseek.AccuracyApprox,
	}
	if sharedT != nil {
		// Ship a snapshot of the cross-leg threshold as this leg's
		// starting score floor. Any snapshot is a lower bound on the
		// global k-th best score, so staleness only costs pruning
		// opportunity, never exactness.
		req.FloorBits = math.Float64bits(sharedT.Load())
	}
	env, err := l.cl.query(l.g, req)
	if err != nil {
		return shard.LegPage{}, err
	}
	if sharedT != nil {
		sharedT.Raise(math.Float64frombits(env.ThresholdBits))
	}
	var out shard.LegPage
	out.Total = env.Total
	out.Stats = xseek.WANDStats{
		Bounded:       env.Stats.Bounded,
		Pruned:        env.Stats.Pruned,
		BlocksSkipped: env.Stats.BlocksSkipped,
		Terminated:    env.Stats.Terminated,
	}
	out.SLCAs, err = parseIDs(env.SLCAs)
	if err != nil {
		return shard.LegPage{}, err
	}
	if out.Boundary, err = resolveHits(l.root, env.Boundary); err != nil {
		return shard.LegPage{}, err
	}
	out.Top = make([]*xseek.RankedResult, len(env.Hits))
	for i, h := range env.Hits {
		r, err := resolveHit(l.root, h)
		if err != nil {
			return shard.LegPage{}, err
		}
		out.Top[i] = &xseek.RankedResult{Result: r, Score: math.Float64frombits(h.ScoreBits)}
	}
	return out, nil
}

func (l *httpLeg) RankSubsetLeg(q shard.LegQuery, subset []*xseek.Result) ([]*xseek.RankedResult, error) {
	req := &QueryRequest{
		Epoch: l.epoch, Kind: KindSubset,
		Query: q.Query, Terms: q.Terms, Limit: q.Limit,
		Subset: make([]WireHit, len(subset)),
	}
	byID := make(map[string]*xseek.Result, len(subset))
	for i, r := range subset {
		req.Subset[i] = wireHit(r, 0)
		byID[req.Subset[i].ID] = r
	}
	env, err := l.cl.query(l.g, req)
	if err != nil {
		return nil, err
	}
	out := make([]*xseek.RankedResult, len(env.Hits))
	for i, h := range env.Hits {
		orig, ok := byID[h.ID]
		if !ok {
			return nil, fmt.Errorf("dist: leg %d ranked unknown subset entry %s", l.g, h.ID)
		}
		out[i] = &xseek.RankedResult{Result: orig, Score: math.Float64frombits(h.ScoreBits)}
	}
	return out, nil
}

func (l *httpLeg) TFUnderLeg(probes []shard.TFProbe) ([]int, error) {
	req := &QueryRequest{Epoch: l.epoch, Kind: KindTF, Probes: make([]WireProbe, len(probes))}
	for i, p := range probes {
		req.Probes[i] = WireProbe{Term: p.Term, ID: p.ID.String()}
	}
	env, err := l.cl.query(l.g, req)
	if err != nil {
		return nil, err
	}
	if len(env.Counts) != len(probes) {
		return nil, fmt.Errorf("dist: leg %d returned %d counts for %d probes", l.g, len(env.Counts), len(probes))
	}
	return env.Counts, nil
}

func parseIDs(ss []string) ([]dewey.ID, error) {
	if len(ss) == 0 {
		return nil, nil
	}
	out := make([]dewey.ID, len(ss))
	for i, s := range ss {
		id, err := parseID(s)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}
