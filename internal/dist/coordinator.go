package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Coordinator fans one corpus's queries out to remote shard legs and
// merges them through the exact shard.Fanout pipeline the in-process
// engine runs, so pages, scores (Float64bits), tie order, and totals
// are bit-identical. It also owns the write path: writers serialize
// here, the statistics delta is computed once on the coordinator's
// tree replica, and one WriteOp broadcast moves every leg (and then
// the coordinator) to the next epoch.
type Coordinator struct {
	corpus string
	shards int
	cfg    Config

	reps *replicaTable
	adm  *admission

	cl       *legClient
	counters Counters

	writeMu sync.Mutex
	// pending is a write whose broadcast failed partway: some replicas
	// may have applied it, so it must be re-broadcast (idempotent per
	// epoch) and committed before any different op is accepted.
	pending *pendingWrite
	cur     atomic.Pointer[coordState]

	updates, compactions atomic.Int64
}

// pendingWrite is an indeterminate broadcast awaiting re-issue.
type pendingWrite struct {
	path   string
	op     any
	commit func()
}

// coordState is one immutable epoch of the coordinator's view.
type coordState struct {
	epoch uint64
	// doc is the live document replica: tree, ordinals, schema and the
	// journal since the last compaction, moved by the same writes every
	// leg applies. part is the effective partition — the plan from the
	// last compaction with live adds appended to the last group and
	// removed segments dropped, mirroring how every leg resolves
	// ownership.
	doc      update.Doc
	part     shard.Partition
	own      shard.Ownership
	spineIdx *index.Index

	// Exact whole-corpus statistics, maintained with the same integer
	// deltas the in-process live engine applies.
	df         map[string]int
	totalNodes int
	elements   int

	fan *shard.Fanout
}

// Dial connects to a cluster of single-replica shard servers — one
// endpoint per shard group. See DialReplicas for replicated groups.
func Dial(endpoints []string, corpus string, root *xmltree.Node, cfg Config) (*Coordinator, error) {
	groups, err := groupsOf(endpoints, 1)
	if err != nil {
		return nil, err
	}
	return DialReplicas(groups, corpus, root, cfg)
}

// DialReplicas connects to a cluster of shard servers with N replicas
// per shard group, validates the topology (every replica of group g
// must identify as shard g and be at epoch 0), aggregates the global
// document frequencies (spine + one replica per group — replicas are
// state-identical by protocol), and pushes the ranking constants to
// every replica so each scores with the whole-corpus IDF. root must
// be the same document every shard server bootstrapped from.
//
// Idempotent reads spread round-robin over a group's healthy replicas
// and fail over on per-replica errors; writes broadcast to every
// replica of every group under the epoch protocol.
func DialReplicas(groups [][]string, corpus string, root *xmltree.Node, cfg Config) (*Coordinator, error) {
	reps, err := newReplicaTable(groups)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		corpus: corpus,
		shards: len(groups),
		cfg:    cfg.withDefaults(),
		reps:   reps,
		adm:    newAdmission(cfg.MaxInflight, cfg.MaxQueue),
	}
	co.cl = newLegClient(co.cfg, corpus, reps, &co.counters)

	schema := xseek.InferSchemaParallel(root, 0)
	part := shard.Plan(root, schema, co.shards)
	spineIdx := index.BuildNodes(root, part.Spine)

	for g := range groups {
		for r := 0; r < reps.count(g); r++ {
			var info InfoResponse
			if err := co.cl.getReplica(g, r, "/shard/v1/info", jsonInto(&info)); err != nil {
				return nil, fmt.Errorf("dist: leg %d replica %d: %w", g, r, err)
			}
			if info.ShardID != g || info.Shards != co.shards {
				return nil, fmt.Errorf("dist: leg %d replica %d identifies as shard %d/%d, want %d/%d",
					g, r, info.ShardID, info.Shards, g, co.shards)
			}
			if info.Epoch != 0 {
				return nil, fmt.Errorf("dist: leg %d replica %d is at epoch %d; bootstrap requires clean legs",
					g, r, info.Epoch)
			}
		}
	}

	// Aggregate global document frequencies: the spine's (local) plus
	// every leg's. The node sets are disjoint, so the sums equal the
	// monolithic index's counts exactly. One replica per group
	// suffices — Dial just validated they are all at epoch 0 with the
	// same bootstrap tree.
	df := make(map[string]int)
	spineIdx.EachTerm(func(t string, n int) { df[t] += n })
	elements := spineIdx.Stats().IndexedElements
	for g := range groups {
		var stats StatsResponse
		if err := co.cl.getReplica(g, 0, "/shard/v1/stats", func(r io.Reader) error { return DecodeFrame(r, &stats) }); err != nil {
			return nil, fmt.Errorf("dist: leg %d stats: %w", g, err)
		}
		for t, n := range stats.DF {
			df[t] += n
		}
		elements += stats.Elements
	}

	rk := Ranking{TotalNodes: part.NodeCount, DF: df}
	for g := range groups {
		for r := 0; r < reps.count(g); r++ {
			if err := co.cl.callReplica(g, r, "/shard/v1/ranking", &rk, nil); err != nil {
				return nil, fmt.Errorf("dist: leg %d replica %d ranking push: %w", g, r, err)
			}
		}
	}

	st := &coordState{
		doc:        update.NewDoc(root, schema),
		part:       part,
		own:        part.Ownership(),
		spineIdx:   spineIdx,
		df:         df,
		totalNodes: part.NodeCount,
		elements:   elements,
	}
	co.install(st, nil)
	return co, nil
}

// install builds the state's fan-out over fresh epoch-bound HTTP legs
// and publishes it.
func (co *Coordinator) install(st *coordState, prev *coordState) {
	legs := make([]shard.Leg, len(st.part.Groups))
	for g := range legs {
		legs[g] = &httpLeg{cl: co.cl, g: g, epoch: st.epoch, root: st.doc.Root()}
	}
	fan := shard.NewFanout(st.doc.Root(), st.doc.Schema(), st.part, st.spineIdx, legs, st.df, st.elements)
	if prev != nil {
		fan.AdoptCounters(prev.fan)
	}
	if co.cfg.AllowPartial {
		fan = fan.WithLegFailurePolicy(func(g int, err error) error {
			if errors.Is(err, errEpochMismatch) {
				// Not a failure — a write raced; the coordinator-level
				// retry re-runs the fan-out on the fresh state.
				return err
			}
			co.counters.Degraded.Add(1)
			return nil
		})
	}
	st.fan = fan
	co.cur.Store(st)
}

// Endpoint returns leg g's first replica's current base URL.
func (co *Coordinator) Endpoint(g int) string {
	return co.reps.endpoint(g, 0)
}

// SetLegEndpoint repoints leg g's first replica — the recovery hook
// after a single-replica leg is restarted (possibly elsewhere) from
// its shipped snapshot.
func (co *Coordinator) SetLegEndpoint(g int, url string) {
	co.reps.set(g, 0, url)
}

// ReplicaEndpoint returns replica r of group g's current base URL.
func (co *Coordinator) ReplicaEndpoint(g, r int) string {
	return co.reps.endpoint(g, r)
}

// SetReplicaEndpoint repoints one replica of a group and clears its
// failure mark — the recovery hook after a replica is restarted
// (possibly elsewhere) from a local or peer-fetched snapshot.
func (co *Coordinator) SetReplicaEndpoint(g, r int, url string) {
	co.reps.set(g, r, url)
}

// ReplicaCount returns group g's replica count.
func (co *Coordinator) ReplicaCount(g int) int { return co.reps.count(g) }

// Replicas returns the widest group's replica count — the cluster's
// nominal replication factor.
func (co *Coordinator) Replicas() int { return co.reps.maxReplicas() }

// Epoch returns the coordinator's current state version.
func (co *Coordinator) Epoch() uint64 { return co.cur.Load().epoch }

// LegCount returns the number of serving legs (partition groups).
func (co *Coordinator) LegCount() int { return len(co.cur.Load().part.Groups) }

// DistCounters reports transport-health metrics: retries issued,
// hedged reads launched, degraded (partial) pages served, leg calls
// that failed after all retries, reads failed over to another
// replica, and ranked queries shed by admission control.
func (co *Coordinator) DistCounters() (retries, hedges, degraded, legErrs, failovers, shed int64) {
	return co.counters.Retries.Load(), co.counters.Hedges.Load(),
		co.counters.Degraded.Load(), co.counters.LegErrs.Load(),
		co.counters.Failovers.Load(), co.counters.Shed.Load()
}

// ShipSnapshot fetches group g's snapshot — the bytes a replacement
// process restores from — failing over across the group's replicas.
func (co *Coordinator) ShipSnapshot(g int) ([]byte, error) {
	var buf bytes.Buffer
	err := co.cl.getSpread(g, "/shard/v1/snapshot", func(r io.Reader) error {
		buf.Reset()
		_, err := io.Copy(&buf, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// queryAttempts bounds the re-runs a query gets when it catches a leg
// mid-write (epoch mismatch). Each re-run reloads the state, so one
// attempt after the write settles is enough in practice.
const queryAttempts = 4

// retryQuery re-runs f on the freshest state until the epochs settle.
func retryQuery[T any](co *Coordinator, f func(*coordState) (T, error)) (T, error) {
	var out T
	var err error
	for i := 0; i < queryAttempts; i++ {
		s := co.cur.Load()
		out, err = f(s)
		if err == nil || !errors.Is(err, errEpochMismatch) {
			return out, err
		}
		// A write is in flight: the legs are ahead of (or behind) the
		// state we fanned out with. Give the broadcast a moment to
		// publish, then re-run on the fresh state.
		co.cfg.Sleep(5 * time.Millisecond)
	}
	return out, err
}

// ---- executor surface (the same one internal/engine serves) ----

func (co *Coordinator) Root() *xmltree.Node   { return co.cur.Load().doc.Root() }
func (co *Coordinator) Schema() *xseek.Schema { return co.cur.Load().doc.Schema() }
func (co *Coordinator) TotalNodes() int       { return co.cur.Load().totalNodes }
func (co *Coordinator) DocFreq(term string) int {
	return co.cur.Load().df[term]
}
func (co *Coordinator) EstimateResults(query string) int {
	return co.cur.Load().fan.EstimateResults(query)
}
func (co *Coordinator) CleanQuery(query string) []string {
	return co.cur.Load().fan.CleanQuery(query)
}
func (co *Coordinator) PlannerDecisions() (indexedLookup, scanEager int64) { return 0, 0 }
func (co *Coordinator) StreamedDecisions() int64 {
	return co.cur.Load().fan.StreamedDecisions()
}
func (co *Coordinator) IndexStats() index.Stats {
	return co.cur.Load().fan.IndexStats()
}

func (co *Coordinator) SearchStream(query string) (xseek.Cursor, error) {
	return retryQuery(co, func(s *coordState) (xseek.Cursor, error) {
		return s.fan.SearchStream(query)
	})
}

// admit gates a ranked query through admission control, counting the
// shed. Only the error-returning ranked paths are gated: doc-order
// reads and writes always run, and the nil-on-error ranking helpers
// are excluded so overload never masquerades as an empty page.
func (co *Coordinator) admit() error {
	if err := co.adm.acquire(); err != nil {
		co.counters.Shed.Add(1)
		return err
	}
	return nil
}

func (co *Coordinator) SearchRankedPageWAND(query string, opts xseek.SearchOptions) ([]*xseek.RankedResult, int, xseek.WANDStats, error) {
	if err := co.admit(); err != nil {
		return nil, 0, xseek.WANDStats{}, err
	}
	defer co.adm.release()
	type page struct {
		rs    []*xseek.RankedResult
		total int
		stats xseek.WANDStats
	}
	p, err := retryQuery(co, func(s *coordState) (page, error) {
		rs, total, stats, err := s.fan.SearchRankedPageWAND(query, opts)
		return page{rs, total, stats}, err
	})
	return p.rs, p.total, p.stats, err
}

// RankResults has no error channel in the executor surface; a fan-out
// that cannot complete returns nil — observably unavailable, never
// silently wrong.
func (co *Coordinator) RankResults(results []*xseek.Result, query string) []*xseek.RankedResult {
	out, err := retryQuery(co, func(s *coordState) ([]*xseek.RankedResult, error) {
		return s.fan.RankResultsErr(results, query)
	})
	if err != nil {
		return nil
	}
	return out
}

// ---- write path ----

// PendingOps returns the number of writes since the last compaction.
func (co *Coordinator) PendingOps() int { return len(co.cur.Load().doc.Journal()) }

// Updates returns the lifetime add+remove count.
func (co *Coordinator) Updates() int64 { return co.updates.Load() }

// Compactions returns the lifetime compaction count.
func (co *Coordinator) Compactions() int64 { return co.compactions.Load() }

// AddEntity appends an entity as a new top-level child across the
// cluster: fresh ordinal, broadcast fragment, post-write ranking
// computed once here and installed everywhere. The coordinator takes
// ownership of n.
func (co *Coordinator) AddEntity(n *xmltree.Node) (dewey.ID, error) {
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	if err := co.flushPendingLocked(); err != nil {
		return nil, err
	}
	s := co.cur.Load()
	doc, err := s.doc.Add(n)
	if err != nil {
		return nil, err
	}

	ent := index.BuildForest(doc.Root(), []*xmltree.Node{n})
	df := adjustedDF(s.df, ent, +1)
	totalNodes := s.totalNodes + n.CountNodes()

	journal := doc.Journal()
	op := &WriteOp{Epoch: s.epoch, Ord: n.ID[0], XML: journal[len(journal)-1].XML,
		Ranking: Ranking{TotalNodes: totalNodes, DF: df}}

	ns := &coordState{
		epoch:      s.epoch + 1,
		doc:        doc,
		part:       appendSegment(s.part, n, totalNodes),
		spineIdx:   s.spineIdx,
		df:         df,
		totalNodes: totalNodes,
		elements:   s.elements + ent.Stats().IndexedElements,
	}
	ns.own = ns.part.Ownership()
	if err := co.commitLocked("/shard/v1/write", op, s, ns, co.updates.Add); err != nil {
		return nil, err
	}
	return n.ID, nil
}

// RemoveEntity removes a top-level entity across the cluster. Spine-
// rooted elements (wrappers the partition treats as write-invariant
// structure) cannot be removed through the distributed path.
func (co *Coordinator) RemoveEntity(id dewey.ID) error {
	if len(id) != 1 {
		return fmt.Errorf("dist: %v is not a top-level entity ID", id)
	}
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	if err := co.flushPendingLocked(); err != nil {
		return err
	}
	s := co.cur.Load()
	if victim := s.doc.Entity(id[0]); victim != nil && s.own.Spine(victim.ID) {
		return fmt.Errorf("dist: %v is spine-rooted; spine removals are not distributable", id)
	}
	doc, victim, err := s.doc.Remove(id[0])
	if err != nil {
		return err
	}

	vic := index.BuildForest(s.doc.Root(), []*xmltree.Node{victim})
	df := adjustedDF(s.df, vic, -1)
	totalNodes := s.totalNodes - victim.CountNodes()

	op := &WriteOp{Epoch: s.epoch, Remove: true, Ord: id[0],
		Ranking: Ranking{TotalNodes: totalNodes, DF: df}}

	ns := &coordState{
		epoch:      s.epoch + 1,
		doc:        doc,
		part:       removeSegment(s.part, victim, totalNodes),
		spineIdx:   s.spineIdx,
		df:         df,
		totalNodes: totalNodes,
		elements:   s.elements - vic.Stats().IndexedElements,
	}
	ns.own = ns.part.Ownership()
	return co.commitLocked("/shard/v1/write", op, s, ns, co.updates.Add)
}

// Compact re-bases the cluster: every leg (and the coordinator)
// re-plans and rebuilds from the live tree, renumbering exactly when
// a removal is pending — the rule update.Doc.Compact applies in
// process too, so the compacted corpora stay bit-identical. The schema
// carries over from the live document. With nothing pending it is a
// no-op.
func (co *Coordinator) Compact() error {
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	if err := co.flushPendingLocked(); err != nil {
		return err
	}
	s := co.cur.Load()
	if len(s.doc.Journal()) == 0 {
		return nil
	}
	op := &CompactOp{Epoch: s.epoch, Renumber: s.doc.HasRemove()}

	doc := s.doc.Compact()
	root := doc.Root()
	part := shard.Plan(root, doc.Schema(), co.shards)
	ns := &coordState{
		epoch:      s.epoch + 1,
		doc:        doc,
		part:       part,
		own:        part.Ownership(),
		spineIdx:   index.BuildNodes(root, part.Spine),
		df:         s.df,
		totalNodes: s.totalNodes,
		elements:   s.elements,
	}
	return co.commitLocked("/shard/v1/compact", op, s, ns, func(int64) int64 {
		return co.compactions.Add(1)
	})
}

// Flush re-issues any pending (partially-broadcast) write until every
// replica has acknowledged it, then publishes the held state. It is a
// no-op when no write is pending. Callers use it to settle the
// cluster after a broadcast failure before asserting convergence.
func (co *Coordinator) Flush() error {
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	return co.flushPendingLocked()
}

// commitLocked broadcasts op and, on success, publishes ns and bumps
// the lifetime counter. On failure the op may have been applied by
// some replicas, so it is parked as pending: the op itself keeps
// failing closed (every later write first re-broadcasts it, which the
// already-moved replicas acknowledge idempotently) rather than
// letting a *different* op at the same epoch diverge the cluster.
// Callers must hold writeMu.
func (co *Coordinator) commitLocked(path string, op any, s, ns *coordState, bump func(int64) int64) error {
	commit := func() {
		co.install(ns, s)
		bump(1)
	}
	if err := co.broadcast(path, op); err != nil {
		co.pending = &pendingWrite{path: path, op: op, commit: commit}
		return err
	}
	commit()
	return nil
}

// flushPendingLocked re-broadcasts the parked write, if any, and
// commits it once every replica acknowledges. Callers must hold
// writeMu.
func (co *Coordinator) flushPendingLocked() error {
	p := co.pending
	if p == nil {
		return nil
	}
	if err := co.broadcast(p.path, p.op); err != nil {
		return fmt.Errorf("dist: pending write still unacknowledged: %w", err)
	}
	p.commit()
	co.pending = nil
	return nil
}

// broadcast sends one op to every replica of every shard group in
// parallel and fails if any replica cannot be moved. Ops are
// idempotent per epoch: a replica that already applied this op
// acknowledges the retry, so a failed broadcast can simply be
// re-issued (the coordinator publishes only after every replica has
// acknowledged).
func (co *Coordinator) broadcast(path string, op any) error {
	type target struct{ g, r int }
	var targets []target
	for g := 0; g < co.shards; g++ {
		for r := 0; r < co.reps.count(g); r++ {
			targets = append(targets, target{g, r})
		}
	}
	errs := make([]error, len(targets))
	core.ForEachParallel(len(targets), 0, func(i int) {
		errs[i] = co.cl.callReplica(targets[i].g, targets[i].r, path, op, nil)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("dist: write broadcast to leg %d replica %d: %w",
				targets[i].g, targets[i].r, err)
		}
	}
	return nil
}

// appendSegment extends the effective partition with a live-added
// entity: a new trailing segment owned by the last group.
func appendSegment(p shard.Partition, n *xmltree.Node, nodeCount int) shard.Partition {
	np := shard.Partition{
		Segments:  append(p.Segments[:len(p.Segments):len(p.Segments)], n),
		Spine:     p.Spine,
		Groups:    append([][2]int(nil), p.Groups...),
		Sizes:     append(p.Sizes[:len(p.Sizes):len(p.Sizes)], n.CountNodes()),
		NodeCount: nodeCount,
	}
	np.Groups[len(np.Groups)-1][1]++
	return np
}

// removeSegment drops a live-removed entity's segment from the
// effective partition, shrinking its group's range.
func removeSegment(p shard.Partition, victim *xmltree.Node, nodeCount int) shard.Partition {
	si := -1
	for i, sg := range p.Segments {
		if sg == victim {
			si = i
			break
		}
	}
	np := shard.Partition{Spine: p.Spine, NodeCount: nodeCount}
	if si < 0 {
		// The victim is not segment-rooted (it lives inside another
		// segment) — impossible for top-level entities; keep the
		// partition shape rather than corrupt it.
		np.Segments, np.Groups, np.Sizes = p.Segments, p.Groups, p.Sizes
		return np
	}
	np.Segments = append(append([]*xmltree.Node(nil), p.Segments[:si]...), p.Segments[si+1:]...)
	np.Sizes = append(append([]int(nil), p.Sizes[:si]...), p.Sizes[si+1:]...)
	np.Groups = make([][2]int, len(p.Groups))
	for g, r := range p.Groups {
		lo, hi := r[0], r[1]
		if si < lo {
			lo--
		}
		if si < hi {
			hi--
		}
		np.Groups[g] = [2]int{lo, hi}
	}
	return np
}

// adjustedDF returns a fresh frequency table with idx's per-term
// document counts applied at sign — the same integer bookkeeping the
// in-process live engine's freqs.adjusted performs, with exhausted
// terms dropped so the vocabulary size matches a cold index's.
func adjustedDF(base map[string]int, idx *index.Index, sign int) map[string]int {
	out := make(map[string]int, len(base))
	for t, n := range base {
		out[t] = n
	}
	idx.EachTerm(func(t string, n int) {
		if out[t] += sign * n; out[t] <= 0 {
			delete(out, t)
		}
	})
	return out
}
