package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Server is one shard server: it replicates the document tree per
// corpus but builds and serves only its own group's inverted index,
// behind the /shard/v1 wire API. Queries are lock-free over an
// atomically swapped immutable state; writes serialize per corpus.
type Server struct {
	shardID int
	shards  int

	mu      sync.RWMutex
	corpora map[string]*corpus
}

// corpus is one served corpus's slot.
type corpus struct {
	writeMu sync.Mutex // serializes write / compact / ranking installs
	cur     atomic.Pointer[legState]
}

// legState is one immutable snapshot of a leg's corpus state. Every
// mutation installs a fresh state; queries load it once and never see
// a torn view.
type legState struct {
	epoch uint64
	// baseRoot is the tree at the last compaction (contiguous
	// ordinals); root is the live tree layered over it by the journal.
	baseRoot *xmltree.Node
	root     *xmltree.Node
	schema   *xseek.Schema
	// part/own are the partition planned at the last compaction; live
	// adds resolve to the last group, exactly as the coordinator
	// resolves them.
	part shard.Partition
	own  shard.Ownership
	// segs are this group's live segment subtrees; idx its index.
	segs []*xmltree.Node
	syms *index.SymbolTable
	idx  *index.Index
	// ranking is the coordinator-installed whole-corpus statistics;
	// nil until the first push — queries answer 503 before that.
	ranking *Ranking
	eng     *xseek.Engine
	leg     shard.Leg
	journal []update.JournalOp
}

func (s *legState) ready() bool { return s.ranking != nil }

// finish derives the query-serving machinery (IDF table, group
// engine, leg) from the state's raw parts. The IDF weights are
// computed from the pushed integers with the same formula the
// coordinator and the in-process engine use, so scores agree bit for
// bit.
func (s *legState) finish() {
	if s.ranking == nil {
		return
	}
	idf := make(map[string]float64, len(s.ranking.DF))
	for t, n := range s.ranking.DF {
		idf[t] = xseek.IDF(s.ranking.TotalNodes, n)
	}
	s.eng = xseek.FromPartsRanked(s.root, s.idx, s.schema, s.ranking.TotalNodes, idf)
	s.leg = shard.NewLocalLeg(s.root, s.schema, s.part, s.eng)
}

// NewServer creates a shard server for group shardID of a
// shards-process cluster.
func NewServer(shardID, shards int) (*Server, error) {
	if shards < 1 || shardID < 0 || shardID >= shards {
		return nil, fmt.Errorf("dist: shard id %d out of range for %d shards", shardID, shards)
	}
	return &Server{shardID: shardID, shards: shards, corpora: make(map[string]*corpus)}, nil
}

// ShardID returns the group this server serves.
func (sv *Server) ShardID() int { return sv.shardID }

// AddCorpus installs a corpus replica and builds this group's index
// over it. Every shard server (and the coordinator) must bootstrap
// from an identical tree — typically the same deterministic dataset
// seed — so the planned partitions agree.
func (sv *Server) AddCorpus(name string, root *xmltree.Node) error {
	st := bootstrapState(root, sv.shardID, sv.shards)
	c := &corpus{}
	c.cur.Store(st)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, dup := sv.corpora[name]; dup {
		return fmt.Errorf("dist: corpus %q already installed", name)
	}
	sv.corpora[name] = c
	return nil
}

// bootstrapState plans the partition and builds the group index for a
// clean tree. A group beyond the partition's clamp (fewer segments
// than shards) serves an empty index: it silences every query, which
// is exactly what the in-process engine's clamped fan-out computes.
func bootstrapState(root *xmltree.Node, shardID, shards int) *legState {
	schema := xseek.InferSchemaParallel(root, 0)
	part := shard.Plan(root, schema, shards)
	syms := index.NewSymbolTable()
	var segs []*xmltree.Node
	if shardID < len(part.Groups) {
		r := part.Groups[shardID]
		segs = part.Segments[r[0]:r[1]]
	}
	return &legState{
		baseRoot: root,
		root:     root,
		schema:   schema,
		part:     part,
		own:      part.Ownership(),
		segs:     segs,
		syms:     syms,
		idx:      index.BuildForestShared(root, segs, syms),
	}
}

// RestoreCorpus installs a corpus from a shipped group snapshot: the
// base tree is reparsed, the journal replayed through the same write
// path live ops take, and the recorded ranking installed — the
// restored leg resumes at the snapshot's epoch with bit-identical
// state.
func (sv *Server) RestoreCorpus(name string, snap *persist.GroupSnapshot) error {
	if snap.ShardID != sv.shardID || snap.Shards != sv.shards {
		return fmt.Errorf("dist: snapshot is for shard %d/%d, this server is %d/%d",
			snap.ShardID, snap.Shards, sv.shardID, sv.shards)
	}
	root, err := xmltree.ParseString(snap.BaseXML)
	if err != nil {
		return fmt.Errorf("dist: parse snapshot base: %w", err)
	}
	st := bootstrapState(root, sv.shardID, sv.shards)
	st.epoch = snap.Epoch - uint64(len(snap.Journal))
	ranking := Ranking{TotalNodes: snap.TotalNodes, DF: snap.DF}
	for i, jop := range snap.Journal {
		op := &WriteOp{Epoch: st.epoch, Remove: jop.Remove, Ord: jop.Ord, XML: jop.XML, Ranking: ranking}
		ns, err := applyWrite(st, op, sv.shardID)
		if err != nil {
			return fmt.Errorf("dist: replay snapshot op %d: %w", i, err)
		}
		st = ns
	}
	st.ranking = &ranking
	st.finish()
	c := &corpus{}
	c.cur.Store(st)
	sv.mu.Lock()
	sv.corpora[name] = c
	sv.mu.Unlock()
	return nil
}

func (sv *Server) corpus(name string) *corpus {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return sv.corpora[name]
}

// Epoch returns the corpus's current state version (0 if unknown).
func (sv *Server) Epoch(name string) uint64 {
	if c := sv.corpus(name); c != nil {
		return c.cur.Load().epoch
	}
	return 0
}

// ServeHTTP routes the /shard/v1 wire API.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := sv.corpus(r.URL.Query().Get("corpus"))
	if c == nil {
		http.Error(w, "dist: unknown corpus", http.StatusNotFound)
		return
	}
	switch r.URL.Path {
	case "/shard/v1/info":
		sv.handleInfo(w, c)
	case "/shard/v1/stats":
		sv.handleStats(w, c)
	case "/shard/v1/ranking":
		sv.handleRanking(w, r, c)
	case "/shard/v1/query":
		sv.handleQuery(w, r, c)
	case "/shard/v1/write":
		sv.handleWrite(w, r, c)
	case "/shard/v1/compact":
		sv.handleCompact(w, r, c)
	case "/shard/v1/snapshot":
		sv.handleSnapshot(w, c)
	default:
		http.NotFound(w, r)
	}
}

func (sv *Server) handleInfo(w http.ResponseWriter, c *corpus) {
	s := c.cur.Load()
	writeJSON(w, &InfoResponse{Epoch: s.epoch, ShardID: sv.shardID, Shards: sv.shards, Ready: s.ready()})
}

func (sv *Server) handleStats(w http.ResponseWriter, c *corpus) {
	s := c.cur.Load()
	df := make(map[string]int)
	s.idx.EachTerm(func(t string, n int) { df[t] = n })
	resp := &StatsResponse{Epoch: s.epoch, DF: df, Elements: s.idx.Stats().IndexedElements}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := EncodeFrame(w, resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (sv *Server) handleRanking(w http.ResponseWriter, r *http.Request, c *corpus) {
	var rk Ranking
	if err := json.NewDecoder(r.Body).Decode(&rk); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	s := c.cur.Load()
	ns := *s
	ns.ranking = &rk
	ns.finish()
	c.cur.Store(&ns)
	writeJSON(w, map[string]uint64{"epoch": ns.epoch})
}

func (sv *Server) handleQuery(w http.ResponseWriter, r *http.Request, c *corpus) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s := c.cur.Load()
	if !s.ready() {
		http.Error(w, "dist: ranking not installed", http.StatusServiceUnavailable)
		return
	}
	if req.Epoch != s.epoch {
		http.Error(w, fmt.Sprintf("dist: epoch mismatch: request %d, leg %d", req.Epoch, s.epoch), http.StatusConflict)
		return
	}
	env, err := serveQuery(s, &req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	env.Epoch = s.epoch
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := EncodeFrame(w, env); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveQuery executes one leg query against an immutable state,
// through the exact same shard.Leg implementation the in-process
// fan-out runs.
func serveQuery(s *legState, req *QueryRequest) (*Envelope, error) {
	acc := xseek.AccuracyExact
	if req.Approx {
		acc = xseek.AccuracyApprox
	}
	lq := shard.LegQuery{Query: req.Query, Terms: req.Terms, Limit: req.Limit, Accuracy: acc}
	switch req.Kind {
	case KindSearch:
		docs, err := s.leg.SearchLeg(lq)
		if err != nil {
			return nil, err
		}
		env := &Envelope{Total: len(docs.Results)}
		for _, r := range docs.Results {
			env.Hits = append(env.Hits, wireHit(r, 0))
		}
		for _, r := range docs.Boundary {
			env.Boundary = append(env.Boundary, wireHit(r, 0))
		}
		for _, id := range docs.SLCAs {
			env.SLCAs = append(env.SLCAs, id.String())
		}
		return env, nil
	case KindRanked:
		shared := &xseek.SharedThreshold{}
		shared.Raise(math.Float64frombits(req.FloorBits))
		page, err := s.leg.RankedLeg(lq, shared)
		if err != nil {
			return nil, err
		}
		env := &Envelope{
			Total:         page.Total,
			ThresholdBits: math.Float64bits(shared.Load()),
			Stats: WireStats{
				Bounded:       page.Stats.Bounded,
				Pruned:        page.Stats.Pruned,
				BlocksSkipped: page.Stats.BlocksSkipped,
				Terminated:    page.Stats.Terminated,
			},
		}
		for _, r := range page.Top {
			env.Hits = append(env.Hits, wireHit(r.Result, math.Float64bits(r.Score)))
		}
		for _, r := range page.Boundary {
			env.Boundary = append(env.Boundary, wireHit(r, 0))
		}
		for _, id := range page.SLCAs {
			env.SLCAs = append(env.SLCAs, id.String())
		}
		return env, nil
	case KindSubset:
		subset := make([]*xseek.Result, len(req.Subset))
		for i, h := range req.Subset {
			r, err := resolveHit(s.root, h)
			if err != nil {
				return nil, err
			}
			subset[i] = r
		}
		top, err := s.leg.RankSubsetLeg(lq, subset)
		if err != nil {
			return nil, err
		}
		env := &Envelope{Total: len(top)}
		for _, r := range top {
			env.Hits = append(env.Hits, wireHit(r.Result, math.Float64bits(r.Score)))
		}
		return env, nil
	case KindTF:
		counts := make([]int, len(req.Probes))
		for i, p := range req.Probes {
			id, err := parseID(p.ID)
			if err != nil {
				return nil, err
			}
			counts[i] = index.CountUnder(s.idx.Lookup(p.Term), id)
		}
		return &Envelope{Counts: counts}, nil
	default:
		return nil, fmt.Errorf("dist: unknown query kind %q", req.Kind)
	}
}

func wireHit(r *xseek.Result, scoreBits uint64) WireHit {
	return WireHit{
		ID:        r.Node.ID.String(),
		Match:     r.Match.ID.String(),
		Label:     r.Label,
		ScoreBits: scoreBits,
	}
}

// resolveHit reconstructs a Result from its wire form against this
// replica's tree.
func resolveHit(root *xmltree.Node, h WireHit) (*xseek.Result, error) {
	id, err := parseID(h.ID)
	if err != nil {
		return nil, err
	}
	node, err := resolveNode(root, id)
	if err != nil {
		return nil, err
	}
	mid, err := parseID(h.Match)
	if err != nil {
		return nil, err
	}
	match, err := resolveNode(root, mid)
	if err != nil {
		return nil, err
	}
	return &xseek.Result{Node: node, Match: match, Label: h.Label}, nil
}

func (sv *Server) handleWrite(w http.ResponseWriter, r *http.Request, c *corpus) {
	var op WriteOp
	if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	s := c.cur.Load()
	if op.Epoch+1 == s.epoch {
		// Idempotent retry of the op we already applied.
		writeJSON(w, map[string]uint64{"epoch": s.epoch})
		return
	}
	if op.Epoch != s.epoch {
		http.Error(w, fmt.Sprintf("dist: epoch mismatch: op %d, leg %d", op.Epoch, s.epoch), http.StatusConflict)
		return
	}
	ns, err := applyWrite(s, &op, sv.shardID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	ns.ranking = &op.Ranking
	ns.finish()
	c.cur.Store(ns)
	writeJSON(w, map[string]uint64{"epoch": ns.epoch})
}

// applyWrite produces the successor state for one write op. It is
// shared by the live write handler and snapshot replay; the caller
// installs the ranking and publishes. Tree mutation mirrors the
// in-process live engine exactly (copy-on-write root, appended or
// dropped child, ordinals never reused); only the owning group's
// index changes — adds merge the new entity's postings onto the last
// group, removes rebuild the victim's group over its surviving
// segments.
func applyWrite(s *legState, op *WriteOp, shardID int) (*legState, error) {
	ns := &legState{
		epoch:    s.epoch + 1,
		baseRoot: s.baseRoot,
		schema:   s.schema,
		part:     s.part,
		own:      s.own,
		segs:     s.segs,
		syms:     s.syms,
		idx:      s.idx,
	}
	if op.Remove {
		victim := childByOrdinal(s.root, op.Ord)
		if victim == nil || victim.Kind != xmltree.Element {
			return nil, fmt.Errorf("dist: no live top-level entity %d", op.Ord)
		}
		if s.own.Spine(victim.ID) {
			return nil, fmt.Errorf("dist: entity %d is spine-rooted; spine removals are not distributable", op.Ord)
		}
		ns.root = rootWith(s.root, victim, nil)
		if owner := s.own.Owner(victim.ID); owner == shardID {
			segs := make([]*xmltree.Node, 0, len(s.segs))
			for _, sg := range s.segs {
				if sg != victim {
					segs = append(segs, sg)
				}
			}
			ns.segs = segs
			ns.idx = index.BuildForestShared(ns.root, segs, s.syms)
		}
	} else {
		n, err := xmltree.ParseString(op.XML)
		if err != nil {
			return nil, fmt.Errorf("dist: parse write fragment: %w", err)
		}
		n.AssignIDs(dewey.New(op.Ord))
		ns.root = rootWith(s.root, nil, n)
		n.Parent = ns.root
		// Added entities belong to the last planned group, the same
		// rule Ownership resolves their ordinals with.
		if shardID == len(s.part.Groups)-1 {
			ent := index.BuildForestShared(ns.root, []*xmltree.Node{n}, s.syms)
			ns.idx = index.Merge(ns.root, s.idx, ent)
			ns.segs = append(s.segs[:len(s.segs):len(s.segs)], n)
		}
	}
	ns.schema = xseek.InferSchemaParallel(ns.root, 0)
	ns.journal = append(s.journal[:len(s.journal):len(s.journal)],
		update.JournalOp{Remove: op.Remove, Ord: op.Ord, XML: op.XML})
	return ns, nil
}

func (sv *Server) handleCompact(w http.ResponseWriter, r *http.Request, c *corpus) {
	var op CompactOp
	if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	s := c.cur.Load()
	if op.Epoch+1 == s.epoch {
		writeJSON(w, map[string]uint64{"epoch": s.epoch})
		return
	}
	if op.Epoch != s.epoch {
		http.Error(w, fmt.Sprintf("dist: epoch mismatch: op %d, leg %d", op.Epoch, s.epoch), http.StatusConflict)
		return
	}
	root := s.root
	if op.Renumber {
		// A removal is pending: prune and renumber, exactly as the
		// in-process compaction does.
		root = rebuildTree(s.root)
	}
	ns := bootstrapState(root, sv.shardID, sv.shards)
	ns.epoch = s.epoch + 1
	ns.ranking = s.ranking
	ns.finish()
	c.cur.Store(ns)
	writeJSON(w, map[string]uint64{"epoch": ns.epoch})
}

func (sv *Server) handleSnapshot(w http.ResponseWriter, c *corpus) {
	s := c.cur.Load()
	if !s.ready() {
		http.Error(w, "dist: ranking not installed", http.StatusServiceUnavailable)
		return
	}
	snap := &persist.GroupSnapshot{
		Epoch:      s.epoch,
		ShardID:    sv.shardID,
		Shards:     sv.shards,
		BaseXML:    xmltree.XMLString(s.baseRoot),
		Journal:    s.journal,
		TotalNodes: s.ranking.TotalNodes,
		DF:         s.ranking.DF,
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := persist.EncodeGroup(w, snap); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// sortedCorpora lists the server's corpora (for diagnostics).
func (sv *Server) sortedCorpora() []string {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	out := make([]string, 0, len(sv.corpora))
	for name := range sv.corpora {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
