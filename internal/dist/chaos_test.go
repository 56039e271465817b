package dist_test

// The chaos/soak harness: a seeded randomized schedule of replica
// kills, restarts (self-healed from a peer snapshot), partitions, and
// slow legs, interleaved with concurrent reads and epoch-lockstep
// writes. The correctness oracle is per-epoch replay: every
// successful read captured at a stable epoch must be bit-identical to
// an in-process reference rebuilt by replaying the committed op log
// to that epoch; flagged partial pages must be score-bit subsets of
// the reference's full ranking. After the schedule drains — every
// replica healed, every parked write flushed — the cluster must have
// reconverged exactly: epoch == committed ops, reads bit-identical,
// and writes flowing.
//
// The schedule is reproducible: the seed is logged on every run and
// can be pinned with XSACT_CHAOS_SEED. Short mode runs a trimmed
// smoke schedule; the full soak runs under -race in CI.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dewey"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// chaosOp is one committed cluster write, replayable against a fresh
// in-process engine.
type chaosOp struct {
	kind int // opAdd, opRemove, opCompact
	frag string
	ord  int
}

const (
	opAdd = iota
	opRemove
	opCompact
)

// replica lifecycle states the chaos scheduler tracks.
const (
	repAlive = iota
	repSlow
	repPartitioned
	repDead // state destroyed; healing requires a peer snapshot
)

// chaosRef replays committed op prefixes into cached per-epoch
// reference engines. Epoch e's reference is the base corpus with
// committed[:e] applied — exactly the state every replica serves at
// epoch e, ordinal holes and renumbering compactions included.
type chaosRef struct {
	mu    sync.Mutex
	doc   string
	k     int
	ops   []chaosOp // committed (epoch-bumping) ops, in order
	cache map[int]*update.Engine
}

func (c *chaosRef) committed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

func (c *chaosRef) append(op chaosOp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops = append(c.ops, op)
}

// at returns the reference engine for epoch e, or nil when e is ahead
// of the committed log (a write was mid-publish; the reader skips).
func (c *chaosRef) at(t *testing.T, e int) *update.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e > len(c.ops) {
		return nil
	}
	if ref, ok := c.cache[e]; ok {
		return ref
	}
	ref := update.Wrap(xseek.New(xmltree.MustParseString(c.doc)))
	for i := 0; i < e; i++ {
		var err error
		switch op := c.ops[i]; op.kind {
		case opAdd:
			_, err = ref.AddEntity(xmltree.MustParseString(op.frag))
		case opRemove:
			err = ref.RemoveEntity(dewey.New(op.ord))
		case opCompact:
			err = ref.Compact()
		}
		if err != nil {
			t.Errorf("chaos ref replay op %d/%d: %v", i, e, err)
			return nil
		}
	}
	if ref.Epoch() != uint64(e) {
		t.Errorf("chaos ref replay: epoch %d after %d ops", ref.Epoch(), e)
		return nil
	}
	c.cache[e] = ref
	return ref
}

// fullRankingSet fingerprints every result of a query at one epoch as
// id@scorebits — the membership set a flagged partial page must be a
// subset of.
func fullRankingSet(ref *update.Engine, query string) map[string]bool {
	rs, err := searchOf(ref, query)
	if err != nil {
		return map[string]bool{}
	}
	set := make(map[string]bool, len(rs))
	for _, rr := range ref.RankResults(rs, query) {
		set[fmt.Sprintf("%s@%016x", rr.Node.ID, math.Float64bits(rr.Score))] = true
	}
	return set
}

func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("XSACT_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad XSACT_CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// chaosRegressionSeeds are schedules that once failed. Every TestChaos
// replays each of them beside its drawn seed, so the soak only ever
// grows stricter.
var chaosRegressionSeeds = []int64{
	1792204914419991859, // an approximate fan-out page dropped a spine-rooted top result
}

// TestChaos is the distributed layer's soak test: one schedule from a
// drawn seed, then every committed regression seed. Reproduce a
// failure with XSACT_CHAOS_SEED=<logged seed>; run only the drawn
// schedule with -run '^TestChaos$/^drawn$'.
func TestChaos(t *testing.T) {
	seed := chaosSeed(t)
	t.Run("drawn", func(t *testing.T) { runChaos(t, seed) })
	for _, s := range chaosRegressionSeeds {
		t.Run(fmt.Sprintf("regression-%d", s), func(t *testing.T) { runChaos(t, s) })
	}
}

// runChaos runs one seeded chaos schedule and checks every read
// against the replayed reference.
func runChaos(t *testing.T, seed int64) {
	t.Logf("chaos seed %d (rerun: XSACT_CHAOS_SEED=%d go test -run TestChaos ./internal/dist/)", seed, seed)
	r := rand.New(rand.NewSource(seed))

	steps, readers := 120, 4
	if testing.Short() {
		steps, readers = 30, 2
	}

	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	// Query only terms the base corpus actually contains, so reads
	// exercise real result merging rather than degenerating into
	// no-match responses.
	var doc string
	var queryVocab []string
	for try := 0; len(queryVocab) < 3; try++ {
		if try > 50 {
			t.Fatal("could not generate a base corpus covering 3 vocab terms")
		}
		doc = randomDoc(r, vocab)
		queryVocab = queryVocab[:0]
		for _, term := range vocab {
			if strings.Contains(doc, term) {
				queryVocab = append(queryVocab, term)
			}
		}
	}
	const k, reps = 2, 2
	cl := startReplicatedCluster(t, k, reps, doc, dist.Config{
		Retries: 1, Backoff: time.Millisecond, Hedge: 2 * time.Millisecond,
		AllowPartial: true,
	})
	ref := &chaosRef{doc: doc, k: k, cache: make(map[int]*update.Engine)}

	// ---- concurrent readers ----
	var (
		done         = make(chan struct{})
		wg           sync.WaitGroup
		verified     atomic.Int64 // reads checked bit-identical against a replayed epoch
		subsetChecks atomic.Int64 // flagged partial pages checked as ranking subsets
		readErrs     atomic.Int64 // reads that failed mid-chaos (allowed)
	)
	readOnce := func(t *testing.T, rr *rand.Rand) {
		query := queryVocab[rr.Intn(len(queryVocab))]
		if rr.Intn(3) == 0 {
			query += " " + queryVocab[rr.Intn(len(queryVocab))]
		}
		opts := xseek.SearchOptions{Limit: rr.Intn(4) + 1, Offset: rr.Intn(2)}
		e0 := cl.co.Epoch()
		path := rr.Intn(4)
		var (
			err    error
			key    string
			total  = -2 // sentinel: not a paged read
			ranked []*xseek.RankedResult
		)
		switch path {
		case 0: // doc-order search, strict
			var rs []*xseek.Result
			rs, err = searchOf(cl.co, query)
			key = resultKey(rs)
		case 1: // eager ranked page: doc-order fan-out, then ranking fan-out
			var rs []*xseek.Result
			if rs, err = searchOf(cl.co, query); err == nil {
				full := cl.co.RankResults(rs, query)
				if full == nil && len(rs) > 0 {
					err = errors.New("ranking fan-out unavailable")
				} else {
					ranked, total = rankWindow(full, opts), len(rs)
				}
			}
			key = rankedKey(ranked)
		case 2:
			wopts := opts
			wopts.Accuracy = xseek.AccuracyExact
			ranked, total, _, err = cl.co.SearchRankedPageWAND(query, wopts)
			key = rankedKey(ranked)
		case 3:
			wopts := opts
			wopts.Accuracy = xseek.AccuracyApprox
			ranked, total, _, err = cl.co.SearchRankedPageWAND(query, wopts)
			key = rankedKey(ranked)
		}
		e1 := cl.co.Epoch()
		if err != nil {
			// A no-match answer at a stable epoch is a real (negative)
			// result, not a failure: the reference must agree on it.
			var noMatch *index.NoMatchError
			if errors.As(err, &noMatch) && path == 0 && e0 == e1 {
				if refEng := ref.at(t, int(e0)); refEng != nil {
					if _, rerr := searchOf(refEng, query); !sameError(err, rerr) {
						t.Errorf("epoch %d query %q: got %v, reference %v", e0, query, err, rerr)
					} else {
						verified.Add(1)
					}
					return
				}
			}
			// Mid-chaos transport failures are allowed; wrong answers
			// are not.
			readErrs.Add(1)
			return
		}
		if e0 != e1 {
			return // epoch moved underfoot; no single reference applies
		}
		refEng := ref.at(t, int(e0))
		if refEng == nil {
			return // epoch published ahead of the writer's log append
		}
		if total == xseek.StreamTotalUnknown {
			// Flagged partial page: every hit must still be a real
			// (id, score-bits) member of the reference's full ranking.
			set := fullRankingSet(refEng, query)
			for _, hit := range ranked {
				hk := fmt.Sprintf("%s@%016x", hit.Node.ID, math.Float64bits(hit.Score))
				if !set[hk] {
					t.Errorf("epoch %d query %q path %d: partial page hit %s not in reference ranking", e0, query, path, hk)
					return
				}
			}
			subsetChecks.Add(1)
			return
		}
		var wantKey string
		wantTotal := -2
		switch path {
		case 0:
			rs, rerr := searchOf(refEng, query)
			if rerr != nil {
				return // e.g. NoMatch raced with a term's last occurrence
			}
			wantKey = resultKey(rs)
		case 1, 2, 3: // the fan-out runs approximate pages exact too
			rs, rerr := searchOf(refEng, query)
			if rerr != nil {
				return
			}
			wantKey, wantTotal = rankedKey(rankWindow(refEng.RankResults(rs, query), opts)), len(rs)
		}
		if key != wantKey {
			t.Errorf("epoch %d query %q path %d opts %+v:\n got  %s\n want %s", e0, query, path, opts, key, wantKey)
			return
		}
		if wantTotal != -2 && total != wantTotal {
			t.Errorf("epoch %d query %q path %d: total %d, want %d", e0, query, path, total, wantTotal)
			return
		}
		verified.Add(1)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(rseed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(rseed))
			for {
				select {
				case <-done:
					return
				default:
					readOnce(t, rr)
				}
			}
		}(seed + int64(i) + 1)
	}

	// ---- chaos + write schedule (single-threaded) ----
	status := [k][reps]int{} // repAlive etc.
	healthySibling := func(g, ri int) (int, bool) {
		for o := 0; o < reps; o++ {
			if o != ri && status[g][o] == repAlive {
				return o, true
			}
		}
		return -1, false
	}
	heal := func(g, ri int) {
		switch status[g][ri] {
		case repDead:
			peer, ok := healthySibling(g, ri)
			if !ok {
				return // no live peer to restore from; try later
			}
			cl.rebuildReplica(t, g, ri, peer, k)
		case repSlow, repPartitioned:
			cl.gates[g][ri].mode.Store(gateOK)
		}
		status[g][ri] = repAlive
	}

	var indet *chaosOp  // one op whose broadcast outcome is unknown
	var removable []int // ordinals of committed adds, valid until compaction
	settle := func() bool {
		// Settle the parked write, if any, before issuing another op.
		// Epoch arithmetic resolves the outcome: the writer is the only
		// committer, so epoch == committed ops once settled.
		if indet == nil {
			return true
		}
		if err := cl.co.Flush(); err != nil {
			return false
		}
		if cl.co.Epoch() == uint64(ref.committed()+1) {
			ref.append(*indet)
		}
		indet = nil
		return true
	}

	for step := 0; step < steps; step++ {
		// Fault injection.
		g, ri := r.Intn(k), r.Intn(reps)
		switch ev := r.Intn(8); ev {
		case 0: // kill: state destroyed; never orphan a group entirely
			if status[g][ri] == repAlive {
				if _, ok := healthySibling(g, ri); ok {
					cl.gates[g][ri].mode.Store(gateDown)
					cl.gates[g][ri].srv.Store(nil)
					status[g][ri] = repDead
				}
			}
		case 1: // partition: unreachable, state intact
			if status[g][ri] == repAlive {
				cl.gates[g][ri].mode.Store(gateDown)
				status[g][ri] = repPartitioned
			}
		case 2: // slow leg
			if status[g][ri] == repAlive {
				cl.gates[g][ri].delay.Store(int64(2 * time.Millisecond))
				cl.gates[g][ri].mode.Store(gateSlow)
				status[g][ri] = repSlow
			}
		case 3, 4: // heal something
			heal(g, ri)
		}

		// Write attempt.
		if r.Intn(5) < 3 && settle() {
			switch choice := r.Intn(10); {
			case choice < 6: // add
				frag := entityDoc(r, vocab)
				op := chaosOp{kind: opAdd, frag: frag}
				if id, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err == nil {
					ref.append(op)
					removable = append(removable, id[0])
				} else {
					indet = &op
				}
			case choice < 8 && len(removable) > 0: // remove a committed add
				i := r.Intn(len(removable))
				ord := removable[i]
				removable = append(removable[:i], removable[i+1:]...)
				op := chaosOp{kind: opRemove, ord: ord}
				if err := cl.co.RemoveEntity(dewey.New(ord)); err == nil {
					ref.append(op)
				} else {
					indet = &op
				}
			default: // compact (only logged if it actually bumped)
				e0 := cl.co.Epoch()
				op := chaosOp{kind: opCompact}
				removable = nil // compaction may renumber
				if err := cl.co.Compact(); err == nil {
					if cl.co.Epoch() == e0+1 {
						ref.append(op)
					}
				} else {
					indet = &op
				}
			}
		}
		// Periodic calm window: heal everything (two passes, so a dead
		// replica whose sibling was also faulted heals off the sibling
		// healed in pass one), settle any parked write — a half-applied
		// broadcast leaves one group's replicas a whole epoch ahead,
		// correctly 409-ing every read until it commits — and then
		// verify a few reads from this goroutine. No writer is
		// concurrent with them, so the epoch is provably stable and the
		// exact oracle must engage, even when the async readers keep
		// catching faults.
		if step%10 == 9 {
			for pass := 0; pass < 2; pass++ {
				for g := 0; g < k; g++ {
					for ri := 0; ri < reps; ri++ {
						heal(g, ri)
					}
				}
			}
			settle()
			for i := 0; i < 3; i++ {
				readOnce(t, r)
			}
		}
		time.Sleep(time.Millisecond)
	}

	// ---- drain: heal everything, settle the log, prove reconvergence ----
	for g := 0; g < k; g++ {
		for ri := 0; ri < reps; ri++ {
			heal(g, ri)
		}
	}
	for g := 0; g < k; g++ { // dead replicas whose sibling was faulted heal on the second pass
		for ri := 0; ri < reps; ri++ {
			if status[g][ri] != repAlive {
				heal(g, ri)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settle() {
		if time.Now().After(deadline) {
			t.Fatal("pending write never settled after full heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	if got, want := cl.co.Epoch(), uint64(ref.committed()); got != want {
		t.Fatalf("drained cluster at epoch %d, committed ops %d", got, want)
	}
	final := ref.at(t, ref.committed())
	if final == nil {
		t.Fatal("no final reference")
	}
	for _, q := range vocab {
		checkEquivalence(t, final, cl.co, q, "drained")
	}
	// The drained cluster takes writes again, in lockstep.
	frag := entityDoc(r, vocab)
	if _, err := final.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("final ref add: %v", err)
	}
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("post-drain add: %v", err)
	}
	if err := final.Compact(); err != nil {
		t.Fatalf("final ref compact: %v", err)
	}
	if err := cl.co.Compact(); err != nil {
		t.Fatalf("post-drain compact: %v", err)
	}
	checkEquivalence(t, final, cl.co, vocab[0]+" "+vocab[1], "post-drain write")

	retries, hedges, degraded, legErrs, failovers, shed := cl.co.DistCounters()
	t.Logf("chaos done: %d verified exact reads, %d subset checks, %d tolerated read errors; counters retries=%d hedges=%d degraded=%d legErrs=%d failovers=%d shed=%d",
		verified.Load(), subsetChecks.Load(), readErrs.Load(), retries, hedges, degraded, legErrs, failovers, shed)
	if verified.Load() == 0 {
		t.Error("chaos harness verified zero reads; the oracle never engaged")
	}
}
