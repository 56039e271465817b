package dist_test

// Replica-set coverage: spread/failover bit-identity, all-replica
// writes, the pending-write (partial broadcast) protocol, peer-
// snapshot self-healing, admission-control shedding, and the
// injectable backoff schedule. The randomized soak over the same
// machinery lives in chaos_test.go.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// Gate modes: a gate sits in front of one replica's handler and
// injects faults without the replica's URL changing.
const (
	gateOK   int32 = iota
	gateDown       // connection aborted — replica dead or partitioned away
	gateSlow       // fixed delay before serving
	gateHold       // block until released (admission-control tests)
)

// gate wraps one replica with a switchable fault mode and a swappable
// backing server, so tests can kill, partition, slow, and restart a
// replica in place.
type gate struct {
	mode    atomic.Int32
	delay   atomic.Int64 // slow-mode delay in nanoseconds
	release chan struct{}
	srv     atomic.Pointer[dist.Server]
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch g.mode.Load() {
	case gateDown:
		panic(http.ErrAbortHandler)
	case gateSlow:
		time.Sleep(time.Duration(g.delay.Load()))
	case gateHold:
		<-g.release
	}
	g.srv.Load().ServeHTTP(w, r)
}

// repCluster is one corpus served by k shard groups × r replicas,
// each behind a fault gate, plus a dialed coordinator.
type repCluster struct {
	gates [][]*gate // [group][replica]
	https [][]*httptest.Server
	co    *dist.Coordinator
}

// startReplicatedCluster boots k shard groups with r gate-fronted
// replicas each (every replica parses its own copy of doc) and dials
// a replicated coordinator over them.
func startReplicatedCluster(t *testing.T, k, r int, doc string, cfg dist.Config) *repCluster {
	t.Helper()
	cl := &repCluster{}
	groups := make([][]string, k)
	for g := 0; g < k; g++ {
		cl.gates = append(cl.gates, make([]*gate, r))
		cl.https = append(cl.https, make([]*httptest.Server, r))
		for ri := 0; ri < r; ri++ {
			sv, err := dist.NewServer(g, k)
			if err != nil {
				t.Fatalf("NewServer(%d, %d): %v", g, k, err)
			}
			if err := sv.AddCorpus(testCorpus, xmltree.MustParseString(doc)); err != nil {
				t.Fatalf("group %d replica %d AddCorpus: %v", g, ri, err)
			}
			gt := &gate{release: make(chan struct{})}
			gt.srv.Store(sv)
			hs := httptest.NewServer(gt)
			t.Cleanup(hs.Close)
			cl.gates[g][ri] = gt
			cl.https[g][ri] = hs
			groups[g] = append(groups[g], hs.URL)
		}
	}
	co, err := dist.DialReplicas(groups, testCorpus, xmltree.MustParseString(doc), cfg)
	if err != nil {
		t.Fatalf("DialReplicas: %v", err)
	}
	cl.co = co
	return cl
}

// rebuildReplica replaces a killed replica's state from a live peer's
// snapshot — the self-healing join path — and re-opens its gate.
func (cl *repCluster) rebuildReplica(t *testing.T, g, r, peerR int, shards int) {
	t.Helper()
	snap, err := dist.FetchSnapshot(cl.https[g][peerR].URL, testCorpus, 0)
	if err != nil {
		t.Fatalf("group %d: fetch peer snapshot from replica %d: %v", g, peerR, err)
	}
	sv, err := dist.NewServer(g, shards)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := sv.RestoreCorpus(testCorpus, snap); err != nil {
		t.Fatalf("group %d replica %d: restore from peer snapshot: %v", g, r, err)
	}
	cl.gates[g][r].srv.Store(sv)
	cl.gates[g][r].mode.Store(gateOK)
	cl.co.SetReplicaEndpoint(g, r, cl.https[g][r].URL)
}

// noSleep is the fake sleeper tests inject to skip retry backoff.
func noSleep(time.Duration) {}

// TestReplicaSpreadEquivalence is the replication property test: a
// coordinator spreading reads over N ∈ {1, 2, 3} replicas per group
// must stay bit-identical — scores to the Float64bits, paging
// envelopes, every read path — to a live engine over one index in
// process, through live writes and compactions.
func TestReplicaSpreadEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	doc := randomDoc(r, vocab)
	for _, k := range []int{1, 2} {
		for _, reps := range []int{1, 2, 3} {
			ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
			cl := startReplicatedCluster(t, k, reps, doc, dist.Config{})
			ctx := fmt.Sprintf("K=%d R=%d", k, reps)
			if got := cl.co.Replicas(); got != reps {
				t.Fatalf("%s: Replicas() = %d", ctx, got)
			}
			query := func(n int) string {
				terms := make([]string, n)
				for i := range terms {
					terms[i] = vocab[r.Intn(len(vocab))]
				}
				return strings.Join(terms, " ")
			}
			// Cold reads: repeat each check so the rotation actually
			// lands on every replica.
			for qi := 0; qi < 2*reps; qi++ {
				checkEquivalence(t, ref, cl.co, query(r.Intn(2)+1), ctx+" cold")
			}
			// Live writes: adds, a remove, a compaction — every replica
			// must apply each op for the later spread reads to agree.
			var ids []string
			for step := 0; step < 4; step++ {
				frag := entityDoc(r, vocab)
				wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
				if err != nil {
					t.Fatalf("%s: ref add: %v", ctx, err)
				}
				gotID, err := cl.co.AddEntity(xmltree.MustParseString(frag))
				if err != nil {
					t.Fatalf("%s: dist add: %v", ctx, err)
				}
				if gotID.String() != wantID.String() {
					t.Fatalf("%s: add ID %s vs %s", ctx, gotID, wantID)
				}
				ids = append(ids, gotID.String())
				for qi := 0; qi < reps; qi++ {
					checkEquivalence(t, ref, cl.co, query(r.Intn(2)+1), ctx+" after add")
				}
			}
			did, _ := parseDewey(ids[0])
			if err := ref.RemoveEntity(did); err != nil {
				t.Fatalf("%s: ref remove: %v", ctx, err)
			}
			if err := cl.co.RemoveEntity(did); err != nil {
				t.Fatalf("%s: dist remove: %v", ctx, err)
			}
			for qi := 0; qi < reps; qi++ {
				checkEquivalence(t, ref, cl.co, query(r.Intn(2)+1), ctx+" after remove")
			}
			if err := ref.Compact(); err != nil {
				t.Fatalf("%s: ref compact: %v", ctx, err)
			}
			if err := cl.co.Compact(); err != nil {
				t.Fatalf("%s: dist compact: %v", ctx, err)
			}
			if got, want := cl.co.Epoch(), ref.Epoch(); got != want {
				t.Fatalf("%s: epoch %d vs %d", ctx, got, want)
			}
			for qi := 0; qi < 2*reps; qi++ {
				checkEquivalence(t, ref, cl.co, query(r.Intn(2)+1), ctx+" after compact")
			}
		}
	}
}

// TestReplicaFailoverRead kills one replica per group and asserts
// reads keep succeeding bit-identically off the survivors, counting
// failovers — then heals the replicas and checks they serve again.
func TestReplicaFailoverRead(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	doc := randomDoc(r, vocab)
	k := 2
	cl := startReplicatedCluster(t, k, 2, doc, dist.Config{Retries: -1, Sleep: noSleep})

	// A write before the failure, so the surviving replicas must prove
	// they applied it.
	refLive := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
	frag := entityDoc(r, vocab)
	if _, err := refLive.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("ref add: %v", err)
	}
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("dist add: %v", err)
	}

	for g := 0; g < k; g++ {
		cl.gates[g][0].mode.Store(gateDown)
	}
	for qi := 0; qi < 6; qi++ {
		checkEquivalence(t, refLive, cl.co, vocab[qi%len(vocab)], "replica 0 down")
	}
	_, _, _, _, failovers, _ := cl.co.DistCounters()
	if failovers == 0 {
		t.Fatal("no failovers counted with replica 0 of every group down")
	}

	// Heal; the healed replicas must still be bit-identical (they
	// applied the pre-failure write too) once the rotation returns to
	// them.
	for g := 0; g < k; g++ {
		cl.gates[g][0].mode.Store(gateOK)
	}
	for qi := 0; qi < 8; qi++ {
		checkEquivalence(t, refLive, cl.co, vocab[qi%len(vocab)], "healed")
	}
}

// TestReplicaWriteRequiresAll pins the write-side contract: with any
// replica down the epoch must freeze (the broadcast fails), and after
// healing, Flush settles the parked write on every replica — no
// divergence, no lost write, bit-identical reads everywhere.
func TestReplicaWriteRequiresAll(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	doc := randomDoc(r, vocab)
	ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
	cl := startReplicatedCluster(t, 2, 2, doc, dist.Config{Retries: -1, Sleep: noSleep})

	cl.gates[1][1].mode.Store(gateDown)
	frag := entityDoc(r, vocab)
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err == nil {
		t.Fatal("AddEntity succeeded with a replica down; writes must reach every replica")
	}
	if got := cl.co.Epoch(); got != 0 {
		t.Fatalf("epoch advanced to %d on a failed broadcast", got)
	}

	// A different write must NOT slip in at the same epoch: the parked
	// op re-broadcasts first and the whole call fails while the
	// replica stays down.
	if _, err := cl.co.AddEntity(xmltree.MustParseString(entityDoc(r, vocab))); err == nil {
		t.Fatal("second AddEntity succeeded over an unsettled pending write")
	}
	if got := cl.co.Epoch(); got != 0 {
		t.Fatalf("epoch advanced to %d with the pending write unsettled", got)
	}

	cl.gates[1][1].mode.Store(gateOK)
	if err := cl.co.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if got := cl.co.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after flush, want 1 (only the first op committed)", got)
	}
	if _, err := ref.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("ref add: %v", err)
	}
	for qi := 0; qi < 8; qi++ {
		checkEquivalence(t, ref, cl.co, vocab[qi%len(vocab)], "after flush")
	}

	// Writes flow again at the settled epoch.
	frag2 := entityDoc(r, vocab)
	wantID, err := ref.AddEntity(xmltree.MustParseString(frag2))
	if err != nil {
		t.Fatalf("ref add 2: %v", err)
	}
	gotID, err := cl.co.AddEntity(xmltree.MustParseString(frag2))
	if err != nil {
		t.Fatalf("dist add 2 after flush: %v", err)
	}
	if gotID.String() != wantID.String() {
		t.Fatalf("add 2 ID %s vs %s", gotID, wantID)
	}
	for qi := 0; qi < 8; qi++ {
		checkEquivalence(t, ref, cl.co, vocab[qi%len(vocab)], "after resumed write")
	}
}

// TestReplicaPendingWriteAutoFlush checks the other settlement path:
// the next write call itself re-broadcasts the parked op (committing
// it) before applying the new one — two epochs from one call, both
// ops on every replica.
func TestReplicaPendingWriteAutoFlush(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	doc := randomDoc(r, vocab)
	ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
	cl := startReplicatedCluster(t, 1, 2, doc, dist.Config{Retries: -1, Sleep: noSleep})

	cl.gates[0][1].mode.Store(gateDown)
	frag1 := entityDoc(r, vocab)
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag1)); err == nil {
		t.Fatal("AddEntity succeeded with a replica down")
	}
	cl.gates[0][1].mode.Store(gateOK)

	frag2 := entityDoc(r, vocab)
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag2)); err != nil {
		t.Fatalf("AddEntity after heal (auto-flush path): %v", err)
	}
	if got := cl.co.Epoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2 (pending + new op)", got)
	}
	if _, err := ref.AddEntity(xmltree.MustParseString(frag1)); err != nil {
		t.Fatalf("ref add 1: %v", err)
	}
	if _, err := ref.AddEntity(xmltree.MustParseString(frag2)); err != nil {
		t.Fatalf("ref add 2: %v", err)
	}
	for qi := 0; qi < 6; qi++ {
		checkEquivalence(t, ref, cl.co, vocab[qi%len(vocab)], "after auto-flush")
	}
}

// TestReplicaPeerSnapshotSelfHeal kills a replica after live writes,
// rebuilds it from a surviving peer's /shard/v1/snapshot, and proves
// the healed replica serves bit-identically — by killing its sibling
// so every read must come off the restored state — and acknowledges
// writes at the current epoch.
func TestReplicaPeerSnapshotSelfHeal(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	doc := randomDoc(r, vocab)
	k := 2
	ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
	cl := startReplicatedCluster(t, k, 2, doc, dist.Config{Retries: -1, Sleep: noSleep})

	// Move the cluster off epoch 0 so the restored replica has a
	// journal to replay, not just a base tree.
	for i := 0; i < 3; i++ {
		frag := entityDoc(r, vocab)
		if _, err := ref.AddEntity(xmltree.MustParseString(frag)); err != nil {
			t.Fatalf("ref add: %v", err)
		}
		if _, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err != nil {
			t.Fatalf("dist add: %v", err)
		}
	}

	// Kill group 0 replica 1 outright (state gone), then heal it from
	// replica 0's snapshot.
	cl.gates[0][1].mode.Store(gateDown)
	cl.gates[0][1].srv.Store(nil)
	cl.rebuildReplica(t, 0, 1, 0, k)

	// Force reads onto the restored replica: its sibling goes down.
	cl.gates[0][0].mode.Store(gateDown)
	for qi := 0; qi < 6; qi++ {
		checkEquivalence(t, ref, cl.co, vocab[qi%len(vocab)], "restored replica serving")
	}

	// And it must accept writes at the current epoch once the sibling
	// is back (writes need every replica).
	cl.gates[0][0].mode.Store(gateOK)
	frag := entityDoc(r, vocab)
	wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
	if err != nil {
		t.Fatalf("ref add after heal: %v", err)
	}
	gotID, err := cl.co.AddEntity(xmltree.MustParseString(frag))
	if err != nil {
		t.Fatalf("dist add after heal: %v", err)
	}
	if gotID.String() != wantID.String() {
		t.Fatalf("post-heal add ID %s vs %s", gotID, wantID)
	}
	for qi := 0; qi < 6; qi++ {
		checkEquivalence(t, ref, cl.co, vocab[qi%len(vocab)], "after post-heal write")
	}
}

// TestAdmissionShed pins the load-shedding contract: with the
// in-flight cap saturated, excess ranked queries fail fast with
// ErrOverloaded (counted in DistCounters), writes and doc-order reads
// are never shed, and nothing about the epoch state is disturbed.
func TestAdmissionShed(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	doc := randomDoc(r, vocab)
	ref := update.Wrap(xseek.New(xmltree.MustParseString(doc)))
	cl := startReplicatedCluster(t, 1, 1, doc, dist.Config{MaxInflight: 1, MaxQueue: -1})

	// Hold the leg: the one admitted ranked query will block inside
	// its fan-out, keeping the slot occupied.
	gt := cl.gates[0][0]
	gt.mode.Store(gateHold)
	started := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		close(started)
		_, _, _, err := cl.co.SearchRankedPageWAND(vocab[0], xseek.SearchOptions{Limit: 3})
		firstDone <- err
	}()
	<-started
	// Wait until the admitted query actually reaches the gate, so the
	// slot is provably held.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, _, err := cl.co.SearchRankedPageWAND(vocab[1], xseek.SearchOptions{Limit: 3}); err != nil {
			if !errors.Is(err, dist.ErrOverloaded) {
				t.Fatalf("excess ranked query: got %v, want ErrOverloaded", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw ErrOverloaded with the in-flight cap saturated")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, _, _, _, shed := cl.co.DistCounters()
	if shed == 0 {
		t.Fatal("shed counter is zero after an ErrOverloaded rejection")
	}

	// Doc-order search is never shed — it must hang on the held gate,
	// not fail fast. Probe via a goroutine: it blocks until release.
	docDone := make(chan error, 1)
	go func() {
		_, err := searchOf(cl.co, vocab[0])
		docDone <- err
	}()
	select {
	case err := <-docDone:
		t.Fatalf("doc-order search returned early (err=%v); it should not be shed or fail fast", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gt.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted ranked query failed after release: %v", err)
	}
	if err := <-docDone; err != nil {
		t.Fatalf("doc-order search failed after release: %v", err)
	}

	// Shedding corrupted nothing: epoch intact, writes flow, reads
	// stay bit-identical, and the freed slot admits ranked queries.
	gt.mode.Store(gateOK)
	if got := cl.co.Epoch(); got != 0 {
		t.Fatalf("epoch = %d after shedding, want 0", got)
	}
	frag := entityDoc(r, vocab)
	if _, err := ref.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("ref add: %v", err)
	}
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("dist add after shedding: %v", err)
	}
	for qi := 0; qi < 4; qi++ {
		checkEquivalence(t, ref, cl.co, vocab[qi%len(vocab)], "after shedding")
	}
}

// TestBackoffScheduleInjectable pins the retry backoff schedule via
// the injectable sleeper: no wall-clock waiting, exact doubling from
// the configured base, one sleep before each retry.
func TestBackoffScheduleInjectable(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	vocab := []string{"alpha", "beta"}
	doc := randomDoc(r, vocab)
	var mu []time.Duration
	rec := func(d time.Duration) { mu = append(mu, d) }
	cl := startReplicatedCluster(t, 1, 1, doc, dist.Config{
		Retries: 3, Backoff: 10 * time.Millisecond, Sleep: rec,
	})

	cl.gates[0][0].mode.Store(gateDown)
	if _, err := searchOf(cl.co, vocab[0]); err == nil {
		t.Fatal("Search succeeded with the only replica down")
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if fmt.Sprint(mu) != fmt.Sprint(want) {
		t.Fatalf("recorded backoff schedule %v, want %v", mu, want)
	}

	// Heal mid-schedule: a sleeper that re-opens the gate during the
	// first backoff proves the retry loop actually re-runs the call
	// and recovers.
	cl2 := startReplicatedClusterHealing(t, doc)
	if _, err := searchOf(cl2.co, vocab[0]); err != nil {
		t.Fatalf("Search did not recover via retry after heal: %v", err)
	}
	retries, _, _, _, _, _ := cl2.co.DistCounters()
	if retries == 0 {
		t.Fatal("no retries counted on the recovered call")
	}
}

// startReplicatedClusterHealing builds a one-replica cluster whose
// gate starts down and heals inside the first backoff sleep.
func startReplicatedClusterHealing(t *testing.T, doc string) *repCluster {
	t.Helper()
	var cl *repCluster
	healed := false
	cl = startReplicatedCluster(t, 1, 1, doc, dist.Config{
		Retries: 2, Backoff: time.Millisecond,
		Sleep: func(time.Duration) {
			if !healed {
				healed = true
				cl.gates[0][0].mode.Store(gateOK)
			}
		},
	})
	cl.gates[0][0].mode.Store(gateDown)
	return cl
}
