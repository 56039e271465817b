package dist_test

// Fault injection against the coordinator: hung legs, killed legs,
// degraded (partial) ranked pages, hedged reads, and restart from a
// shipped group snapshot. The contract under test: a failing leg may
// make a query slow, unavailable, or flagged-partial — never silently
// wrong.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// spreadDoc is a deterministic corpus whose entities all match
// "alpha", so any K splits the result set across every group.
func spreadDoc(entities int) string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "<n0><leaf>alpha beta</leaf><leaf>only%d gamma</leaf></n0>", i)
	}
	b.WriteString("</root>")
	return b.String()
}

// TestLegHangTimeoutRetry hangs one leg past the per-request timeout
// and asserts the strict contract: queries fail (not silently shrink),
// the transport records retries and the final leg error, and once the
// leg recovers the same coordinator serves bit-identical results again.
func TestLegHangTimeoutRetry(t *testing.T) {
	doc := spreadDoc(8)
	var hang atomic.Bool
	cl := startClusterWrapped(t, 2, doc,
		dist.Config{Timeout: 100 * time.Millisecond, Retries: 1, Backoff: time.Millisecond},
		func(g int, h http.Handler) http.Handler {
			if g != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hang.Load() && strings.HasPrefix(r.URL.Path, "/shard/v1/query") {
					time.Sleep(400 * time.Millisecond)
				}
				h.ServeHTTP(w, r)
			})
		})
	ref := shard.Build(xmltree.MustParseString(doc), 2)

	checkEquivalence(t, ref, cl.co, "alpha", "healthy before hang")

	hang.Store(true)
	if _, err := searchOf(cl.co, "alpha"); err == nil {
		t.Fatal("doc-order search with a hung leg should fail strictly, got nil error")
	}
	if _, _, _, err := cl.co.SearchRankedPageWAND("alpha", xseek.SearchOptions{Limit: 3}); err == nil {
		t.Fatal("ranked page with a hung leg (no AllowPartial) should fail, got nil error")
	}
	retries, _, _, legErrs, _, _ := cl.co.DistCounters()
	if retries == 0 {
		t.Fatalf("expected transport retries against the hung leg, counters: retries=%d", retries)
	}
	if legErrs == 0 {
		t.Fatalf("expected recorded leg errors after retries were exhausted, legErrs=%d", legErrs)
	}

	hang.Store(false)
	checkEquivalence(t, ref, cl.co, "alpha", "healthy after hang cleared")
}

// TestLegKilledDegradedRanked kills one leg of an AllowPartial
// coordinator and asserts the degradation contract: ranked pages come
// back flagged (total unknown) containing only results whose scores
// are bit-identical to the full reference ranking — a partial answer,
// never a wrong one — while doc-order search stays strictly
// unavailable.
func TestLegKilledDegradedRanked(t *testing.T) {
	doc := spreadDoc(8)
	cl := startCluster(t, 2, doc, dist.Config{
		Timeout: 200 * time.Millisecond, Retries: -1, Backoff: time.Millisecond,
		AllowPartial: true,
	})
	ref := shard.Build(xmltree.MustParseString(doc), 2)

	checkEquivalence(t, ref, cl.co, "alpha", "healthy before kill")

	// Reference full ranking: the universe of (result, score) pairs any
	// degraded page may draw from.
	results, err := searchOf(ref, "alpha")
	if err != nil {
		t.Fatalf("reference ranking: %v", err)
	}
	full := ref.RankResults(results, "alpha")
	valid := make(map[string]bool, len(full))
	for _, r := range full {
		valid[rankedKey([]*xseek.RankedResult{r})] = true
	}

	cl.https[1].Close() // kill leg 1

	page, total, _, err := cl.co.SearchRankedPageWAND("alpha", xseek.SearchOptions{Limit: 4})
	if err != nil {
		t.Fatalf("degraded ranked page should succeed, got %v", err)
	}
	if total != xseek.StreamTotalUnknown {
		t.Fatalf("degraded page must be flagged: total = %d, want %d", total, xseek.StreamTotalUnknown)
	}
	if len(page) == 0 {
		t.Fatal("degraded page lost the surviving leg's results too")
	}
	for _, r := range page {
		if key := rankedKey([]*xseek.RankedResult{r}); !valid[key] {
			t.Fatalf("degraded page contains %s, which is not in the reference ranking — silently wrong", key)
		}
	}
	_, _, degraded, _, _, _ := cl.co.DistCounters()
	if degraded == 0 {
		t.Fatalf("expected degraded counter > 0 after serving a partial page")
	}

	// Doc-order search must not degrade: a missing leg could promote
	// spurious spine SLCAs, which would be wrong rather than partial.
	if _, err := searchOf(cl.co, "alpha"); err == nil {
		t.Fatal("doc-order search with a dead leg must fail even under AllowPartial")
	}
}

// TestHedgedReads delays a leg's first query response past the hedge
// threshold and asserts the duplicate read was launched and the
// results stayed correct.
func TestHedgedReads(t *testing.T) {
	doc := spreadDoc(6)
	var slowOnce atomic.Bool
	slowOnce.Store(true)
	cl := startClusterWrapped(t, 2, doc,
		dist.Config{Timeout: 2 * time.Second, Retries: -1, Hedge: 20 * time.Millisecond},
		func(g int, h http.Handler) http.Handler {
			if g != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/shard/v1/query") && slowOnce.CompareAndSwap(true, false) {
					time.Sleep(300 * time.Millisecond)
				}
				h.ServeHTTP(w, r)
			})
		})
	ref := shard.Build(xmltree.MustParseString(doc), 2)

	checkEquivalence(t, ref, cl.co, "alpha", "hedged first query")
	_, hedges, _, _, _, _ := cl.co.DistCounters()
	if hedges == 0 {
		t.Fatalf("expected a hedged read to have been launched, hedges=%d", hedges)
	}
}

// TestSaveDistributedEngineRefused: a coordinator-backed engine holds
// no local index or tree to snapshot, so an engine snapshot of it must
// fail with an error naming the group snapshots its legs persist
// through — not dereference a missing local executor — and must not
// publish a file.
func TestSaveDistributedEngineRefused(t *testing.T) {
	cl := startCluster(t, 2, spreadDoc(4), dist.Config{})
	eng := engine.FromDist(cl.co, engine.Config{})

	var buf bytes.Buffer
	if err := persist.Save(&buf, eng, persist.Meta{}); err == nil || !strings.Contains(err.Error(), "group snapshots") {
		t.Fatalf("Save: err = %v, want a group-snapshot refusal", err)
	}
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := persist.SaveFileFormat(path, eng, persist.Meta{}, persist.CompactFormatVersion); err == nil || !strings.Contains(err.Error(), "group snapshots") {
		t.Fatalf("SaveFileFormat: err = %v, want a group-snapshot refusal", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused save left a file behind: %v", err)
	}
}

// TestSnapshotRestart ships a leg's group snapshot, kills the leg,
// restores a brand-new server process-equivalent from the snapshot,
// repoints the coordinator, and asserts bit-identical recovery — tree,
// epoch, journal replay, and every read path.
func TestSnapshotRestart(t *testing.T) {
	doc := spreadDoc(8)
	cl := startCluster(t, 2, doc, dist.Config{
		Timeout: 300 * time.Millisecond, Retries: -1, Backoff: time.Millisecond,
	})
	ref := update.WrapSharded(shard.Build(xmltree.MustParseString(doc), 2))

	// A write burst the snapshot must carry: two adds and a removal of
	// the first (leaving an ordinal hole in the journal replay).
	frags := []string{
		"<n0><leaf>delta alpha</leaf></n0>",
		"<n0><leaf>epsilon alpha</leaf></n0>",
	}
	var firstID string
	for i, frag := range frags {
		wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
		if err != nil {
			t.Fatalf("ref add %d: %v", i, err)
		}
		gotID, err := cl.co.AddEntity(xmltree.MustParseString(frag))
		if err != nil {
			t.Fatalf("dist add %d: %v", i, err)
		}
		if gotID.String() != wantID.String() {
			t.Fatalf("add %d: ID %s vs %s", i, gotID, wantID)
		}
		if i == 0 {
			firstID = gotID.String()
		}
	}
	did, err := parseDewey(firstID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RemoveEntity(did); err != nil {
		t.Fatalf("ref remove: %v", err)
	}
	if err := cl.co.RemoveEntity(did); err != nil {
		t.Fatalf("dist remove: %v", err)
	}
	checkEquivalence(t, ref, cl.co, "alpha", "after write burst")

	data, err := cl.co.ShipSnapshot(1)
	if err != nil {
		t.Fatalf("ShipSnapshot: %v", err)
	}
	snap, err := persist.DecodeGroup(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeGroup: %v", err)
	}
	if snap.Epoch != cl.co.Epoch() {
		t.Fatalf("snapshot epoch %d, coordinator at %d", snap.Epoch, cl.co.Epoch())
	}

	cl.https[1].Close() // the leg process dies
	if _, err := searchOf(cl.co, "alpha"); err == nil {
		t.Fatal("search with a dead leg should fail before recovery")
	}

	// A replacement process restores from the shipped bytes and is
	// repointed without redialing.
	sv, err := dist.NewServer(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.RestoreCorpus(testCorpus, snap); err != nil {
		t.Fatalf("RestoreCorpus: %v", err)
	}
	hs := httptestNewServer(t, sv)
	cl.co.SetLegEndpoint(1, hs)
	if got, want := sv.Epoch(testCorpus), cl.co.Epoch(); got != want {
		t.Fatalf("restored leg at epoch %d, coordinator at %d", got, want)
	}

	checkEquivalence(t, ref, cl.co, "alpha", "after snapshot restore")
	checkEquivalence(t, ref, cl.co, "delta", "after snapshot restore")
	checkEquivalence(t, ref, cl.co, "epsilon", "after snapshot restore")

	// The restored cluster keeps taking writes.
	frag := "<n0><leaf>zeta alpha</leaf></n0>"
	if _, err := ref.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.co.AddEntity(xmltree.MustParseString(frag)); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	checkEquivalence(t, ref, cl.co, "zeta", "write after restore")
	if err := ref.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cl.co.Compact(); err != nil {
		t.Fatalf("compact after restore: %v", err)
	}
	checkEquivalence(t, ref, cl.co, "alpha", "compact after restore")
}

// TestCoordinatorConcurrentQueriesAndWrites races readers against the
// write path — the test CI runs under the race detector. Readers may
// observe cross-epoch churn as a retried-then-failed epoch error,
// never a torn page.
func TestCoordinatorConcurrentQueriesAndWrites(t *testing.T) {
	doc := spreadDoc(8)
	cl := startCluster(t, 2, doc, dist.Config{Retries: 1, Backoff: time.Millisecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := searchOf(cl.co, "alpha"); err != nil && !strings.Contains(err.Error(), "epoch") {
					select {
					case errs <- fmt.Errorf("search: %w", err):
					default:
					}
				}
				if _, _, _, err := cl.co.SearchRankedPageWAND("alpha beta", xseek.SearchOptions{Limit: 3}); err != nil && !strings.Contains(err.Error(), "epoch") {
					select {
					case errs <- fmt.Errorf("ranked: %w", err):
					default:
					}
				}
			}
		}()
	}
	var ids []string
	for i := 0; i < 8; i++ {
		frag := fmt.Sprintf("<n0><leaf>alpha fresh%d</leaf></n0>", i)
		id, err := cl.co.AddEntity(xmltree.MustParseString(frag))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		ids = append(ids, id.String())
		if i == 3 {
			did, _ := parseDewey(ids[0])
			if err := cl.co.RemoveEntity(did); err != nil {
				t.Fatalf("remove: %v", err)
			}
		}
		if i == 5 {
			if err := cl.co.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent reader saw a non-epoch error: %v", err)
	default:
	}

	// Settled cluster must equal a cold engine over the final tree.
	ref := shard.Build(xmltree.MustParseString(xmltree.XMLString(cl.co.Root())), 2)
	want, _ := searchOf(ref, "alpha")
	got, err := searchOf(cl.co, "alpha")
	if err != nil {
		t.Fatalf("settled search: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("settled result count %d vs cold rebuild %d", len(got), len(want))
	}
}

// httptestNewServer wraps httptest.NewServer with cleanup, returning
// the URL.
func httptestNewServer(t *testing.T, h http.Handler) string {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs.URL
}
