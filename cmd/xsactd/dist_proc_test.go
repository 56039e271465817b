package main

// The multi-process equivalence run: real `xsactd -shard-server`
// OS processes built from this package, a coordinator dialed over
// their TCP endpoints, and bit-identity asserted against the
// in-process sharded engine — queries and a live write.

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/shard"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

func procResultKey(rs []*xseek.Result) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Node.ID.String() + "=" + r.Match.ID.String() + "=" + r.Label
	}
	return strings.Join(parts, ";")
}

// procSearch drains an executor's doc-order cursor: its search result
// list.
func procSearch(stream func(string) (xseek.Cursor, error), query string) ([]*xseek.Result, error) {
	c, err := stream(query)
	if err != nil {
		return nil, err
	}
	return xseek.Drain(c)
}

// procPage is the options' window of ref's full ranking of results.
func procPage(ref *update.Engine, results []*xseek.Result, query string, opts xseek.SearchOptions) []*xseek.RankedResult {
	lo, hi := opts.Window(len(results))
	return ref.RankResults(results, query)[lo:hi]
}

func procRankedKey(rs []*xseek.RankedResult) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s@%016x", r.Node.ID, math.Float64bits(r.Score))
	}
	return strings.Join(parts, ";")
}

// corpusTerms pulls a few real index terms out of the corpus text, so
// the cross-process queries actually have results to disagree on.
func corpusTerms(root *xmltree.Node, n int) []string {
	seen := map[string]bool{}
	var out []string
	root.Walk(func(m *xmltree.Node) bool {
		if len(out) >= n {
			return false
		}
		if m.Kind != xmltree.Text {
			return true
		}
		for _, w := range strings.Fields(strings.ToLower(m.Text)) {
			w = strings.Trim(w, ".,;:!?\"'()")
			if len(w) < 4 || seen[w] {
				continue
			}
			ok := true
			for _, r := range w {
				if r < 'a' || r > 'z' {
					ok = false
					break
				}
			}
			if ok {
				seen[w] = true
				out = append(out, w)
				if len(out) >= n {
					return false
				}
			}
		}
		return true
	})
	return out
}

// freeAddr reserves an ephemeral localhost port and releases it for
// the child process to claim.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// buildXsactd compiles the binary once per test into its temp dir.
func buildXsactd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xsactd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building xsactd: %v\n%s", err, out)
	}
	return bin
}

// startShardProc launches one `xsactd -shard-server` process and
// registers its teardown. Extra args (e.g. -peer) are appended.
func startShardProc(t *testing.T, bin, addr string, shardID, shardCount int, seed int64, extra ...string) *exec.Cmd {
	t.Helper()
	args := []string{"-shard-server",
		"-shard-id", fmt.Sprint(shardID), "-shard-count", fmt.Sprint(shardCount),
		"-addr", addr, "-seed", fmt.Sprint(seed)}
	cmd := exec.Command(bin, append(args, extra...)...)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting shard %d at %s: %v", shardID, addr, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// awaitShardReady polls a leg's info endpoint until the corpus is
// bootstrapped with the expected identity. A fresh leg reports
// ready=false until a coordinator installs the ranking, so readiness
// itself is only demanded in the restored-from-peer case (wantEpoch
// non-zero): a snapshot carries the ranking, and the restored leg must
// already be serving at exactly that epoch.
func awaitShardReady(t *testing.T, ep, corpus string, shardID, shardCount int, wantEpoch uint64) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	var lastErr error
	for {
		resp, err := client.Get(ep + "/shard/v1/info?corpus=" + strings.ReplaceAll(corpus, " ", "+"))
		lastErr = err
		if err == nil {
			var info dist.InfoResponse
			ok := resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&info) == nil &&
				info.ShardID == shardID && info.Shards == shardCount &&
				(wantEpoch == 0 || (info.Ready && info.Epoch == wantEpoch))
			resp.Body.Close()
			if ok {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("leg %d at %s never became ready: %v", shardID, ep, lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestShardServerProcesses is the true multi-process leg of the
// equivalence harness: the httptest-based tests in internal/dist share
// an address space with the coordinator; this one crosses real process
// boundaries through the compiled binary.
func TestShardServerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process: builds and launches the xsactd binary")
	}
	const k = 2
	const seed = 1

	bin := buildXsactd(t)
	endpoints := make([]string, k)
	for g := 0; g < k; g++ {
		addr := freeAddr(t)
		endpoints[g] = "http://" + addr
		startShardProc(t, bin, addr, g, k, seed)
	}
	for g, ep := range endpoints {
		awaitShardReady(t, ep, "Product Reviews", g, k, 0)
	}

	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed})
	co, err := dist.Dial(endpoints, "Product Reviews", root, dist.Config{
		Timeout: 10 * time.Second, Retries: 1,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	ref := update.WrapSharded(shard.Build(dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed}), k))

	check := func(query, ctx string) {
		t.Helper()
		want, wantErr := procSearch(ref.SearchStream, query)
		got, gotErr := procSearch(co.SearchStream, query)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s query %q: err %v vs %v", ctx, query, gotErr, wantErr)
		}
		if procResultKey(got) != procResultKey(want) {
			t.Fatalf("%s query %q: results diverge\n got  %.200s\n want %.200s",
				ctx, query, procResultKey(got), procResultKey(want))
		}
		if wantErr != nil {
			return
		}
		for _, opts := range []xseek.SearchOptions{{Limit: 1}, {Limit: 5}, {Limit: 3, Offset: 2}} {
			wantP, wantT := procPage(ref, want, query, opts), len(want)
			gotP, gotT, _, err := co.SearchRankedPageWAND(query, opts)
			if err != nil {
				t.Fatalf("%s query %q page %+v: %v", ctx, query, opts, err)
			}
			if gotT != wantT || procRankedKey(gotP) != procRankedKey(wantP) {
				t.Fatalf("%s query %q page %+v:\n got  total=%d %s\n want total=%d %s",
					ctx, query, opts, gotT, procRankedKey(gotP), wantT, procRankedKey(wantP))
			}
		}
	}

	terms := corpusTerms(root, 4)
	if len(terms) < 2 {
		t.Fatalf("corpus yielded too few query terms: %v", terms)
	}
	for _, q := range terms {
		check(q, "cold")
	}
	check(terms[0]+" "+terms[1], "cold multi-term")

	// One live write through the real processes.
	frag := fmt.Sprintf("<review><text>%s %s freshproc</text></review>", terms[0], terms[1])
	wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
	if err != nil {
		t.Fatalf("ref add: %v", err)
	}
	gotID, err := co.AddEntity(xmltree.MustParseString(frag))
	if err != nil {
		t.Fatalf("dist add: %v", err)
	}
	if gotID.String() != wantID.String() {
		t.Fatalf("add ID %s vs %s", gotID, wantID)
	}
	if got, want := co.Epoch(), ref.Epoch(); got != want {
		t.Fatalf("epoch %d vs %d after add", got, want)
	}
	check("freshproc", "after add")
	check(terms[0], "after add")
}

// TestShardServerReplicaFailoverProcesses is the multi-process leg of
// the replication story: 2 shard groups x 2 replicas as real xsactd
// processes, a replicated coordinator dialed over them, then a replica
// killed mid-run (reads must fail over, still bit-identical) and a
// replacement started with -peer (it must self-heal from the live
// replica's snapshot, rejoin at the current epoch, and carry the data
// on its own once the original survivor is killed too).
func TestShardServerReplicaFailoverProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process: builds and launches the xsactd binary")
	}
	const k = 2
	const reps = 2
	const seed = 1
	const corpus = "Product Reviews"

	bin := buildXsactd(t)
	cmds := make([][]*exec.Cmd, k)
	endpoints := make([][]string, k)
	var flat []string
	for g := 0; g < k; g++ {
		cmds[g] = make([]*exec.Cmd, reps)
		endpoints[g] = make([]string, reps)
		for r := 0; r < reps; r++ {
			addr := freeAddr(t)
			endpoints[g][r] = "http://" + addr
			flat = append(flat, endpoints[g][r])
			cmds[g][r] = startShardProc(t, bin, addr, g, k, seed)
		}
	}
	for g := 0; g < k; g++ {
		for r := 0; r < reps; r++ {
			awaitShardReady(t, endpoints[g][r], corpus, g, k, 0)
		}
	}

	groups, err := dist.GroupEndpoints(flat, reps)
	if err != nil {
		t.Fatalf("GroupEndpoints: %v", err)
	}
	root := dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed})
	co, err := dist.DialReplicas(groups, corpus, root, dist.Config{
		Timeout: 10 * time.Second, Retries: 1,
	})
	if err != nil {
		t.Fatalf("DialReplicas: %v", err)
	}
	ref := update.WrapSharded(shard.Build(dataset.ProductReviews(dataset.ReviewsConfig{Seed: seed}), k))

	check := func(query, ctx string) {
		t.Helper()
		want, wantErr := procSearch(ref.SearchStream, query)
		got, gotErr := procSearch(co.SearchStream, query)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s query %q: err %v vs %v", ctx, query, gotErr, wantErr)
		}
		if procResultKey(got) != procResultKey(want) {
			t.Fatalf("%s query %q: results diverge\n got  %.200s\n want %.200s",
				ctx, query, procResultKey(got), procResultKey(want))
		}
		if wantErr != nil {
			return
		}
		opts := xseek.SearchOptions{Limit: 5}
		wantP, wantT := procPage(ref, want, query, opts), len(want)
		gotP, gotT, _, err := co.SearchRankedPageWAND(query, opts)
		if err != nil {
			t.Fatalf("%s query %q ranked: %v", ctx, query, err)
		}
		if gotT != wantT || procRankedKey(gotP) != procRankedKey(wantP) {
			t.Fatalf("%s query %q ranked:\n got  total=%d %s\n want total=%d %s",
				ctx, query, gotT, procRankedKey(gotP), wantT, procRankedKey(wantP))
		}
	}

	terms := corpusTerms(root, 3)
	if len(terms) < 2 {
		t.Fatalf("corpus yielded too few query terms: %v", terms)
	}
	for _, q := range terms {
		check(q, "cold")
	}

	// A write while every replica is alive: broadcast must land on all
	// four legs.
	frag := fmt.Sprintf("<review><text>%s %s replproc</text></review>", terms[0], terms[1])
	wantID, err := ref.AddEntity(xmltree.MustParseString(frag))
	if err != nil {
		t.Fatalf("ref add: %v", err)
	}
	gotID, err := co.AddEntity(xmltree.MustParseString(frag))
	if err != nil {
		t.Fatalf("dist add: %v", err)
	}
	if gotID.String() != wantID.String() {
		t.Fatalf("add ID %s vs %s", gotID, wantID)
	}
	check("replproc", "after add")

	// Kill group 0's replica 0. Reads must fail over to the surviving
	// replica with no change in answers.
	cmds[0][0].Process.Kill()
	cmds[0][0].Wait()
	for _, q := range terms {
		check(q, "one replica down")
	}
	check("replproc", "one replica down")
	if _, _, _, _, failovers, _ := co.DistCounters(); failovers == 0 {
		t.Fatal("no failovers recorded with a replica down")
	}

	// Self-healing: a replacement process restores group 0's state from
	// the surviving replica's snapshot and rejoins at the live epoch.
	newAddr := freeAddr(t)
	startShardProc(t, bin, newAddr, 0, k, seed, "-peer", endpoints[0][1])
	awaitShardReady(t, "http://"+newAddr, corpus, 0, k, co.Epoch())
	co.SetReplicaEndpoint(0, 0, "http://"+newAddr)
	for _, q := range terms {
		check(q, "replacement joined")
	}

	// A write now broadcasts through the replacement too — proof it is
	// a first-class replica, not a stale bystander.
	frag2 := fmt.Sprintf("<review><text>%s healedproc</text></review>", terms[1])
	if _, err := ref.AddEntity(xmltree.MustParseString(frag2)); err != nil {
		t.Fatalf("ref add 2: %v", err)
	}
	if _, err := co.AddEntity(xmltree.MustParseString(frag2)); err != nil {
		t.Fatalf("dist add 2: %v", err)
	}
	if got, want := co.Epoch(), ref.Epoch(); got != want {
		t.Fatalf("epoch %d vs %d after second add", got, want)
	}
	check("healedproc", "after second add")

	// Kill the original survivor: only the peer-healed replacement now
	// holds group 0, so matching answers prove the snapshot transfer
	// really restored the corpus (writes included).
	cmds[0][1].Process.Kill()
	cmds[0][1].Wait()
	for _, q := range terms {
		check(q, "replacement alone")
	}
	check("replproc", "replacement alone")
	check("healedproc", "replacement alone")
}
