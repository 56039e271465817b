package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/snippet"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// The /api/v1/* endpoints mirror the HTML UI over JSON so load
// generators and programmatic clients can drive the server: search and
// compare resolve through exactly the same engine calls (and the same
// request validation, for compare) as their HTML counterparts, so a
// result index obtained from /api/v1/search selects the same result
// the HTML checkbox with that value does.

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONError writes the uniform error envelope.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// apiResult is one search result in wire form. Index is the selection
// handle /api/v1/compare and /api/v1/snippet accept.
type apiResult struct {
	Index       int    `json:"index"`
	ID          string `json:"id"`
	Label       string `json:"label"`
	Description string `json:"description"`
	// Score carries the TF-IDF relevance score on rank=1 responses;
	// document-order responses omit it.
	Score *float64 `json:"score,omitempty"`
}

type searchResponse struct {
	Dataset string   `json:"dataset"`
	Query   string   `json:"query"`
	Cleaned []string `json:"cleaned"`
	Missing []string `json:"missing,omitempty"`
	// Paging envelope: Total counts the full result list, Offset is
	// the window's start within it, Returned = len(Results). Total is
	// -1 when the execution strategy stopped before counting every
	// result (exec=stream mid-list, or rank=1&accuracy=approx on a
	// single-index or live-updated dataset; the sharded fan-out, which
	// serves a sharded dataset until its first write and every
	// coordinator, always counts).
	Total    int         `json:"total"`
	Offset   int         `json:"offset"`
	Returned int         `json:"returned"`
	Results  []apiResult `json:"results"`
}

// apiSearch serves GET /api/v1/search?dataset=...&q=...[&limit=N&offset=M][&exec=...]
// — dataset may be omitted (first dataset) or "Any (auto-select)" for
// database selection; limit/offset select a window of the result list
// (limit 0 or absent returns everything). A query whose keywords match
// nothing is a well-formed 200 response with empty results and the
// missing keywords listed; an offset past the end is a well-formed
// empty page. Result indices are positions in the full list, so a
// paginated client passes them to compare/snippet unchanged.
//
// exec selects the execution strategy: "eager" or "auto" (the default)
// materializes the full result list and slices the window, reporting
// the exact total; "stream" pulls lazily from a resumable per-query
// cursor that stops at the window's end — the cheapest way to page
// forward through a huge result list — and reports total -1 until some
// window reaches the end of the results. Both spellings return the
// same results in the same order.
//
// rank=1 returns the relevance ordering instead of document order,
// with each result's TF-IDF score alongside. Ranked search picks its
// own execution strategy (a cached query is paged from its memoized
// ranking; uncached small windows over broad queries run the
// score-bounded streamed pipeline), so it composes with accuracy=
// rather than exec=: "exact" (the default) reports the exact total,
// "approx" lets an uncached query stop scanning once no later result
// can enter the page — the page itself is still exact, but total may
// come back -1. A cached query reports its exact total either way, and
// so does the sharded fan-out (a sharded dataset before its first
// write, and every coordinator): its legs always run exact, because a
// leg cannot bound an entity split across shards.
func (s *server) apiSearch(w http.ResponseWriter, r *http.Request) {
	query := r.FormValue("q")
	if query == "" {
		writeJSONError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	ranked := false
	switch r.FormValue("rank") {
	case "", "0", "false":
	case "1", "true":
		ranked = true
	default:
		writeJSONError(w, http.StatusBadRequest, "bad rank parameter (want 1 or 0)")
		return
	}
	acc := xseek.AccuracyExact
	switch r.FormValue("accuracy") {
	case "", "exact":
	case "approx":
		acc = xseek.AccuracyApprox
	default:
		writeJSONError(w, http.StatusBadRequest, "bad accuracy parameter (want exact or approx)")
		return
	}
	if !ranked && acc != xseek.AccuracyExact {
		writeJSONError(w, http.StatusBadRequest, "accuracy applies to ranked search; pass rank=1")
		return
	}
	if ranked && r.FormValue("exec") != "" && r.FormValue("exec") != "auto" {
		writeJSONError(w, http.StatusBadRequest, "ranked search picks its own execution; drop exec or use exec=auto")
		return
	}
	ds, eng, herr := s.resolveEngine(r.FormValue("dataset"), query)
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	limit, offset := pageParams(r)
	resp := searchResponse{Dataset: ds, Query: query, Results: []apiResult{}}
	var err error
	if ranked {
		var page *engine.RankedPage
		page, resp.Cleaned, err = eng.SearchCleanedRankedPage(query, xseek.SearchOptions{Limit: limit, Offset: offset, Accuracy: acc})
		if err == nil {
			resp.Total = page.Total
			resp.Offset = page.Offset
			resp.Returned = len(page.Results)
			for i, res := range page.Results {
				score := res.Score
				resp.Results = append(resp.Results, apiResult{
					Index:       page.Offset + i,
					ID:          res.Node.ID.String(),
					Label:       res.Label,
					Description: xseek.DescribeResult(res.Result, 4),
					Score:       &score,
				})
			}
		}
	} else {
		var page *engine.Page
		switch r.FormValue("exec") {
		case "", "auto", "eager":
			page, resp.Cleaned, err = eng.SearchCleanedPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
		case "stream":
			page, resp.Cleaned, err = eng.SearchCleanedStreamPage(query, xseek.SearchOptions{Limit: limit, Offset: offset})
		default:
			writeJSONError(w, http.StatusBadRequest, "bad exec parameter (want auto, eager, or stream)")
			return
		}
		if err == nil {
			resp.Total = page.Total
			resp.Offset = page.Offset
			resp.Returned = len(page.Results)
			for i, res := range page.Results {
				resp.Results = append(resp.Results, apiResult{
					Index:       page.Offset + i,
					ID:          res.Node.ID.String(),
					Label:       res.Label,
					Description: xseek.DescribeResult(res, 4),
				})
			}
		}
	}
	if err != nil {
		if errors.Is(err, dist.ErrOverloaded) {
			// Admission control shed this ranked query: load protection,
			// not failure — nothing changed; the caller should back off
			// briefly and retry.
			w.Header().Set("Retry-After", "1")
			writeJSONError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		var noMatch *index.NoMatchError
		if !errors.As(err, &noMatch) {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		resp.Missing = noMatch.Terms
	}
	writeJSON(w, http.StatusOK, resp)
}

type apiCellValue struct {
	Value string  `json:"value"`
	Rel   float64 `json:"rel"`
	Count int     `json:"count"`
}

type apiCell struct {
	Known  bool           `json:"known"`
	Values []apiCellValue `json:"values,omitempty"`
}

type apiRow struct {
	Entity    string    `json:"entity"`
	Attribute string    `json:"attribute"`
	Cells     []apiCell `json:"cells"`
}

type compareResponse struct {
	Dataset   string   `json:"dataset"`
	Query     string   `json:"query"`
	Algorithm string   `json:"algorithm"`
	SizeBound int      `json:"size_bound"`
	DoD       int      `json:"dod"`
	Labels    []string `json:"labels"`
	Rows      []apiRow `json:"rows"`
}

// apiCompare serves GET /api/v1/compare with the HTML compare page's
// parameters (dataset, q, sel indices, L, alg) and returns the
// comparison table as structured rows.
func (s *server) apiCompare(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveCompare(r)
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	dfss, herr := in.generate()
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	tbl := table.Build(dfss)
	resp := compareResponse{
		Dataset:   in.dataset,
		Query:     in.query,
		Algorithm: string(in.alg),
		SizeBound: in.bound,
		DoD:       core.TotalDoD(dfss, core.DefaultThreshold),
		Labels:    tbl.Labels,
		Rows:      []apiRow{},
	}
	for _, row := range tbl.Rows {
		out := apiRow{Entity: row.Type.Entity, Attribute: row.Type.Attribute}
		for _, cell := range row.Cells {
			c := apiCell{Known: cell.Known}
			for _, v := range cell.Values {
				c.Values = append(c.Values, apiCellValue{Value: v.Value, Rel: v.Rel, Count: v.Count})
			}
			out.Cells = append(out.Cells, c)
		}
		resp.Rows = append(resp.Rows, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

type apiFeature struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
}

type snippetResponse struct {
	Dataset  string       `json:"dataset"`
	Query    string       `json:"query"`
	Index    int          `json:"index"`
	Label    string       `json:"label"`
	Features []apiFeature `json:"features"`
}

// apiSnippet serves GET /api/v1/snippet?dataset=...&q=...&idx=N[&size=K]
// — the eXtract-style frequency snippet of one search result, the
// baseline XSACT's coordinated tables improve upon.
func (s *server) apiSnippet(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveResult(r)
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	size, _ := strconv.Atoi(r.FormValue("size"))
	// Bias with the corrected keywords — the ones the result actually
	// answers — so a typo query still boosts the matching features.
	biasQuery := strings.Join(in.cleaned, " ")
	sn := snippet.Generate(in.eng.Stats(in.res.Node, in.res.Label), snippet.Options{Size: size, Query: biasQuery})
	resp := snippetResponse{Dataset: in.dataset, Query: in.query, Index: in.idx, Label: sn.Label, Features: []apiFeature{}}
	for _, f := range sn.Features {
		resp.Features = append(resp.Features, apiFeature{Entity: f.Entity, Attribute: f.Attribute, Value: f.Value})
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeEngine resolves a mutation's target dataset: empty selects the
// first dataset (matching the read paths' default), the auto-select
// entry is rejected (a write must name its corpus), anything else must
// be a known dataset. Unlike the read paths it never runs database
// selection, so a write can never land on a corpus chosen by keyword
// statistics.
func (s *server) writeEngine(ds string) (string, *engine.Engine, *httpError) {
	switch ds {
	case "":
		ds = s.order[0]
	case autoDataset:
		return "", nil, &httpError{http.StatusBadRequest, "writes require an explicit dataset"}
	}
	eng := s.engineFor(ds)
	if eng == nil {
		return "", nil, &httpError{http.StatusBadRequest, "unknown dataset"}
	}
	return ds, eng, nil
}

// documentRequest is the POST /api/v1/documents body.
type documentRequest struct {
	Dataset string `json:"dataset"`
	XML     string `json:"xml"`
}

// documentResponse answers both document mutations.
type documentResponse struct {
	Dataset string `json:"dataset"`
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	// Epoch and the pending backlog let ingest clients pace themselves
	// and decide when to trigger compaction explicitly.
	Epoch             uint64 `json:"epoch"`
	PendingDelta      int    `json:"pending_delta"`
	PendingTombstones int    `json:"pending_tombstones"`
}

// apiDocuments serves the live write path:
//
//	POST   /api/v1/documents            body {"dataset": ..., "xml": "<entity .../>"}
//	DELETE /api/v1/documents?dataset=...&id=...
//
// POST parses the XML fragment and appends it as a new top-level
// entity, immediately searchable; the response's id is the handle
// DELETE accepts (and matches the id field of /api/v1/search results).
// With -snapshot-dir set, each accepted write re-persists the engine
// with its journal of pending writes, so restarts replay it.
func (s *server) apiDocuments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req documentRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if strings.TrimSpace(req.XML) == "" {
			writeJSONError(w, http.StatusBadRequest, "missing entity xml")
			return
		}
		ds, eng, herr := s.writeEngine(req.Dataset)
		if herr != nil {
			writeJSONError(w, herr.status, herr.msg)
			return
		}
		node, err := xmltree.ParseString(req.XML)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		id, err := eng.AddEntity(node)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.saveSnapshot(ds)
		m := eng.Metrics()
		writeJSON(w, http.StatusCreated, documentResponse{
			Dataset: ds, ID: id.String(), Label: xseek.LabelFor(node),
			Epoch: m.Epoch, PendingDelta: m.PendingDelta, PendingTombstones: m.PendingTombstones,
		})
	case http.MethodDelete:
		ds, eng, herr := s.writeEngine(r.FormValue("dataset"))
		if herr != nil {
			writeJSONError(w, herr.status, herr.msg)
			return
		}
		idStr := r.FormValue("id")
		id, err := dewey.Parse(idStr)
		if err != nil || len(id) != 1 {
			// Malformed or non-top-level IDs are bad requests; only a
			// well-formed ID that names no live entity is a 404 (the
			// "stale handle, re-resolve via search" signal).
			writeJSONError(w, http.StatusBadRequest, "bad entity id "+idStr)
			return
		}
		if err := eng.RemoveEntity(id); err != nil {
			writeJSONError(w, http.StatusNotFound, err.Error())
			return
		}
		s.saveSnapshot(ds)
		m := eng.Metrics()
		writeJSON(w, http.StatusOK, documentResponse{
			Dataset: ds, ID: idStr,
			Epoch: m.Epoch, PendingDelta: m.PendingDelta, PendingTombstones: m.PendingTombstones,
		})
	default:
		writeJSONError(w, http.StatusMethodNotAllowed, "use POST to add or DELETE to remove")
	}
}

// compactResponse answers POST /api/v1/compact.
type compactResponse struct {
	Dataset     string `json:"dataset"`
	Epoch       uint64 `json:"epoch"`
	Compactions int64  `json:"compactions"`
}

// apiCompact serves POST /api/v1/compact?dataset=... — an explicit
// compaction trigger for operators and ingest pipelines (compaction
// also runs automatically when -compact-every is set). Compacting a
// dataset with no pending writes is a cheap no-op.
func (s *server) apiCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	ds, eng, herr := s.writeEngine(r.FormValue("dataset"))
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	if err := eng.Compact(); err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.saveSnapshot(ds)
	m := eng.Metrics()
	writeJSON(w, http.StatusOK, compactResponse{Dataset: ds, Epoch: m.Epoch, Compactions: m.Compactions})
}

// datasetMetrics reports one dataset's serving state. Engines are
// built lazily, so unbuilt datasets show built=false instead of being
// forced into existence by a monitoring probe.
type datasetMetrics struct {
	Built  bool            `json:"built"`
	Engine *engine.Metrics `json:"engine,omitempty"`
	Index  *index.Stats    `json:"index,omitempty"`
}

type metricsResponse struct {
	Datasets map[string]datasetMetrics `json:"datasets"`
}

// apiMetrics serves GET /api/v1/metrics: per-dataset cache counters
// and index statistics for every engine built so far.
func (s *server) apiMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{Datasets: make(map[string]datasetMetrics, len(s.datasets))}
	for name, l := range s.datasets {
		dm := datasetMetrics{}
		if eng := l.peek(); eng != nil {
			dm.Built = true
			m := eng.Metrics()
			st := eng.IndexStats()
			dm.Engine = &m
			dm.Index = &st
		}
		resp.Datasets[name] = dm
	}
	writeJSON(w, http.StatusOK, resp)
}
