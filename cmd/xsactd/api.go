package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/dewey"
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

// writeJSON writes v as the JSON response body through encoding/json.
// The cold endpoints (metrics, documents, compact, memstats) use it;
// the hot ones append their bodies directly (jsonenc.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
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
// so does every coordinator: its legs always run exact, because a leg
// cannot bound an entity split across shards.
//
// The body is
//
//	{"dataset", "query", "cleaned", "missing" (omitted when empty),
//	 "total", "offset", "returned", "results": [{"index", "id", "label",
//	 "description", "score" (rank=1 only)}]}
//
// where index is the selection handle /api/v1/compare and
// /api/v1/snippet accept, total counts the full result list, offset is
// the window's start within it and returned = len(results). Total is
// -1 when the execution strategy stopped before counting every result
// (exec=stream mid-list, or rank=1&accuracy=approx on any in-process
// dataset; only a coordinator's fan-out always counts).
func (s *server) apiSearch(w http.ResponseWriter, r *http.Request) {
	query := formValue(r, "q")
	if query == "" {
		writeJSONError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	ranked := false
	switch formValue(r, "rank") {
	case "", "0", "false":
	case "1", "true":
		ranked = true
	default:
		writeJSONError(w, http.StatusBadRequest, "bad rank parameter (want 1 or 0)")
		return
	}
	acc := xseek.AccuracyExact
	switch formValue(r, "accuracy") {
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
	if ranked && formValue(r, "exec") != "" && formValue(r, "exec") != "auto" {
		writeJSONError(w, http.StatusBadRequest, "ranked search picks its own execution; drop exec or use exec=auto")
		return
	}
	ds, eng, herr := s.resolveEngine(formValue(r, "dataset"), query)
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	limit, offset := pageParams(r)
	opts := xseek.SearchOptions{Limit: limit, Offset: offset, Accuracy: acc}
	var (
		page    *engine.Page
		rpage   *engine.RankedPage
		cleaned []string
		err     error
	)
	if ranked {
		rpage, cleaned, err = eng.SearchCleanedRankedPage(query, opts)
	} else {
		switch formValue(r, "exec") {
		case "", "auto", "eager":
			page, cleaned, err = eng.SearchCleanedPage(query, opts)
		case "stream":
			page, cleaned, err = eng.SearchCleanedStreamPage(query, opts)
		default:
			writeJSONError(w, http.StatusBadRequest, "bad exec parameter (want auto, eager, or stream)")
			return
		}
	}
	var missing []string
	if err != nil {
		// Unmatched keywords are an answer (an empty list naming them);
		// every other error is classified.
		var noMatch *index.NoMatchError
		if !errors.As(err, &noMatch) {
			herr := readError(err)
			writeJSONError(w, herr.status, herr.msg)
			return
		}
		missing = noMatch.Terms
	}

	rb := getResp()
	rb.str(`{"dataset":`, ds)
	rb.str(`,"query":`, query)
	rb.strs(`,"cleaned":`, cleaned)
	if len(missing) > 0 {
		rb.strs(`,"missing":`, missing)
	}
	var total, off, n int
	switch {
	case page != nil:
		total, off, n = page.Total, page.Offset, len(page.Results)
	case rpage != nil:
		total, off, n = rpage.Total, rpage.Offset, len(rpage.Results)
	}
	rb.int(`,"total":`, total)
	rb.int(`,"offset":`, off)
	rb.int(`,"returned":`, n)
	rb.raw(`,"results":[`)
	for i := 0; i < n; i++ {
		rb.comma(i)
		if page != nil {
			rb.result(off+i, page.Results[i])
		} else {
			rb.result(off+i, rpage.Results[i].Result)
			rb.float(`,"score":`, rpage.Results[i].Score)
		}
		rb.raw("}")
	}
	rb.raw("]}\n")
	rb.send(w, http.StatusOK)
}

// result appends one search result's object up to, not including, its
// closing brace, so a ranked result can add its score.
func (rb *respBuf) result(index int, res *xseek.Result) {
	rb.int(`{"index":`, index)
	// A Dewey ID is written as digits, dots, minus signs or "/": it
	// needs no escaping.
	rb.raw(`,"id":"`)
	rb.b = res.Node.ID.AppendTo(rb.b)
	rb.str(`","label":`, res.Label)
	rb.scratch = xseek.AppendDescription(rb.scratch[:0], res, 4)
	rb.raw(`,"description":`)
	rb.b = appendJSONString(rb.b, rb.scratch)
}

// apiCompare serves GET /api/v1/compare with the HTML compare page's
// parameters (dataset, q, sel indices, L, alg) and returns the
// comparison table as structured rows.
//
// The body is
//
//	{"dataset", "query", "algorithm", "size_bound", "dod", "labels",
//	 "rows": [{"entity", "attribute", "cells": [{"known",
//	 "values" (omitted when empty): [{"value", "rel", "count"}]}]}]}
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
	rb := getResp()
	rb.str(`{"dataset":`, in.dataset)
	rb.str(`,"query":`, in.query)
	rb.str(`,"algorithm":`, string(in.alg))
	rb.int(`,"size_bound":`, in.bound)
	rb.int(`,"dod":`, core.TotalDoD(dfss, core.DefaultThreshold))
	rb.strs(`,"labels":`, tbl.Labels)
	rb.raw(`,"rows":[`)
	for i, row := range tbl.Rows {
		rb.comma(i)
		rb.str(`{"entity":`, row.Type.Entity)
		rb.str(`,"attribute":`, row.Type.Attribute)
		rb.raw(`,"cells":`)
		if len(row.Cells) == 0 {
			rb.raw("null")
		} else {
			rb.raw("[")
			for j, cell := range row.Cells {
				rb.comma(j)
				rb.bool(`{"known":`, cell.Known)
				if len(cell.Values) > 0 {
					rb.raw(`,"values":[`)
					for k, v := range cell.Values {
						rb.comma(k)
						rb.str(`{"value":`, v.Value)
						rb.float(`,"rel":`, v.Rel)
						rb.int(`,"count":`, v.Count)
						rb.raw("}")
					}
					rb.raw("]")
				}
				rb.raw("}")
			}
			rb.raw("]")
		}
		rb.raw("}")
	}
	rb.raw("]}\n")
	rb.send(w, http.StatusOK)
}

// apiSnippet serves GET /api/v1/snippet?dataset=...&q=...&idx=N[&size=K]
// — the eXtract-style frequency snippet of one search result, the
// baseline XSACT's coordinated tables improve upon.
//
// The body is
//
//	{"dataset", "query", "index", "label",
//	 "features": [{"entity", "attribute", "value"}]}
func (s *server) apiSnippet(w http.ResponseWriter, r *http.Request) {
	in, herr := s.resolveResult(r)
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	size, _ := intParam(r, "size")
	// Bias with the corrected keywords — the ones the result actually
	// answers — so a typo query still boosts the matching features.
	biasQuery := strings.Join(in.cleaned, " ")
	sn := snippet.Generate(in.eng.Stats(in.res.Node, in.res.Label), snippet.Options{Size: size, Query: biasQuery})
	rb := getResp()
	rb.str(`{"dataset":`, in.dataset)
	rb.str(`,"query":`, in.query)
	rb.int(`,"index":`, in.idx)
	rb.str(`,"label":`, sn.Label)
	rb.raw(`,"features":[`)
	for i, f := range sn.Features {
		rb.comma(i)
		rb.str(`{"entity":`, f.Entity)
		rb.str(`,"attribute":`, f.Attribute)
		rb.str(`,"value":`, f.Value)
		rb.raw("}")
	}
	rb.raw("]}\n")
	rb.send(w, http.StatusOK)
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

// maxDocumentBody caps a POST /api/v1/documents body. One entity
// fragment is a few kilobytes; a larger body is answered 413 before it
// is read into memory.
const maxDocumentBody = 1 << 20

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
// with its journal of pending writes, so restarts replay it. A POST body
// over maxDocumentBody is answered 413.
func (s *server) apiDocuments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req documentRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDocumentBody)).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxDocumentBody))
				return
			}
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
		ds, eng, herr := s.writeEngine(formValue(r, "dataset"))
		if herr != nil {
			writeJSONError(w, herr.status, herr.msg)
			return
		}
		idStr := formValue(r, "id")
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
	ds, eng, herr := s.writeEngine(formValue(r, "dataset"))
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
