package engine

import (
	"strings"
	"sync"

	"repro/internal/index"
	"repro/internal/slca"
	"repro/internal/xseek"
)

// This file is the serving layer's side of the lazy execution paths:
// the routing decision and the streamed page for ranked reads that
// miss the query cache, and a resumable doc-order cursor cache, so
// sequential pagination over a streamed query pulls each result from
// the pipeline exactly once.

// routeStreamed decides whether a ranked page that missed the query
// cache should run the executor's streamed pipeline instead of
// materializing the full result list. Streaming wins only when the
// window is bounded and the stream planner judges it small against the
// estimated result count. (A hit never gets here: windowing the cached
// outcome's ranking is cheaper than any re-execution.)
func (e *Engine) routeStreamed(query string, opts xseek.SearchOptions) bool {
	lo := opts.Offset
	if lo < 0 {
		lo = 0
	}
	if opts.Limit <= 0 {
		return false
	}
	need := lo + opts.Limit
	if need <= lo { // overflow
		return false
	}
	est := e.exec.EstimateResults(query)
	return slca.PlanStreamed(index.PlanStats{Min: est}, need)
}

// streamedPage runs one ranked page through the executor's
// score-bounded streamed pipeline and feeds the WAND metrics.
func (e *Engine) streamedPage(query string, opts xseek.SearchOptions) (*RankedPage, error) {
	page, total, st, err := e.exec.SearchRankedPageWAND(query, opts)
	if err != nil {
		return nil, err
	}
	e.rankedStreamed.Add(1)
	if st.Bounded {
		e.rankedWAND.Add(1)
		e.wandPruned.Add(st.Pruned)
		e.blocksSkipped.Add(st.BlocksSkipped)
	}
	lo := opts.Offset
	if lo < 0 {
		lo = 0
	}
	if total >= 0 {
		lo, _ = opts.Window(total)
	}
	return &RankedPage{Results: page, Total: total, Offset: lo}, nil
}

// SearchStream opens a fresh lazy doc-order cursor over the query's
// results. It bypasses the engine's caches entirely — each pull runs
// the SLCA → entity → label pipeline just far enough for the next
// result. For cached, shareable pagination use SearchStreamPage; for
// a materialized list use Search.
func (e *Engine) SearchStream(query string) (xseek.Cursor, error) {
	return e.exec.SearchStream(query)
}

// streamCursor is one resumable doc-order stream: the live cursor plus
// the prefix of results consumed so far. Sequential page requests for
// the same query pull only the delta beyond the longest page served;
// the epoch tag keeps a cursor opened before a write from ever serving
// the new corpus (its underlying iterators hold the old snapshot).
type streamCursor struct {
	mu     sync.Mutex
	cur    xseek.Cursor
	prefix []*xseek.Result
	done   bool // cur is exhausted; prefix is the full result list
	epoch  uint64
}

// SearchStreamPage returns the options' window of the document-ordered
// result list, pulling lazily from a per-query resumable cursor: the
// pipeline advances only to the window's end, so page 1 of a
// million-result query costs one page of work, and paging forward
// resumes where the last page stopped instead of re-searching. While
// the cursor is not exhausted the page's Total is
// xseek.StreamTotalUnknown; once any window reaches the end of the
// results the exact total is reported (and sticks for later pages).
// An unbounded window (Limit <= 0) drains the cursor.
func (e *Engine) SearchStreamPage(query string, opts xseek.SearchOptions) (*Page, error) {
	epoch := e.exec.Epoch()
	key := queryKey(query)

	var sc *streamCursor
	e.streamMu.Lock()
	if v, ok := e.streams.get(key); ok {
		if ent := v.(*streamCursor); ent.epoch == epoch {
			sc = ent
		}
	}
	e.streamMu.Unlock()
	if sc != nil {
		e.streamHits.Add(1)
	} else {
		e.streamMisses.Add(1)
		cur, err := e.exec.SearchStream(query)
		if err != nil {
			return nil, err
		}
		sc = &streamCursor{cur: cur, epoch: epoch}
		e.streamMu.Lock()
		if v, ok := e.streams.get(key); ok && v.(*streamCursor).epoch == epoch {
			sc = v.(*streamCursor) // another goroutine raced us; share its cursor
		} else if e.exec.Epoch() == epoch {
			e.streams.put(key, sc)
		}
		e.streamMu.Unlock()
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	lo := opts.Offset
	if lo < 0 {
		lo = 0
	}
	need := 0 // 0 = drain
	if opts.Limit > 0 {
		if n := lo + opts.Limit; n > lo {
			need = n
		}
	}
	for !sc.done && (need == 0 || len(sc.prefix) < need) {
		r, ok := sc.cur.Next()
		if !ok {
			sc.done = true
			break
		}
		sc.prefix = append(sc.prefix, r)
	}
	if err := sc.cur.Err(); err != nil {
		return nil, err
	}
	if sc.done {
		wlo, whi := opts.Window(len(sc.prefix))
		return &Page{Results: sc.prefix[wlo:whi:whi], Total: len(sc.prefix), Offset: wlo}, nil
	}
	hi := len(sc.prefix) // == need: the loop stopped at the window's end
	if lo > hi {
		lo = hi
	}
	return &Page{Results: sc.prefix[lo:hi:hi], Total: xseek.StreamTotalUnknown, Offset: lo}, nil
}

// SearchCleanedStreamPage is SearchStreamPage over the spell-corrected
// query, returning the corrected keywords alongside the page.
func (e *Engine) SearchCleanedStreamPage(query string, opts xseek.SearchOptions) (*Page, []string, error) {
	cleaned := e.exec.CleanQuery(query)
	page, err := e.SearchStreamPage(strings.Join(cleaned, " "), opts)
	return page, cleaned, err
}
