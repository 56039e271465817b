package xseek

import (
	"strings"

	"repro/internal/index"
)

// CleanQuery maps each query keyword to the closest term of v:
// keywords already in the vocabulary pass through; unmatched keywords
// are replaced by their best spelling suggestion (edit distance ≤ 2,
// then frequency, then term); keywords with no suggestion are kept
// as-is (a search will then report them via NoMatchError). The
// returned slice preserves keyword order. This is the paper's "query
// cleaning" companion technique.
func CleanQuery(v Vocabulary, query string) []string {
	terms := index.TokenizeQuery(query)
	out := make([]string, len(terms))
	for i, t := range terms {
		if v.DocFreq(t) > 0 {
			out[i] = t
			continue
		}
		if sugg := index.SuggestIn(v.EachTerm, t, 2); len(sugg) > 0 {
			out[i] = sugg[0]
		} else {
			out[i] = t
		}
	}
	return out
}

// CleanQuery cleans the query against the engine's index (see the
// package function).
func (e *Engine) CleanQuery(query string) []string { return CleanQuery(e.idx, query) }

// SearchCleaned cleans the query first and then searches, returning
// the corrected keywords alongside the results so a UI can display
// "showing results for ...".
func (e *Engine) SearchCleaned(query string) ([]*Result, []string, error) {
	cleaned := e.CleanQuery(query)
	res, err := e.Search(strings.Join(cleaned, " "))
	return res, cleaned, err
}
