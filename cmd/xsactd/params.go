package main

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Handlers read request parameters through formValue and eachFormValue
// rather than r.FormValue. For a request without a body — every GET the
// UI and the API serve — r.Form is exactly the parsed URL query, so they
// scan r.URL.RawQuery in place instead of building the form map, and an
// unescaped value costs nothing unless it holds '%' or '+'. A request
// with a body, or one whose form is already parsed, goes through
// r.FormValue/r.Form unchanged, so both paths see the same values;
// FuzzFormValueMatchesParseForm holds them together.

// eachFormValue calls fn with every value of key in r's form, in order,
// until fn returns false.
func eachFormValue(r *http.Request, key string, fn func(string) bool) {
	if r.Form != nil || (r.Body != nil && r.Body != http.NoBody) {
		r.FormValue(key) // parses the form as FormValue does
		for _, v := range r.Form[key] {
			if !fn(v) {
				return
			}
		}
		return
	}
	// The same pairs url.ParseQuery keeps: split on '&', skip empty and
	// semicolon-holding pairs and any that fail to unescape.
	for q := r.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			if uk, err := url.QueryUnescape(k); err != nil || uk != key {
				continue
			}
		} else if k != key {
			continue
		}
		uv, err := url.QueryUnescape(v)
		if err != nil {
			continue
		}
		if !fn(uv) {
			return
		}
	}
}

// formValue is r.FormValue(key): the first value of key, or "".
func formValue(r *http.Request, key string) string {
	var first string
	eachFormValue(r, key, func(v string) bool {
		first = v
		return false
	})
	return first
}

// intParam parses an integer parameter; ok is false when it is absent
// or malformed. Absence is checked first, since strconv.Atoi("")
// allocates its error.
func intParam(r *http.Request, key string) (n int, ok bool) {
	s := formValue(r, key)
	if s == "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}
