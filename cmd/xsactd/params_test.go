package main

import (
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// FuzzFormValueMatchesParseForm holds the in-place query scan to
// net/http's own form parsing: for any raw query and key, eachFormValue
// yields exactly r.Form[key] and formValue returns r.FormValue(key),
// on a bodiless request (the scan) and on one with a form body (the
// fallback through r.Form).
func FuzzFormValueMatchesParseForm(f *testing.F) {
	for _, seed := range [][2]string{
		{"dataset=Movies&q=horror+vampire&limit=10", "q"},
		{"q=a&q=b&sel=0&sel=1&sel=2", "sel"},
		{"q=%zz&q=ok", "q"},
		{"%71=x&q=y", "q"},
		{"a;b=1&q=2&&q", "q"},
		{"q=1;x&q=2", "q"},
		{"q%2Bx=1&q+x=2", "q+x"},
		{"=v&q=", ""},
		{"sel=%E6%97%A5&sel=1%", "sel"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		ref := &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: raw}, Body: http.NoBody}
		want := ref.FormValue(key)
		wantAll := ref.Form[key]

		r := &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: raw}, Body: http.NoBody}
		if got := formValue(r, key); got != want {
			t.Fatalf("formValue(%q, %q) = %q, want %q", raw, key, got, want)
		}
		var all []string
		eachFormValue(r, key, func(v string) bool { all = append(all, v); return true })
		if !slices.Equal(all, wantAll) {
			t.Fatalf("eachFormValue(%q, %q) = %q, want %q", raw, key, all, wantAll)
		}
		if r.Form != nil {
			t.Fatalf("the bodiless scan built r.Form")
		}

		// A form body is merged ahead of the query: the fallback path.
		body := "q=body&sel=9"
		withBody := func() *http.Request {
			r, err := http.NewRequest(http.MethodPost, "/?"+raw, strings.NewReader(body))
			if err != nil {
				return nil
			}
			r.URL.RawQuery = raw
			r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			return r
		}
		if ref, r := withBody(), withBody(); ref != nil {
			if got, want := formValue(r, key), ref.FormValue(key); got != want {
				t.Fatalf("formValue with body (%q, %q) = %q, want %q", raw, key, got, want)
			}
		}
	})
}

// TestIntParamAbsentAllocatesNothing pins why intParam checks for an
// absent value before strconv.Atoi: the common no-offset, no-size
// request must not build an error.
func TestIntParamAbsentAllocatesNothing(t *testing.T) {
	r := &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: "q=x&limit=10"}, Body: http.NoBody}
	if n, ok := intParam(r, "limit"); n != 10 || !ok {
		t.Fatalf("intParam(limit) = %d, %v", n, ok)
	}
	if n, ok := intParam(r, "offset"); n != 0 || ok {
		t.Fatalf("intParam(offset) = %d, %v", n, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { intParam(r, "offset") }); allocs != 0 {
		t.Fatalf("absent intParam allocates %.0f times", allocs)
	}
}
