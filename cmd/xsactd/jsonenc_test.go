package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJSONAppenders holds the string and float appenders to
// encoding/json: a string, as a string and as bytes, must come out as
// json.Marshal writes it, and a float must match json.Marshal or, where
// Marshal refuses the value (NaN, ±Inf), be refused too. The committed
// corpus (testdata/fuzz/FuzzJSONAppenders) seeds HTML metacharacters,
// control bytes, U+2028/U+2029, invalid UTF-8 and floats at the
// exponent-form cutoffs 1e-6 and 1e21.
func FuzzJSONAppenders(f *testing.F) {
	f.Add("", 0.0)
	f.Add("plain ascii", 1.0)
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("p"), s); string(got) != "p"+string(want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
		if got := appendJSONString(nil, []byte(s)); string(got) != string(want) {
			t.Fatalf("appendJSONString([]byte(%q)) = %s, want %s", s, got, want)
		}
		want, err = json.Marshal(x)
		got, ok := appendJSONFloat([]byte("p"), x)
		if ok != (err == nil) {
			t.Fatalf("appendJSONFloat(%v) ok = %v, json.Marshal err = %v", x, ok, err)
		}
		if ok && string(got) != "p"+string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", x, got[1:], want)
		}
		if !ok && string(got) != "p" {
			t.Fatalf("appendJSONFloat(%v) wrote %q for an unencodable value", x, got[1:])
		}
	})
}

// TestJSONStringsNullVersusEmpty pins the array rule of respBuf.strs:
// a nil slice is null, an empty one [].
func TestJSONStringsNullVersusEmpty(t *testing.T) {
	for _, ss := range [][]string{nil, {}, {"a", "<b>"}} {
		want, _ := json.Marshal(ss)
		rb := &respBuf{}
		if rb.strs("", ss); string(rb.b) != string(want) {
			t.Fatalf("strs(%#v) = %s, want %s", ss, rb.b, want)
		}
	}
}

// TestNonFiniteNumberIsServerError checks that a NaN the body cannot
// carry turns the response into a 500 error envelope.
func TestNonFiniteNumberIsServerError(t *testing.T) {
	rb := getResp()
	rb.float(`{"score":`, math.NaN())
	rb.raw("}\n")
	rec := httptest.NewRecorder()
	rb.send(rec, http.StatusOK)
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"response holds a non-finite number"}`+"\n" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body)
	}
}
