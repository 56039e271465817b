package main

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The hot API bodies (search, compare, snippet and the error envelope)
// are appended field by field into a pooled buffer instead of going
// through encoding/json's reflection and intermediate wire structs.
// Every body is byte-identical to what json.Encoder writes for the
// equivalent struct — key order, null versus [], omitempty, HTML-safe
// string escaping, ES6 float formatting and the trailing newline; the
// golden tests in api_test.go hold the two encodings together.

// jsonContentType is the shared Content-Type value of every JSON
// response: assigning it skips Header().Set's per-call slice.
var jsonContentType = []string{"application/json"}

// retryAfter is the Retry-After value of a shed request.
var retryAfter = []string{"1"}

// maxPooledBody caps the capacity of a buffer returned to respPool. A
// rare huge response (an unbounded search page) leaves its buffer to
// the garbage collector instead of pinning it in the pool.
const maxPooledBody = 64 << 10

// respBuf is a pooled response body plus a scratch buffer for values
// that are rendered before they are escaped (result descriptions).
type respBuf struct {
	b       []byte
	scratch []byte
	// nonFinite records a NaN or infinite number, which JSON cannot
	// carry: send answers 500 instead of a malformed body.
	nonFinite bool
}

var respPool = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 4096)} }}

// getResp takes an empty body buffer from the pool.
func getResp() *respBuf {
	rb := respPool.Get().(*respBuf)
	rb.b = rb.b[:0]
	return rb
}

// send writes the body with a Content-Length in one Write, then
// recycles the buffer. rb must not be used afterwards.
func (rb *respBuf) send(w http.ResponseWriter, status int) {
	if rb.nonFinite {
		rb.nonFinite = false
		rb.b = append(rb.b[:0], `{"error":"response holds a non-finite number"}`+"\n"...)
		status = http.StatusInternalServerError
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(rb.b))}
	w.WriteHeader(status)
	_, _ = w.Write(rb.b)
	if cap(rb.b) <= maxPooledBody && cap(rb.scratch) <= maxPooledBody {
		respPool.Put(rb)
	}
}

// raw appends literal JSON text: punctuation and quoted keys.
func (rb *respBuf) raw(s string) { rb.b = append(rb.b, s...) }

// comma separates the i-th element of an array from the previous one.
func (rb *respBuf) comma(i int) {
	if i > 0 {
		rb.b = append(rb.b, ',')
	}
}

// The value appenders below each write pre — literal JSON such as
// `,"key":` — and then their value.

// str appends a JSON string.
func (rb *respBuf) str(pre, s string) {
	rb.raw(pre)
	rb.b = appendJSONString(rb.b, s)
}

// strs appends a string array; nil is null.
func (rb *respBuf) strs(pre string, ss []string) {
	rb.raw(pre)
	if ss == nil {
		rb.raw("null")
		return
	}
	rb.raw("[")
	for i, s := range ss {
		rb.comma(i)
		rb.str("", s)
	}
	rb.raw("]")
}

// int appends a JSON integer.
func (rb *respBuf) int(pre string, n int) {
	rb.raw(pre)
	rb.b = strconv.AppendInt(rb.b, int64(n), 10)
}

// bool appends true or false.
func (rb *respBuf) bool(pre string, v bool) {
	rb.raw(pre)
	rb.b = strconv.AppendBool(rb.b, v)
}

// float appends a JSON number, noting a value JSON cannot carry.
func (rb *respBuf) float(pre string, f float64) {
	rb.raw(pre)
	var ok bool
	rb.b, ok = appendJSONFloat(rb.b, f)
	rb.nonFinite = rb.nonFinite || !ok
}

// writeJSONError writes the uniform error envelope {"error": msg}. A
// 503 is load shedding, not failure: Retry-After asks the client to
// back off briefly and retry.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header()["Retry-After"] = retryAfter
	}
	rb := getResp()
	rb.str(`{"error":`, msg)
	rb.raw("}\n")
	rb.send(w, status)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal the way
// encoding/json writes it with HTML escaping on: <, > and & become
// \u003c, \u003e and \u0026, other control bytes use their short or
// \u00XX forms, invalid UTF-8 becomes \ufffd, and U+2028/U+2029 are
// escaped.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode at most one rune's worth of bytes, so converting a
		// []byte source stays on the stack.
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite float64 the way encoding/json does:
// the shortest round-tripping decimal, in exponent form only below
// 1e-6 or from 1e21 up, with the exponent unpadded (1e-7, not 1e-07).
// It reports false for NaN and ±Inf, which JSON cannot represent.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
