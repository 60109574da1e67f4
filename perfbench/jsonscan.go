package main

import (
	"errors"
	"fmt"
	"strconv"
)

// jscan is a minimal JSON reader for sfcpd's responses. A /solve answer
// carries up to 2^20 labels and a batch answer 64 label arrays, and
// encoding/json spends more CPU on them than the load generator can spare
// on a 2-core host that also runs the server, so the benchmark walks the
// bytes itself: numbers and number arrays are read in place, everything
// it does not ask for is skipped.
type jscan struct {
	b   []byte
	i   int
	err error
}

var errJSON = errors.New("malformed JSON")

func (s *jscan) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("%w at byte %d: %s", errJSON, s.i, what)
	}
	s.i = len(s.b)
}

func (s *jscan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\r', '\t':
			s.i++
		default:
			return
		}
	}
}

func (s *jscan) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

func (s *jscan) expect(c byte) {
	if s.peek() != c {
		s.fail("want " + string(c))
		return
	}
	s.i++
}

// str reads a string and returns its raw bytes (escapes left as they
// are; keys and the digests the benchmark reads never contain any).
func (s *jscan) str() []byte {
	s.expect('"')
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
			continue
		case '"':
			s.i++
			return s.b[start : s.i-1]
		}
		s.i++
	}
	s.fail("unterminated string")
	return nil
}

// num reads a number.
func (s *jscan) num() float64 {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			s.i++
			continue
		}
		break
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.fail("bad number")
	}
	return v
}

// boolean reads true or false.
func (s *jscan) boolean() bool {
	s.ws()
	switch {
	case hasPrefixAt(s.b, s.i, "true"):
		s.i += 4
		return true
	case hasPrefixAt(s.b, s.i, "false"):
		s.i += 5
		return false
	}
	s.fail("want boolean")
	return false
}

// ints reads an array of non-negative integers, appending to dst[:0].
func (s *jscan) ints(dst []int32) []int32 {
	dst = dst[:0]
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		return dst
	}
	for s.err == nil {
		s.ws()
		v, start := int32(0), s.i
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			v = v*10 + int32(s.b[s.i]-'0')
			s.i++
		}
		if s.i == start {
			s.fail("want non-negative integer")
			break
		}
		dst = append(dst, v)
		if s.i < len(s.b) && s.b[s.i] == ',' { // encoding/json writes no spaces
			s.i++
			continue
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return dst
		default:
			s.fail("want , or ]")
		}
	}
	return dst
}

// skip reads and discards any value.
func (s *jscan) skip() {
	switch c := s.peek(); {
	case c == '"':
		s.str()
	case c == '{':
		s.object(func([]byte) { s.skip() })
	case c == '[':
		s.array(s.skip)
	case c == 't' || c == 'f':
		s.boolean()
	case c == 'n':
		if !hasPrefixAt(s.b, s.i, "null") {
			s.fail("want null")
		}
		s.i += 4
	default:
		s.num()
	}
}

// object reads an object, calling field with each key; field must read
// (or skip) the value.
func (s *jscan) object(field func(key []byte)) {
	s.expect('{')
	if s.peek() == '}' {
		s.i++
		return
	}
	for s.err == nil {
		key := s.str()
		s.expect(':')
		field(key)
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return
		default:
			s.fail("want , or }")
		}
	}
}

// array reads an array, calling elem for each element.
func (s *jscan) array(elem func()) {
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		return
	}
	for s.err == nil {
		elem()
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return
		default:
			s.fail("want , or ]")
		}
	}
}

func hasPrefixAt(b []byte, i int, p string) bool {
	return len(b)-i >= len(p) && string(b[i:i+len(p)]) == p
}

// answer is the part of one sfcpd solve, batch member or delta reply the
// benchmark checks and measures.
type answer struct {
	labels     []int32
	numClasses int
	cached     bool
	planMS     float64
	solveMS    float64
	elapsedMS  float64
	resolveMS  float64
	dirtyNodes int
	digest     string
	errMsg     string
}

// field reads one key of a solve or delta reply into a.
func (a *answer) field(s *jscan, key []byte) {
	switch string(key) {
	case "labels":
		a.labels = s.ints(a.labels)
	case "num_classes":
		a.numClasses = int(s.num())
	case "cached":
		a.cached = s.boolean()
	case "plan_ms":
		a.planMS = s.num()
	case "solve_ms":
		a.solveMS = s.num()
	case "elapsed_ms":
		a.elapsedMS = s.num()
	case "resolve_ms":
		a.resolveMS = s.num()
	case "digest":
		a.digest = string(s.str())
	case "error":
		a.errMsg = string(s.str())
	case "resolve":
		s.object(func(k []byte) {
			if string(k) == "dirty_nodes" {
				a.dirtyNodes = int(s.num())
			} else {
				s.skip()
			}
		})
	default:
		s.skip()
	}
}

// parseAnswer reads a /solve or delta reply into a, reusing its label
// buffer.
func parseAnswer(body []byte, a *answer) error {
	labels := a.labels[:0]
	*a = answer{labels: labels}
	s := &jscan{b: body}
	s.object(func(k []byte) { a.field(s, k) })
	return s.err
}

// parseBatch reads a /solve/batch reply into as (grown as needed, label
// buffers reused) and returns the members read.
func parseBatch(body []byte, as []answer) ([]answer, error) {
	s := &jscan{b: body}
	n := 0
	s.object(func(k []byte) {
		if string(k) != "results" {
			s.skip()
			return
		}
		s.array(func() {
			if n == len(as) {
				as = append(as, answer{})
			}
			a := &as[n]
			*a = answer{labels: a.labels[:0]}
			s.object(func(k []byte) { a.field(s, k) })
			n++
		})
	})
	return as[:n], s.err
}
