package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"tugal/internal/route"
)

// Limits of one POST /lookup. maxPairs pairs of ten-digit ids are
// ≈1.5 MiB, so on a well-formed body the pair cap binds first.
const (
	maxPairs     = 1 << 16
	maxBodyBytes = 2 << 20
)

// errTooManyPairs is parsePairs' one error that is a 413, not a 400.
var errTooManyPairs = fmt.Errorf("more than %d pairs in one request", maxPairs)

// parsePairs parses a POST /lookup body, which must be exactly
//
//	{"pairs":[[a,b],[a,b],…]}
//
// with JSON whitespace allowed between tokens, a and b JSON integers
// inside int32, and only whitespace after the closing brace. It returns
// the a's in src and the b's in dst, reusing their capacity; it allocates
// only to grow them, never past maxPairs elements.
func parsePairs(body []byte, src, dst []int32) ([]int32, []int32, error) {
	p := parser{b: body}
	src, dst = src[:0], dst[:0]
	p.eat(`{`)
	p.eat(`"pairs"`)
	p.eat(`:`)
	p.eat(`[`)
	// One pair an iteration; a comma after it promises another.
	for more := p.space() != ']'; more && p.err == nil; more = p.space() == ',' {
		if len(src) > 0 {
			p.i++ // the comma
		}
		if len(src) == maxPairs {
			return src, dst, errTooManyPairs
		}
		p.eat(`[`)
		a := p.int32()
		p.eat(`,`)
		b := p.int32()
		p.eat(`]`)
		src, dst = append(src, a), append(dst, b)
	}
	p.eat(`]`)
	p.eat(`}`)
	if p.space(); p.i < len(p.b) {
		p.fail("trailing bytes")
	}
	return src, dst, p.err
}

// parser is a cursor over a request body. The first failure sticks and
// moves the cursor to the end, where nothing more matches, so a grammar
// reads top to bottom and checks err once.
type parser struct {
	b   []byte
	i   int
	err error
}

func (p *parser) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("lookup body: %s at byte %d", what, p.i)
		p.i = len(p.b)
	}
}

// space skips JSON whitespace and returns the byte it stops at, 0 at
// the end of the body.
func (p *parser) space() byte {
	for ; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat consumes the token s, which must come next.
func (p *parser) eat(s string) {
	if p.space(); bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		p.i += len(s)
	} else {
		p.fail("want " + s)
	}
}

// int32 consumes a JSON integer: an optional minus, then 0 or digits
// without a leading zero. It stops reading past int32, and at a fraction
// or an exponent; what it leaves fails the token that follows.
func (p *parser) int32() int32 {
	p.space()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start, v := p.i, int64(0)
	for ; p.i < len(p.b) && p.b[p.i]-'0' <= 9 && v <= math.MaxInt32; p.i++ {
		v = v*10 + int64(p.b[p.i]-'0')
	}
	if neg {
		v = -v
	}
	if p.i == start || p.b[start] == '0' && p.i > start+1 || v < math.MinInt32 || v > math.MaxInt32 {
		p.fail("want a JSON integer inside int32")
	}
	return int32(v)
}

// appendDecisions appends the /lookup reply for ds to b: a JSON array
// with one object per decision, keys in the order port, vc, hops, min,
// refused, word, "refused" present only when true — byte for byte what
// encoding/json makes of the same fields, less its indentation.
func appendDecisions(b []byte, ds []route.Decision) []byte {
	b = append(b, '[')
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"port":`...)
		b = strconv.AppendInt(b, int64(d.Port), 10)
		b = append(b, `,"vc":`...)
		b = strconv.AppendInt(b, int64(d.VC), 10)
		b = append(b, `,"hops":`...)
		b = strconv.AppendUint(b, uint64(d.Hops), 10)
		b = append(b, `,"min":`...)
		b = strconv.AppendBool(b, d.Min)
		if d.Refused {
			b = append(b, `,"refused":true`...)
		}
		b = append(b, `,"word":`...)
		b = strconv.AppendUint(b, d.Word, 10)
		b = append(b, '}')
	}
	return append(b, "]\n"...)
}
