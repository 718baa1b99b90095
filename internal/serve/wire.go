package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// Wire codec for the scoring request bodies. Requests are JSON only:
// the benchmark and every client speak it, and a second encoding would
// be a second contract to keep identical.
//
// Decoding is one pass over the body for the canonical form json.Marshal
// (and every real client) writes: escape-free ASCII strings, the known
// keys each at most once, no nulls, JSON-grammar numbers. Anything
// outside that form is handed to encoding/json on the same bytes, so
// accept/reject behaviour and error text are encoding/json's by
// construction. FuzzDecodeScoreRequest holds the two to that.

// maxBuf bounds a body buffer sized on a client's stated Content-Length
// alone, and one kept in encodePool.
const maxBuf = 4 << 20

// DecodeBody reads r's body, bounded by limit bytes, into v (a
// *ScoreRequest or *BatchRequest holding its zero value; any other
// target goes straight to encoding/json). On failure it writes the
// 400 "bad request body: …" response and returns false. Decoded slices
// and strings never alias the body bytes.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := decodeRequestBody(w, r, limit, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func decodeRequestBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	// One exact-size read when the client states its length (+1 leaves
	// room for the read that sees EOF). The buffer is not pooled: a pool
	// keeps its largest bodies live between requests, which measured as
	// a higher peak RSS than one short-lived allocation per request.
	body, err := readAll(r.Body, make([]byte, 0, min(r.ContentLength, limit, maxBuf)+1))
	if err != nil {
		// A streaming decoder stops at the end of the first value, so a
		// read error past it (an oversized tail, a dropped connection)
		// must not fail the request: let encoding/json stream the bytes
		// read so far and then meet the error where it would have.
		return json.NewDecoder(io.MultiReader(bytes.NewReader(body), r.Body)).Decode(v)
	}
	return decodeWire(body, v)
}

// readAll is io.ReadAll into buf's spare capacity.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeWire decodes one complete body into v, which must hold its zero
// value.
func decodeWire(body []byte, v any) error {
	if decodeCanonical(body, v) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// decodeCanonical decodes a canonical body into v and reports whether it
// did; on false v is untouched. Bytes after the top-level value are
// ignored, as encoding/json's streaming Decode ignores them.
func decodeCanonical(body []byte, v any) bool {
	d := wireDecoder{b: body}
	switch v := v.(type) {
	case *ScoreRequest:
		var req ScoreRequest
		if !d.scoreRequest(&req) {
			return false
		}
		*v = req
	case *BatchRequest:
		var req BatchRequest
		if !d.batchRequest(&req) {
			return false
		}
		*v = req
	default:
		return false
	}
	return true
}

// wireDecoder is a cursor over a body. Every method returns false on
// the first byte outside the canonical grammar.
type wireDecoder struct {
	b []byte
	i int
}

func (d *wireDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *wireDecoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// rawString returns the contents of the next string, which must be
// printable ASCII without escapes. The result aliases the body.
func (d *wireDecoder) rawString() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// object walks the members of an object, calling member with each key
// once the cursor sits on the member's value.
func (d *wireDecoder) object(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		k, ok := d.rawString()
		if !ok || !d.consume(':') || !member(k) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// fields tracks which struct keys an object has set: a repeated key
// would merge into the earlier value under encoding/json, which the
// canonical form leaves to it.
type fields uint8

func (f *fields) first(bit fields) bool {
	if *f&bit != 0 {
		return false
	}
	*f |= bit
	return true
}

// array walks an array of exactly n elements (its '[' already
// consumed), calling elem once per element.
func (d *wireDecoder) array(n int, elem func(k int) bool) bool {
	for k := 0; k < n; k++ {
		if k > 0 && !d.consume(',') || !elem(k) {
			return false
		}
	}
	return d.consume(']')
}

// scalarCount consumes '[' and counts the elements of an array of
// numbers: its commas up to the first ']', plus one unless it is empty.
// A wrong count (the array held something else) fails in array.
func (d *wireDecoder) scalarCount() (int, bool) {
	if !d.consume('[') {
		return 0, false
	}
	d.ws()
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return 0, false
	}
	if end == 0 {
		return 0, true
	}
	return bytes.Count(d.b[d.i:d.i+end], []byte{','}) + 1, true
}

// nestedCount consumes '[' and counts the elements of an array of
// arrays or objects (open is '[' or '{'): the opening brackets at its
// own depth up to its closing ']'.
func (d *wireDecoder) nestedCount(open byte) (int, bool) {
	if !d.consume('[') {
		return 0, false
	}
	depth, n := 0, 0
	for j := d.i; j < len(d.b); j++ {
		switch d.b[j] {
		case '[', '{':
			if depth == 0 && d.b[j] == open {
				n++
			}
			depth++
		case ']', '}':
			if depth == 0 {
				return n, true
			}
			depth--
		case '"':
			k := bytes.IndexByte(d.b[j+1:], '"')
			if k < 0 {
				return 0, false
			}
			j += k + 1
		}
	}
	return 0, false
}

// number returns the next JSON number literal, checked against the JSON
// number grammar.
func (d *wireDecoder) number() ([]byte, bool) {
	d.ws()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[d.i:i]
	d.i = i
	return lit, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *wireDecoder) float() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// integer parses an integer literal within [lo, hi]; fractions,
// exponents and anything past 18 digits are left to encoding/json.
func (d *wireDecoder) integer(lo, hi int64) (int64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, lo <= n && n <= hi
}

func (d *wireDecoder) boolean() (bool, bool) {
	d.ws()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

func (d *wireDecoder) batchRequest(req *BatchRequest) bool {
	var seen fields
	return d.object(func(k []byte) bool {
		if string(k) != "utterances" || !seen.first(1) {
			return false
		}
		n, ok := d.nestedCount('{')
		if !ok {
			return false
		}
		req.Utterances = make([]ScoreRequest, n)
		return d.array(n, func(k int) bool { return d.scoreRequest(&req.Utterances[k]) })
	})
}

func (d *wireDecoder) scoreRequest(req *ScoreRequest) bool {
	var seen fields
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "id":
			if !seen.first(1) {
				return false
			}
			id, ok := d.rawString()
			req.ID = string(id)
			return ok
		case "frontends":
			return seen.first(2) && d.frontEnds(req)
		}
		return false
	})
}

// frontEnds decodes the front-end map. A repeated name replaces the
// earlier entry outright, as encoding/json does for map values.
func (d *wireDecoder) frontEnds(req *ScoreRequest) bool {
	req.FrontEnds = make(map[string]FrontEndInput)
	return d.object(func(k []byte) bool {
		var in FrontEndInput
		if !d.frontEndInput(&in) {
			return false
		}
		req.FrontEnds[string(k)] = in
		return true
	})
}

func (d *wireDecoder) frontEndInput(in *FrontEndInput) bool {
	var seen fields
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "supervector":
			if !seen.first(1) {
				return false
			}
			in.Supervector = new(Supervector)
			return d.supervector(in.Supervector)
		case "lattice":
			return seen.first(2) && d.lattice(in)
		}
		return false
	})
}

func (d *wireDecoder) supervector(sv *Supervector) bool {
	var seen fields
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "idx":
			if !seen.first(1) {
				return false
			}
			n, ok := d.scalarCount()
			if !ok {
				return false
			}
			sv.Idx = make([]int32, n)
			return d.array(n, func(k int) bool {
				x, ok := d.integer(math.MinInt32, math.MaxInt32)
				sv.Idx[k] = int32(x)
				return ok
			})
		case "val":
			if !seen.first(2) {
				return false
			}
			n, ok := d.scalarCount()
			if !ok {
				return false
			}
			sv.Val = make([]float64, n)
			return d.array(n, func(k int) bool {
				var ok bool
				sv.Val[k], ok = d.float()
				return ok
			})
		case "scaled":
			if !seen.first(4) {
				return false
			}
			var ok bool
			sv.Scaled, ok = d.boolean()
			return ok
		}
		return false
	})
}

func (d *wireDecoder) lattice(in *FrontEndInput) bool {
	n, ok := d.nestedCount('[')
	if !ok {
		return false
	}
	in.Lattice = make([][]Slot, n)
	return d.array(n, func(k int) bool {
		m, ok := d.nestedCount('{')
		if !ok {
			return false
		}
		slots := make([]Slot, m)
		in.Lattice[k] = slots
		return d.array(m, func(k int) bool { return d.slot(&slots[k]) })
	})
}

func (d *wireDecoder) slot(s *Slot) bool {
	var seen fields
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "phone":
			if !seen.first(1) {
				return false
			}
			x, ok := d.integer(math.MinInt, math.MaxInt)
			s.Phone = int(x)
			return ok
		case "prob":
			if !seen.first(2) {
				return false
			}
			var ok bool
			s.Prob, ok = d.float()
			return ok
		}
		return false
	})
}

// MarshalScoreRequest is json.Marshal(r), byte for byte, without
// reflection: the shard RPC body encoder.
func MarshalScoreRequest(r *ScoreRequest) ([]byte, error) {
	return marshalWire(r, func(dst []byte) ([]byte, bool) { return appendScoreRequest(dst, r) })
}

// MarshalBatchRequest is json.Marshal(r) for a batch body.
func MarshalBatchRequest(r *BatchRequest) ([]byte, error) {
	return marshalWire(r, func(dst []byte) ([]byte, bool) { return appendBatchRequest(dst, r) })
}

// encodePool recycles encode buffers, as json.Marshal pools its own.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// marshalWire encodes into a pooled buffer and returns an exact-size
// copy, as json.Marshal does: the body outlives the call (the transport
// may still be sending it), so the buffer itself cannot be handed out.
// A value the appender rejects goes to json.Marshal for its error.
func marshalWire(v any, appendTo func([]byte) ([]byte, bool)) ([]byte, error) {
	bp := encodePool.Get().(*[]byte)
	buf, ok := appendTo((*bp)[:0])
	if !ok {
		return json.Marshal(v)
	}
	out := append([]byte(nil), buf...)
	if cap(buf) <= maxBuf {
		*bp = buf[:0]
		encodePool.Put(bp)
	}
	return out, nil
}

func appendBatchRequest(dst []byte, r *BatchRequest) ([]byte, bool) {
	if r.Utterances == nil {
		return append(dst, `{"utterances":null}`...), true
	}
	dst = append(dst, `{"utterances":[`...)
	for i := range r.Utterances {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendScoreRequest(dst, &r.Utterances[i]); !ok {
			return nil, false
		}
	}
	return append(dst, "]}"...), true
}

// appendScoreRequest reports false on a value json.Marshal rejects (a
// non-finite float), leaving the error to it.
func appendScoreRequest(dst []byte, r *ScoreRequest) ([]byte, bool) {
	dst = append(dst, '{')
	if r.ID != "" {
		dst = append(dst, `"id":`...)
		dst = appendString(dst, r.ID)
		dst = append(dst, ',')
	}
	dst = append(dst, `"frontends":`...)
	if r.FrontEnds == nil {
		return append(dst, "null}"...), true
	}
	names := make([]string, 0, len(r.FrontEnds))
	for name := range r.FrontEnds {
		names = append(names, name)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, name)
		dst = append(dst, ':')
		var ok bool
		if dst, ok = appendFrontEndInput(dst, r.FrontEnds[name]); !ok {
			return nil, false
		}
	}
	return append(dst, "}}"...), true
}

func appendFrontEndInput(dst []byte, in FrontEndInput) ([]byte, bool) {
	dst = append(dst, '{')
	if sv := in.Supervector; sv != nil {
		dst = append(dst, `"supervector":{"idx":`...)
		if sv.Idx == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i, x := range sv.Idx {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(x), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"val":`...)
		if sv.Val == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i, x := range sv.Val {
				if i > 0 {
					dst = append(dst, ',')
				}
				var ok bool
				if dst, ok = appendFloat(dst, x); !ok {
					return nil, false
				}
			}
			dst = append(dst, ']')
		}
		if sv.Scaled {
			dst = append(dst, `,"scaled":true`...)
		}
		dst = append(dst, '}')
		if len(in.Lattice) > 0 {
			dst = append(dst, ',')
		}
	}
	if len(in.Lattice) > 0 {
		dst = append(dst, `"lattice":[`...)
		for i, slots := range in.Lattice {
			if i > 0 {
				dst = append(dst, ',')
			}
			if slots == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, s := range slots {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"phone":`...)
				dst = strconv.AppendInt(dst, int64(s.Phone), 10)
				dst = append(dst, `,"prob":`...)
				var ok bool
				if dst, ok = appendFloat(dst, s.Prob); !ok {
					return nil, false
				}
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

// appendFloat formats f as encoding/json does (ES6 number-to-string:
// %f between 1e-6 and 1e21, otherwise %e with a bare exponent).
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendString writes a string json.Marshal would write verbatim
// (printable ASCII, nothing it escapes) directly, and hands anything
// else to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
