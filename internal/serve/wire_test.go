package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/frontend"
	"repro/internal/rng"
)

// tinyRequests are real request shapes: for each of a few pooled test
// utterances of the tiny corpus, one request carrying its six
// supervectors as the front-ends extract them and one carrying its six
// decoded confusion networks.
var tinyRequests = sync.OnceValue(func() []ScoreRequest {
	const seed = 3
	items := corpus.Build(experiments.CorpusConfig(experiments.ScaleTiny, seed)).AllTest().Items
	fes := frontend.StandardSix(seed)
	var reqs []ScoreRequest
	for j := 0; j < 4; j++ {
		sv := ScoreRequest{ID: fmt.Sprintf("sv%d", j), FrontEnds: map[string]FrontEndInput{}}
		lat := ScoreRequest{ID: fmt.Sprintf("lat%d", j), FrontEnds: map[string]FrontEndInput{}}
		for _, fe := range fes {
			l := fe.Decode(rng.New(seed).SplitString("extract:"+fe.Name).Split(uint64(items[j].ID)), items[j].U)
			v := fe.Space.Supervector(l)
			sv.FrontEnds[fe.Name] = FrontEndInput{Supervector: &Supervector{Idx: v.Idx, Val: v.Val, Scaled: true}}
			slots := make([][]Slot, l.NumNodes-1)
			for _, e := range l.Edges {
				slots[e.From] = append(slots[e.From], Slot{Phone: e.Phone, Prob: math.Exp(e.LogScore)})
			}
			lat.FrontEnds[fe.Name] = FrontEndInput{Lattice: slots}
		}
		reqs = append(reqs, sv, lat)
	}
	return reqs
})

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCanonicalDecodeOfRealBodies: json.Marshal'd request bodies take
// the single-pass path and decode to exactly what encoding/json gives.
func TestCanonicalDecodeOfRealBodies(t *testing.T) {
	reqs := tinyRequests()
	check := func(name string, body []byte, got, want any) {
		t.Helper()
		if !decodeCanonical(body, got) {
			t.Fatalf("%s: canonical body fell back to encoding/json", name)
		}
		if err := json.Unmarshal(body, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded request differs from encoding/json's", name)
		}
	}
	for _, req := range reqs {
		body := mustMarshal(t, req)
		check(req.ID, body, &ScoreRequest{}, &ScoreRequest{})
		// Indented bodies (curl, hand-written clients) are canonical too.
		var ind bytes.Buffer
		if err := json.Indent(&ind, body, "", "  "); err != nil {
			t.Fatal(err)
		}
		check(req.ID+" indented", ind.Bytes(), &ScoreRequest{}, &ScoreRequest{})
	}
	check("batch", mustMarshal(t, BatchRequest{Utterances: reqs}), &BatchRequest{}, &BatchRequest{})
}

// TestAppendRequestMatchesMarshal: the shard RPC encoder writes exactly
// json.Marshal's bytes.
func TestAppendRequestMatchesMarshal(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 999999.999, 1e20, 1e21, -1e21, 123456789e13,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-320, math.MaxFloat64, -math.MaxFloat64,
		0.1, 1.0 / 3, 1e-300, 12345678.9,
	}
	reqs := append([]ScoreRequest(nil), tinyRequests()...)
	reqs = append(reqs,
		ScoreRequest{},
		ScoreRequest{ID: `quote " back \ html <&> tab	ünï`, FrontEnds: map[string]FrontEndInput{}},
		ScoreRequest{FrontEnds: map[string]FrontEndInput{
			"b": {Supervector: &Supervector{Idx: []int32{math.MinInt32, -1, 0, math.MaxInt32}, Val: edges}},
			"a": {Supervector: &Supervector{Val: []float64{}}, Lattice: [][]Slot{nil, {}, {{Phone: -3, Prob: 1e-9}}}},
			"c": {Lattice: [][]Slot{}},
			"d": {},
			"é": {Supervector: &Supervector{Scaled: true}},
		}},
	)
	for i := range reqs {
		got, err := MarshalScoreRequest(&reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := mustMarshal(t, &reqs[i]); !bytes.Equal(got, want) {
			t.Fatalf("request %d:\n got %s\nwant %s", i, got, want)
		}
	}
	for _, b := range []BatchRequest{{}, {Utterances: []ScoreRequest{}}, {Utterances: reqs}} {
		got, err := MarshalBatchRequest(&b)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustMarshal(t, &b); !bytes.Equal(got, want) {
			t.Fatalf("batch:\n got %s\nwant %s", got, want)
		}
	}
	// json.Marshal's error for an unencodable value, unchanged.
	bad := ScoreRequest{FrontEnds: map[string]FrontEndInput{"x": {Lattice: [][]Slot{{{Prob: math.NaN()}}}}}}
	_, want := json.Marshal(&bad)
	if _, err := MarshalScoreRequest(&bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("NaN: error %v, want %v", err, want)
	}
}

func decodeHTTP(t *testing.T, body string, v any) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body))
	rec := httptest.NewRecorder()
	if !DecodeBody(rec, r, 1<<20, v) {
		t.Fatalf("decode %s: %s", body, rec.Body.String())
	}
}

// TestDecodeBodyContract: an absent idx stays nil while [] is an empty
// non-nil slice, and nothing decoded aliases the body bytes.
func TestDecodeBodyContract(t *testing.T) {
	var req ScoreRequest
	decodeHTTP(t, `{"id":"first","frontends":{"A":{"supervector":{"val":[]}},"B":{"supervector":{"idx":[],"val":[1]}}}}`, &req)
	if a := req.FrontEnds["A"].Supervector; a.Idx != nil || a.Val == nil || len(a.Val) != 0 {
		t.Fatalf("absent idx / empty val: %#v", a)
	}
	if b := req.FrontEnds["B"].Supervector; b.Idx == nil || len(b.Idx) != 0 {
		t.Fatalf("empty idx: %#v", b)
	}

	for _, want := range tinyRequests()[:2] {
		body := mustMarshal(t, want)
		var got ScoreRequest
		if err := decodeWire(body, &got); err != nil {
			t.Fatal(err)
		}
		for i := range body {
			body[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded request changed with its body bytes", want.ID)
		}
	}
}

// TestDecodeAllocs gates the decoder's allocations on a bench-shaped
// body (six front-ends of scaled supervectors, ~1.4k nnz each): a small
// constant per front-end, plus the exact-size idx/val slices — nothing
// proportional to nnz.
func TestDecodeAllocs(t *testing.T) {
	const nFE, nnz = 6, 1400
	r := rng.New(9)
	req := ScoreRequest{ID: "u0001", FrontEnds: map[string]FrontEndInput{}}
	for q := 0; q < nFE; q++ {
		sv := &Supervector{Scaled: true}
		for k := 0; k < nnz; k++ {
			sv.Idx = append(sv.Idx, int32(k*7+r.Intn(7)))
			sv.Val = append(sv.Val, r.Norm()*1e-3)
		}
		req.FrontEnds[fmt.Sprintf("FE-%d", q)] = FrontEndInput{Supervector: sv}
	}
	body := mustMarshal(t, req)
	var got ScoreRequest
	allocs := testing.AllocsPerRun(20, func() {
		got = ScoreRequest{}
		if err := decodeWire(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations decoding one %d-byte body", allocs, len(body))
	// Per front-end: its name, Supervector, idx and val; plus the id and
	// up to four for the map as it grows.
	if limit := float64(1 + 4 + 4*nFE); allocs > limit {
		t.Fatalf("%.0f allocations decoding one %d-byte body, want <= %.0f", allocs, len(body), limit)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatal("bench-shaped body decoded wrong")
	}
}

// FuzzDecodeScoreRequest: on any body, the wire decoder and
// encoding/json agree on accept/reject and error text, and accepted
// bodies decode to deeply equal requests. batch switches the target
// between ScoreRequest and BatchRequest.
func FuzzDecodeScoreRequest(f *testing.F) {
	// Real bodies cut to a few entries per front-end: large seeds make
	// each mutation and minimization slow.
	for _, req := range tinyRequests()[:4] {
		small := ScoreRequest{ID: req.ID, FrontEnds: map[string]FrontEndInput{}}
		for name, in := range req.FrontEnds {
			if sv := in.Supervector; sv != nil {
				in.Supervector = &Supervector{Idx: sv.Idx[:3], Val: sv.Val[:3], Scaled: sv.Scaled}
			}
			if len(in.Lattice) > 3 {
				in.Lattice = in.Lattice[:3]
			}
			small.FrontEnds[name] = in
		}
		f.Add(false, mustMarshal(f, small))
		f.Add(true, mustMarshal(f, BatchRequest{Utterances: []ScoreRequest{small, small}}))
	}
	for _, s := range []string{
		``, ` `, `{}`, `null`, `[]`, `{"frontends":null}`, `{"frontends":{}}`,
		`{"id":"a\u0041","frontends":{}}`, `{"id":"\u00e9"}`, `{"id":"é"}`, `{"ID":"x"}`, `{"Frontends":{}}`,
		`{"id":"a","id":"b"}`, `{"extra":1,"frontends":{}}`,
		`{"frontends":{"A":{"supervector":{"idx":[+1],"val":[1]}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[1],"val":[.5]}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[01],"val":[1]}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[2147483648],"val":[1e400]}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[-2147483648],"val":[-0,1E+2,1e-2]}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[1.0],"val":[1]}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":null,"val":[1],"scaled":null}}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[1],"idx":[2]}}}}`,
		`{"frontends":{"A":{"supervector":{}},"A":{"lattice":[[{"phone":1,"prob":1}]]}}}`,
		`{"frontends":{"A":{"lattice":[[{"phone":1,"prob":0.5},{"phone":2,"prob":0.5}],[]]}}}`,
		`{"frontends":{"A":{"lattice":[null,[{"phone":9223372036854775808,"prob":1}]]}}}`,
		`{"frontends":{"A":{"supervector":{"idx":[1],"val":[1]}}}} trailing`,
		`{"frontends":{"A":{"supervector":{"idx":[1],"val":[1]}}}}}`,
		"{\"frontends\":{\"A\":{\"supervector\":{\"idx\":[1],\"val\":[1]}}}",
		` { "frontends" : { "A" : { "supervector" : { "idx" : [ 1 , 2 ] , "val" : [ 1 , 2 ] , "scaled" : true } } } } `,
	} {
		f.Add(false, []byte(s))
	}
	f.Add(true, []byte(`{"utterances":[]}`))
	f.Add(true, []byte(`{"utterances":[{"id":"a"},{"id":"b","frontends":{}}],"utterances":[]}`))
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		var got, want any = &ScoreRequest{}, &ScoreRequest{}
		if batch {
			got, want = &BatchRequest{}, &BatchRequest{}
		}
		gotErr := decodeWire(body, got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("on %q: wire decoder error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("wire decoder and encoding/json disagree on %q:\n got %#v\nwant %#v", body, got, want)
		}
	})
}
