package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// The request-body contract both scoring fronts (the standalone server,
// which fleet workers embed, and the coordinator) keep: error text,
// size limit, trailing data, and duplicate keys all behave exactly as
// encoding/json's streaming decoder defines them.

const contractMaxBody = 4096

// contractFronts returns a distributed two-worker fleet and the two
// handlers under test, both bounded at contractMaxBody.
func contractFronts(t *testing.T) (*fleet, map[string]http.Handler) {
	t.Helper()
	f := newFleet(t, 2, func(c *CoordinatorConfig) { c.MaxBodyBytes = contractMaxBody })
	mustDistribute(t, f)
	s, err := serve.New(serve.Config{ModelDir: f.dir, BatchWait: time.Millisecond, MaxBodyBytes: contractMaxBody})
	if err != nil {
		t.Fatal(err)
	}
	return f, map[string]http.Handler{"standalone": s.Handler(), "coordinator": f.coord.Handler()}
}

func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func errorText(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	return e.Error
}

// referenceError is encoding/json's verdict on a body.
func referenceError(body []byte, v any) string {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return err.Error()
	}
	return ""
}

func TestRequestBodyContract(t *testing.T) {
	f, fronts := contractFronts(t)
	fe0 := f.bundle.FrontEnds[0].Name
	valid := `{"id":"u1","frontends":{"` + fe0 + `":{"supervector":{"idx":[0,3],"val":[1,0.5]}}}}`

	rejects := []struct {
		name, path, body string
	}{
		{"malformed", "/v1/score", `{not json`},
		{"empty", "/v1/score", ``},
		{"truncated", "/v1/score", valid[:len(valid)/2]},
		{"wrong type", "/v1/score", `{"frontends":{"` + fe0 + `":{"supervector":{"idx":["0"],"val":[1]}}}}`},
		{"int32 overflow", "/v1/score", `{"frontends":{"` + fe0 + `":{"supervector":{"idx":[2147483648],"val":[1]}}}}`},
		{"float overflow", "/v1/score", `{"frontends":{"` + fe0 + `":{"supervector":{"idx":[0],"val":[1e999]}}}}`},
		{"leading zero", "/v1/score", `{"frontends":{"` + fe0 + `":{"supervector":{"idx":[01],"val":[1]}}}}`},
		{"batch malformed", "/v1/score/batch", `{"utterances":[{"frontends":}]}`},
		{"batch wrong type", "/v1/score/batch", `{"utterances":{}}`},
	}
	for front, h := range fronts {
		for _, tc := range rejects {
			var ref any = &serve.ScoreRequest{}
			if strings.HasSuffix(tc.path, "batch") {
				ref = &serve.BatchRequest{}
			}
			want := "bad request body: " + referenceError([]byte(tc.body), ref)
			rec := postRaw(h, tc.path, []byte(tc.body))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400: %s", front, tc.name, rec.Code, rec.Body.String())
			}
			if got := errorText(t, rec); got != want {
				t.Fatalf("%s %s: error %q, want %q", front, tc.name, got, want)
			}
		}

		// Over the limit before the value ends: the size error.
		big := `{"id":"` + strings.Repeat("x", 2*contractMaxBody) + `"}`
		rec := postRaw(h, "/v1/score", []byte(big))
		if got := errorText(t, rec); rec.Code != http.StatusBadRequest || got != "bad request body: http: request body too large" {
			t.Fatalf("%s oversize: status %d error %q", front, rec.Code, got)
		}

		// Trailing data after the value is never read, even past the limit.
		wantOK := postRaw(h, "/v1/score", []byte(valid))
		if wantOK.Code != http.StatusOK {
			t.Fatalf("%s valid: status %d: %s", front, wantOK.Code, wantOK.Body.String())
		}
		for _, tail := range []string{" garbage", "}{", "\n" + strings.Repeat("z", 2*contractMaxBody)} {
			rec := postRaw(h, "/v1/score", []byte(valid+tail))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s trailing %.10q: status %d: %s", front, tail, rec.Code, rec.Body.String())
			}
			if !sameScoring(t, rec, wantOK) {
				t.Fatalf("%s trailing %.10q: scores differ from the bare body", front, tail)
			}
		}

		// A duplicate front-end key: the last occurrence wins outright.
		dup := `{"id":"u1","frontends":{"` + fe0 + `":{"lattice":[[{"phone":99,"prob":1}]]},"` + fe0 + `":{"supervector":{"idx":[0,3],"val":[1,0.5]}}}}`
		rec = postRaw(h, "/v1/score", []byte(dup))
		if rec.Code != http.StatusOK || !sameScoring(t, rec, wantOK) {
			t.Fatalf("%s duplicate key: status %d: %s", front, rec.Code, rec.Body.String())
		}
	}
}

// sameScoring compares two score responses' results (trace ids differ).
func sameScoring(t *testing.T, a, b *httptest.ResponseRecorder) bool {
	t.Helper()
	var ra, rb serve.ScoreResponse
	if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(ra.ScoreResult, rb.ScoreResult)
}

// tapShardBodies records every shard RPC body the coordinator sends.
func tapShardBodies(f *fleet) func() [][]byte {
	var mu sync.Mutex
	var bodies [][]byte
	f.net.mu.Lock()
	defer f.net.mu.Unlock()
	f.net.tap = func(r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			return
		}
		data, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(data))
		mu.Lock()
		bodies = append(bodies, data)
		mu.Unlock()
	}
	return func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), bodies...)
	}
}

// TestShardBodiesAreCanonicalJSON pins the shard RPC wire: every body
// is byte for byte what json.Marshal writes for the sub-request it
// carries, and an absent idx stays null while [] stays [].
func TestShardBodiesAreCanonicalJSON(t *testing.T) {
	f := newFleet(t, 2, nil)
	mustDistribute(t, f)
	shardBodies := tapShardBodies(f)

	fe0, fe1 := f.bundle.FrontEnds[0].Name, f.bundle.FrontEnds[1].Name
	req := scoreRequestFor(f.bundle, testVector(11))
	req.ID = `id with "quotes" <html> & ünïcode`
	if rec, _ := f.score(t, req); rec.Code != http.StatusOK {
		t.Fatalf("score: status %d: %s", rec.Code, rec.Body.String())
	}
	batch := serve.BatchRequest{Utterances: []serve.ScoreRequest{req, scoreRequestFor(f.bundle, testVector(12))}}
	if rec, body := postJSON(t, f.coord.Handler(), "/v1/score/batch", batch); rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, body)
	}
	// An absent idx (nil) and an empty one ([]) both score as the zero
	// vector, and each reaches its shard as written.
	postRaw(f.coord.Handler(), "/v1/score", []byte(`{"frontends":{"`+fe0+`":{"supervector":{"val":[]}},"`+fe1+`":{"supervector":{"idx":[],"val":[]}}}}`))

	bodies := shardBodies()
	if len(bodies) != 6 {
		t.Fatalf("%d shard bodies, want 6", len(bodies))
	}
	for _, body := range bodies {
		var v any = &serve.ScoreRequest{}
		if bytes.HasPrefix(body, []byte(`{"utterances"`)) {
			v = &serve.BatchRequest{}
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, again) {
			t.Fatalf("shard body is not json.Marshal's encoding:\n got %s\nwant %s", body, again)
		}
	}
	last := string(bytes.Join(bodies[4:], []byte("\n")))
	if !strings.Contains(last, `"supervector":{"idx":null,"val":[]}`) || !strings.Contains(last, `"supervector":{"idx":[],"val":[]}`) {
		t.Fatalf("absent vs empty idx lost on the shard wire: %s", last)
	}
}
