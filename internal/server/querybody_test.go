package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestQueryBodyMatchesEncodingJSON: decodeQueryBody reads every body as
// decodeBody's json.Decoder does — the same request or the same error —
// whether it takes the canonical bare-pattern spelling without a decoder or
// hands the body to encoding/json.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	long := `{"pattern":"` + strings.Repeat("(a:L1)-(b:L2), ", 40) + `(a)-(c:L3)"}`
	for _, body := range []string{
		`{"pattern":"(a:L1)-(b:L2)"}`,
		`{"pattern":"(a:L1)-(b:L2)"}` + "\n",
		`{"pattern":"(a:L1)-(b:L2)"} ` + "\r\n\t",
		`{"pattern":""}`,
		`{"pattern":"(a:L1)-(b:L2)"}{"pattern":"(x:L9)-(y:L9)"}`,
		`{"pattern":"(a:L1)-(b:L2)"}trailing`,
		`{"pattern":"(a:L1)-(b:L2)","max_matches":5}`,
		`{"max_matches":5,"pattern":"(a:L1)-(b:L2)"}`,
		`{"pattern":"a","pattern":"b"}`,
		`{"pattern":"(a:\"L1\")-(b:L2)"}`,
		`{"pattern":"(a:L1)\\u002d(b:L2)"}`,
		`{"pattern":"(a:L1)-(b:L2)\\"}`,
		"{\"pattern\":\"(a:L1)\t-(b:L2)\"}",
		"{\"pattern\":\"(a:caf\xc3\xa9)-(b:L2)\"}",
		"{\"pattern\":\"(a:\xff)-(b:L2)\"}",
		"{\"pattern\":\"(a:L1)\x7f-(b:L2)\"}",
		` {"pattern":"(a:L1)-(b:L2)"}`,
		`{"Pattern":"(a:L1)-(b:L2)"}`,
		`{"query":"v 0 a\nv 1 b\ne 0 1"}`,
		`{"pattern":"(a:L1)-(b:L2)"`,
		`{"pattern":(a:L1)}`,
		``,
		long,
		long + "junk",
	} {
		for _, limit := range []int64{1 << 20, 20} {
			var want QueryRequest
			wantErr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), limit)).Decode(&want)
			rq := &request{r: httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))}
			rq.w = &rq.sw
			rq.sw.ResponseWriter = httptest.NewRecorder()
			var got QueryRequest
			e := decodeQueryBody(rq, limit, &got)
			switch {
			case (e != nil) != (wantErr != nil):
				t.Errorf("limit %d, body %q: error %v, encoding/json's %v", limit, body, e, wantErr)
			case e != nil && e.msg != "bad request body: "+wantErr.Error():
				t.Errorf("limit %d, body %q: error %q, encoding/json's %q", limit, body, e.msg, wantErr)
			case !reflect.DeepEqual(got, want):
				t.Errorf("limit %d, body %q: read %+v, encoding/json %+v", limit, body, got, want)
			}
		}
	}
}
