package server_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"stwig/internal/server"
	"stwig/internal/server/client"
)

// scrapeMetrics fetches /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// lintExposition enforces the Prometheus text-format invariants a scraper
// relies on: each family is declared exactly once, HELP and TYPE come as a
// pair before any of the family's samples, and every sample line belongs to
// a declared family (histogram suffixes included).
func lintExposition(t *testing.T, text string) {
	t.Helper()
	declaredType := map[string]string{}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
				continue
			}
			name := fields[2]
			if helped[name] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
			if sampled[name] {
				t.Errorf("line %d: HELP for %s after its samples", ln+1, name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			name, typ := fields[2], fields[3]
			if _, dup := declaredType[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown type %q for %s", ln+1, typ, name)
			}
			declaredType[name] = typ
			if !helped[name] {
				t.Errorf("line %d: TYPE for %s without a preceding HELP", ln+1, name)
			}
			if sampled[name] {
				t.Errorf("line %d: TYPE for %s after its samples", ln+1, name)
			}
		case strings.HasPrefix(line, "#"):
			// comment; fine anywhere
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name {
					if typ := declaredType[base]; typ == "histogram" || typ == "summary" {
						family = base
					}
					break
				}
			}
			typ, ok := declaredType[family]
			if !ok {
				t.Errorf("line %d: sample %s has no TYPE declaration", ln+1, name)
				continue
			}
			if (typ == "histogram" || typ == "summary") && family == name {
				t.Errorf("line %d: bare %s sample for %s family", ln+1, typ, name)
			}
			sampled[family] = true
		}
	}
	if len(declaredType) == 0 {
		t.Fatal("no metric families in exposition")
	}
	// Prometheus naming convention: a counter's name carries the _total
	// suffix. A counter without it is usually a value that can regress (an
	// epoch, a position) mistyped as counter — rate()/increase() silently
	// mis-answer over those — so reject the whole class.
	for name, typ := range declaredType {
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s lacks the _total suffix — regressable values must be gauges", name)
		}
	}
	lintHistogramContract(t, text, declaredType)
}

// parseSample splits one exposition sample line into its metric name, label
// map, and value. ok is false for lines that do not parse as samples.
func parseSample(line string) (name string, labels map[string]string, value float64, ok bool) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, 0, false
		}
		for _, pair := range strings.Split(rest[i+1:end], ",") {
			k, v, found := strings.Cut(pair, "=")
			if !found {
				return "", nil, 0, false
			}
			labels[k] = strings.Trim(v, `"`)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var found bool
		name, rest, found = strings.Cut(rest, " ")
		if !found {
			return "", nil, 0, false
		}
	}
	var v float64
	if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err != nil {
		return "", nil, 0, false
	}
	return name, labels, v, true
}

// labelKey canonicalizes a label set (minus le) for grouping a histogram's
// series.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// latencyLes is the le set every latency (_seconds) histogram exposes, in
// seconds: sub-millisecond bounds first — the update wait and a selective
// query both finish below 1 ms — then the 1 ms … 10 s ladder.
var latencyLes = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, math.Inf(1)}

// lintHistogramContract enforces the cumulative-histogram contract on every
// _bucket family: within one label set, bucket counts must be monotone
// non-decreasing in le order, an le="+Inf" bucket must exist, and it must
// equal the family's _count sample — the invariants PromQL's
// histogram_quantile silently mis-answers under when violated (and exactly
// the bug a per-bucket, non-cumulative emission introduces).
func lintHistogramContract(t *testing.T, text string, declaredType map[string]string) {
	t.Helper()
	type series struct {
		les  []float64
		cnts []float64
	}
	buckets := map[string]map[string]*series{} // family → labelKey → series
	counts := map[string]map[string]float64{}  // family → labelKey → _count
	sums := map[string]map[string]bool{}       // family → labelKey → has _sum
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, ok := parseSample(line)
		if !ok {
			continue
		}
		if base := strings.TrimSuffix(name, "_bucket"); base != name && declaredType[base] == "histogram" {
			le, okLe := labels["le"]
			if !okLe {
				t.Errorf("%s sample without an le label: %q", name, line)
				continue
			}
			leV := math.Inf(1)
			if le != "+Inf" {
				if _, err := fmt.Sscanf(le, "%g", &leV); err != nil {
					t.Errorf("%s: unparsable le %q", name, le)
					continue
				}
			}
			if buckets[base] == nil {
				buckets[base] = map[string]*series{}
			}
			key := labelKey(labels)
			s := buckets[base][key]
			if s == nil {
				s = &series{}
				buckets[base][key] = s
			}
			s.les = append(s.les, leV)
			s.cnts = append(s.cnts, v)
		}
		if base := strings.TrimSuffix(name, "_count"); base != name && declaredType[base] == "histogram" {
			if counts[base] == nil {
				counts[base] = map[string]float64{}
			}
			counts[base][labelKey(labels)] = v
		}
		if base := strings.TrimSuffix(name, "_sum"); base != name && declaredType[base] == "histogram" {
			if sums[base] == nil {
				sums[base] = map[string]bool{}
			}
			sums[base][labelKey(labels)] = true
		}
	}
	if len(buckets) == 0 {
		t.Error("no histogram _bucket families in exposition")
	}
	for family, byLabels := range buckets {
		for key, s := range byLabels {
			order := make([]int, len(s.les))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return s.les[order[a]] < s.les[order[b]] })
			last := math.Inf(-1)
			prev := -1.0
			for _, i := range order {
				if s.cnts[i] < prev {
					t.Errorf("%s{%s}: bucket le=%g count %g < le=%g count %g — not cumulative",
						family, key, s.les[i], s.cnts[i], last, prev)
				}
				prev, last = s.cnts[i], s.les[i]
			}
			if !math.IsInf(last, 1) {
				t.Errorf("%s{%s}: no le=\"+Inf\" bucket", family, key)
				continue
			}
			if strings.HasSuffix(family, "_seconds") {
				got := make([]float64, len(order))
				for n, i := range order {
					got[n] = s.les[i]
				}
				if !slices.Equal(got, latencyLes) {
					t.Errorf("%s{%s}: le set %v, want %v", family, key, got, latencyLes)
				}
			}
			cnt, okCnt := counts[family][key]
			if !okCnt {
				t.Errorf("%s{%s}: buckets without a _count sample", family, key)
				continue
			}
			if prev != cnt {
				t.Errorf("%s{%s}: le=\"+Inf\" bucket %g != _count %g", family, key, prev, cnt)
			}
			// Strict parsers and _sum/_count mean dashboards need _sum; a
			// histogram shipping buckets without it is incomplete.
			if !sums[family][key] {
				t.Errorf("%s{%s}: buckets without a _sum sample", family, key)
			}
		}
	}
}

// TestMetricsExpositionLint lints a populated scrape: after traffic on two
// namespaces the full exposition must still declare each family exactly
// once with HELP/TYPE ahead of its samples.
func TestMetricsExpositionLint(t *testing.T) {
	svc, err := server.NewMulti(server.Config{AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{"lint1", "lint2"} {
		if err := svc.AddNamespace(ns, newEngine(t, 7, 6, 4, 2), nil); err != nil {
			t.Fatal(err)
		}
	}
	ts := newHTTPServer(t, svc)
	for _, ns := range []string{"lint1", "lint2"} {
		c := client.New(ts.URL).Namespace(ns)
		if _, err := c.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 3}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Update(context.Background(), server.UpdateRequest{Op: server.OpAddNode, Label: "x"}); err != nil {
			t.Fatal(err)
		}
		// A bulk update lands a multi-mutation batch in a higher batch-size
		// bucket, so the cumulative-histogram contract check below sees a
		// distribution with more than the first bucket populated.
		if _, err := c.BulkUpdate(context.Background(), []server.UpdateRequest{
			{Op: server.OpAddNode, Label: "y"},
			{Op: server.OpAddNode, Label: "z"},
			{Op: server.OpAddNode, Label: "w"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	lintExposition(t, scrapeMetrics(t, ts.URL))
}

// TestMetricsConcurrentScrape races scrapes against namespace churn and
// live queries: /metrics must stay 200 and well-formed while tenants are
// created, queried, and dropped underneath it. Run under -race this also
// proves the registry's lock discipline.
func TestMetricsConcurrentScrape(t *testing.T) {
	svc, err := server.NewMulti(server.Config{AdminToken: testAdminToken})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddNamespace("steady", newEngine(t, 7, 6, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, svc)
	root := client.New(ts.URL, client.WithToken(testAdminToken))

	const scrapers = 4
	const churns = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers hammer /metrics until churn finishes; every response must
	// lint clean even mid-create/drop.
	scrapeErrs := make(chan string, scrapers*64)
	for range scrapers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					scrapeErrs <- err.Error()
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					scrapeErrs <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					scrapeErrs <- fmt.Sprintf("scrape status %d", resp.StatusCode)
					return
				}
				if !strings.Contains(string(body), "# TYPE stwig_uptime_seconds gauge") {
					scrapeErrs <- "scrape missing uptime family"
					return
				}
			}
		}()
	}

	// Query traffic on the steady namespace keeps engine counters moving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := root.Namespace("steady")
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 2}, nil)
		}
	}()

	// Namespace churn: create + query + drop, serially, while scrapes run.
	for i := range churns {
		name := fmt.Sprintf("churn%d", i)
		if _, err := root.Admin().CreateNamespace(context.Background(), server.CreateNamespaceRequest{
			Name: name, Spec: "rmat:scale=4,degree=3,labels=2,seed=7,machines=1",
		}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := root.Namespace(name).Query(context.Background(), server.QueryRequest{Pattern: "(a:L0)-(b:L1)", MaxMatches: 1}, nil); err != nil {
			if se, ok := err.(*client.StatusError); !ok || se.StatusCode != http.StatusBadRequest {
				t.Fatalf("query %s: %v", name, err)
			}
		}
		if err := root.Admin().DropNamespace(context.Background(), name); err != nil {
			t.Fatalf("drop %s: %v", name, err)
		}
	}
	close(stop)
	wg.Wait()
	close(scrapeErrs)
	for msg := range scrapeErrs {
		t.Error(msg)
	}

	// After the churn settles the exposition must still lint clean.
	lintExposition(t, scrapeMetrics(t, ts.URL))
}
