package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"stwig/internal/memcloud"
)

// matchKeysJoined renders a result set in canonical byte form so "byte
// identical match sets" is testable literally.
func matchKeysJoined(ms []Match) string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func TestExplainReturnsDefensiveCopy(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 3)
	e := NewEngine(c, Options{})
	q := figure1Query()
	want, err := e.Match(q)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything the caller can reach; the next Match must be
	// unaffected.
	plan.LoadSets = LoadSets{}
	for i := range plan.Decomposition.Twigs {
		plan.Decomposition.Twigs[i].Leaves = nil
	}
	plan.Decomposition.Twigs = plan.Decomposition.Twigs[:1]
	plan.FValues[0] = -1

	res, err := e.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if matchKeysJoined(res.Matches) != matchKeysJoined(want.Matches) {
		t.Fatal("mutating an explained plan changed a later run")
	}
}

func TestExecStatsDecompositionIsACopy(t *testing.T) {
	g := figure1Graph()
	c := clusterFor(t, g, 3)
	e := NewEngine(c, Options{})
	q := figure1Query()
	want, err := e.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the stats' decomposition: neither the plan the run executed
	// nor a later run may notice.
	ar, err := e.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rendered := ar.Plan.String()
	for i := range ar.Stats.Decomposition.Twigs {
		ar.Stats.Decomposition.Twigs[i].Leaves = nil
	}
	if ar.Plan.String() != rendered {
		t.Fatalf("mutating ExecStats.Decomposition changed the plan:\n%s\nwas\n%s", ar.Plan, rendered)
	}
	for i := range want.Stats.Decomposition.Twigs {
		want.Stats.Decomposition.Twigs[i].Leaves = nil
	}
	res, err := e.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if matchKeysJoined(res.Matches) != matchKeysJoined(want.Matches) {
		t.Fatal("mutating ExecStats.Decomposition changed a later run")
	}
}

// TestConcurrentEngineSharedAndDistinctQueries is the -race workhorse: many
// goroutines fire a mix of one shared query and distinct queries through a
// single Engine, and every result set must equal the reference computed on
// an engine no other goroutine touches.
func TestConcurrentEngineSharedAndDistinctQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomDataGraph(rng, 60, 160, []string{"a", "b", "c"})
	c := clusterFor(t, g, 4)

	queries := []*Query{
		MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}}),
		MustNewQuery([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {0, 2}}),
		MustNewQuery([]string{"b", "a"}, [][2]int{{0, 1}}),
		MustNewQuery([]string{"c", "b", "a", "b"}, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
	}

	ref := NewEngine(c, Options{Seed: 7})
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := ref.Match(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = matchKeysJoined(res.Matches)
	}

	eng := NewEngine(c, Options{Seed: 7})
	const goroutines = 12
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				// Half the goroutines hammer the shared query 0; the rest
				// cycle through distinct queries.
				qi := 0
				if gi%2 == 1 {
					qi = (gi + it) % len(queries)
				}
				res, err := eng.Match(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if got := matchKeysJoined(res.Matches); got != want[qi] {
					errs <- fmt.Errorf("goroutine %d iter %d query %d: results diverged", gi, it, qi)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRunsCountTheirOwnTraffic runs one pattern alone, then many
// copies of it at once through one engine. A run charges its traffic to
// counters it owns, so every concurrent run reports exactly the solo run's
// messages and bytes, and the same words per explore step and for the join.
// The solo run also pins how its bytes split: one plan broadcast message per
// machine, then what the explore steps and the join moved.
func TestConcurrentRunsCountTheirOwnTraffic(t *testing.T) {
	g, q, _ := pathFixture()
	const machines = 8
	e := NewEngine(clusterFor(t, g, machines), Options{TraceID: "traffic"})
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*ExecStats, error) {
		return e.MatchStreamBlocks(context.Background(), q, func(ms []Match) (int, bool) { return len(ms), true })
	}
	// words lists the explore steps' words, then the join's.
	words := func(st *ExecStats) []int64 {
		var w []int64
		for _, step := range SpanByName(st.Spans, "explore").Children {
			w = append(w, step.Words)
		}
		return append(w, SpanByName(st.Spans, "join").Words)
	}

	solo, err := run()
	if err != nil {
		t.Fatal(err)
	}
	soloWords := words(solo)
	t.Logf("solo run: %v; words per explore step, then the join: %v", solo.Net, soloWords)
	if len(soloWords) < 3 || soloWords[len(soloWords)-1] == 0 {
		t.Fatalf("words per step and join %v: the fixture must take two STwig steps and exchange results", soloWords)
	}
	var moved int64
	for _, w := range soloWords {
		moved += w
	}
	if got := uint64(8*moved) + machines*(16+8*uint64(plan.planWords)); got != solo.Net.Bytes {
		t.Fatalf("8 × %d span words + %d machines × (16 + 8 × %d plan words) = %d bytes, Net says %v",
			moved, machines, plan.planWords, got, solo.Net)
	}

	const concurrent, rounds = 16, 5
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, concurrent)
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := run()
				switch {
				case err != nil:
					errs <- err
				case st.Net != solo.Net:
					errs <- fmt.Errorf("round %d run %d: Net %v, the solo run's %v", round, i, st.Net, solo.Net)
				case !slices.Equal(words(st), soloWords):
					errs <- fmt.Errorf("round %d run %d: words per step and join %v, the solo run's %v", round, i, words(st), soloWords)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	runs := uint64(1 + concurrent*rounds)
	want := memcloud.NetStats{Messages: runs * solo.Net.Messages, Bytes: runs * solo.Net.Bytes}
	if got := e.Snapshot().Net; got != want {
		t.Fatalf("engine snapshot Net %v after %d runs, want %v", got, runs, want)
	}
}
