package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Figure 9's times are wall-clock measurements, but its machines and
// net_bytes columns are a pure function of the graph, the queries and the
// cost model. testdata/fig9.golden pins them for fig9a and fig9b at
// tinyConfig, so a change to how the speed-up is timed cannot move the
// traffic it reports. Regenerate (only when the cost model is meant to
// change) with
//
//	go test ./internal/experiments -run TestFig9NetColumnsGolden -update-fig9
var updateFig9 = flag.Bool("update-fig9", false, "rewrite testdata/fig9.golden from this build")

// fig9NetRows renders one line per (exhibit, machine count) holding the
// deterministic columns of the exhibit's table.
func fig9NetRows(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, name := range []string{"fig9a", "fig9b"} {
		lines := strings.Split(strings.TrimSpace(renderOK(t, name)), "\n")
		header := strings.Fields(lines[0])
		col := map[string]int{}
		for i, h := range header {
			col[h] = i
		}
		for _, line := range lines[2:] { // past the header and its rule
			cells := strings.Fields(line)
			fmt.Fprintf(&out, "%s machines=%s net_bytes=%s\n", name, cells[col["machines"]], cells[col["net_bytes"]])
		}
	}
	return out.Bytes()
}

func TestFig9NetColumnsGolden(t *testing.T) {
	path := filepath.Join("testdata", "fig9.golden")
	got := fig9NetRows(t)
	if *updateFig9 {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fig9 net columns moved:\n got\n%s want\n%s", got, want)
	}
}
