package journal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// Golden wire pins for the replication frame format. TailAfter's result is
// shipped verbatim as the /v1/ns/{name}/wal response body and re-scanned by
// every follower, so the byte layout — u32 len | u32 crc32(IEEE, payload) |
// u64 seq | body, all little-endian — is a wire contract, not an
// implementation detail. These hex literals fail on any drift: endianness,
// CRC polynomial, header width, or seq placement.

const (
	goldenFrame1 = "0d00000013689abe01000000000000007374776967" // seq 1, body "stwig"
	goldenFrame2 = "0b0000006d01b75a020000000000000077616c"     // seq 2, body "wal"
)

func writeGoldenJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, body := range []string{"stwig", "wal"} {
		if _, err := w.Append([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenFrameBytes pins the exact on-disk (and on-wire) bytes the
// writer produces for two known records.
func TestGoldenFrameBytes(t *testing.T) {
	raw, err := os.ReadFile(writeGoldenJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(raw), goldenFrame1+goldenFrame2; got != want {
		t.Fatalf("journal bytes drifted:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenTailAfter pins the wal-tail response body for every cursor
// position: a byte suffix of the golden file, never re-encoded.
func TestGoldenTailAfter(t *testing.T) {
	path := writeGoldenJournal(t)
	cases := []struct {
		after             uint64
		want              string
		firstSeq, lastSeq uint64
	}{
		{0, goldenFrame1 + goldenFrame2, 1, 2},
		{1, goldenFrame2, 2, 2},
		{2, "", 0, 0}, // caught up
		{9, "", 0, 0}, // cursor past the tail: still just empty
	}
	for _, tc := range cases {
		tail, err := TailAfter(path, 0, tc.after, 0)
		if err != nil {
			t.Fatalf("TailAfter(%d): %v", tc.after, err)
		}
		if got := hex.EncodeToString(tail.Frames); got != tc.want {
			t.Errorf("TailAfter(%d) frames:\n got %s\nwant %s", tc.after, got, tc.want)
		}
		if tail.FirstSeq != tc.firstSeq || tail.LastSeq != tc.lastSeq {
			t.Errorf("TailAfter(%d) seqs = [%d, %d], want [%d, %d]",
				tc.after, tail.FirstSeq, tail.LastSeq, tc.firstSeq, tc.lastSeq)
		}
	}
}

// writeGoldenPaddedJournal writes the same two golden records with a 64-byte
// alignment and leaves the writer OPEN after Sync: that is the state a live
// leader's journal is actually tailed in — Close would trim the padding, but
// a serving leader never closes between updates, so the on-disk file a
// follower's wal request reads really does end in zeros.
func writeGoldenPaddedJournal(t *testing.T) (string, *Writer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	w.SetAlign(64)
	for _, body := range []string{"stwig", "wal"} {
		if _, err := w.Append([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return path, w
}

// TestGoldenPaddedFileBytes pins the padded at-rest layout: the two golden
// frames followed by zeros up to the 64-byte alignment target, nothing else.
func TestGoldenPaddedFileBytes(t *testing.T) {
	path, _ := writeGoldenPaddedJournal(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := hex.DecodeString(goldenFrame1 + goldenFrame2)
	want := append(frames, make([]byte, 64-len(frames))...)
	if got := hex.EncodeToString(raw); got != hex.EncodeToString(want) {
		t.Fatalf("padded journal bytes drifted:\n got %s\nwant %s", got, hex.EncodeToString(want))
	}
}

// TestGoldenTailAfterPadded pins that shipped frames NEVER include
// alignment padding: TailAfter on the live (padded, still-open) file
// returns byte-identical suffixes to the unpadded golden pins for every
// cursor, so a follower's scan sees clean frames rather than a torn tail
// of zeros it would have to re-request past.
func TestGoldenTailAfterPadded(t *testing.T) {
	path, _ := writeGoldenPaddedJournal(t)
	cases := []struct {
		after             uint64
		want              string
		firstSeq, lastSeq uint64
	}{
		{0, goldenFrame1 + goldenFrame2, 1, 2},
		{1, goldenFrame2, 2, 2},
		{2, "", 0, 0}, // caught up: padding alone is not a record
		{9, "", 0, 0},
	}
	for _, tc := range cases {
		tail, err := TailAfter(path, 0, tc.after, 0)
		if err != nil {
			t.Fatalf("TailAfter(%d): %v", tc.after, err)
		}
		if got := hex.EncodeToString(tail.Frames); got != tc.want {
			t.Errorf("TailAfter(%d) on padded journal:\n got %s\nwant %s", tc.after, got, tc.want)
		}
		if tail.FirstSeq != tc.firstSeq || tail.LastSeq != tc.lastSeq {
			t.Errorf("TailAfter(%d) seqs = [%d, %d], want [%d, %d]",
				tc.after, tail.FirstSeq, tail.LastSeq, tc.firstSeq, tc.lastSeq)
		}
	}
}

// TestGoldenTailAfterPaddedThenAppend pins the overwrite path: an append
// after a padded Sync lands on top of the zeros, and TailAfter ships the
// new frame with no padding ghost between frame 2 and frame 3.
func TestGoldenTailAfterPaddedThenAppend(t *testing.T) {
	path, w := writeGoldenPaddedJournal(t)
	if _, err := w.Append([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	tail, err := TailAfter(path, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Scan(bytes.NewReader(tail.Frames))
	if err != nil || rep.Torn {
		t.Fatalf("scan of post-padding tail: err=%v torn=%v", err, rep.Torn)
	}
	if len(recs) != 1 || recs[0].Seq != 3 || string(recs[0].Body) != "again" {
		t.Fatalf("post-padding tail decoded to %+v, want seq 3 %q", recs, "again")
	}
	if tail.FirstSeq != 3 || tail.LastSeq != 3 {
		t.Fatalf("post-padding tail seqs = [%d, %d], want [3, 3]", tail.FirstSeq, tail.LastSeq)
	}
}

// TestGoldenTailScansBack closes the loop a follower runs: the shipped
// suffix must scan back to the original records, and a suffix cut
// mid-frame — a connection dropped partway through a response — must scan
// to the intact prefix with the cut frame reported torn, not failed.
func TestGoldenTailScansBack(t *testing.T) {
	raw, _ := hex.DecodeString(goldenFrame1 + goldenFrame2)
	recs, rep, err := Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || rep.Torn {
		t.Fatalf("scan of full tail: %d records, torn=%v", len(recs), rep.Torn)
	}
	if string(recs[0].Body) != "stwig" || recs[0].Seq != 1 || string(recs[1].Body) != "wal" || recs[1].Seq != 2 {
		t.Fatalf("decoded records drifted: %+v", recs)
	}

	cut := raw[:len(raw)-5] // sever inside frame 2
	recs, rep, err = Scan(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("a cut frame must be a torn tail, not an error: %v", err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 || !rep.Torn {
		t.Fatalf("scan of cut tail: %d records, torn=%v; want the intact first record only", len(recs), rep.Torn)
	}
}

// TestTailAfterOffsetAndLimit pins TailAfter against TailAfter on a padded,
// still-open journal: from any record start at or before the cursor's next
// record it ships the same suffix, and a limit cuts that suffix at the
// first frame boundary at or past it, never below one record.
func TestTailAfterOffsetAndLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetAlign(64)
	for i := 0; i < 12; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte('a' + i)}, 3+7*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanFile(path)
	if err != nil || len(recs) != 12 {
		t.Fatalf("scan: %d records, err %v", len(recs), err)
	}
	start := func(i int) int64 { // byte offset of recs[i]
		if i == 0 {
			return 0
		}
		return recs[i-1].End
	}
	for after := uint64(0); after <= 13; after++ {
		want, err := TailAfter(path, 0, after, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < len(recs) && recs[k].Seq <= after+1; k++ {
			got, err := TailAfter(path, start(k), after, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Frames, want.Frames) || got.FirstSeq != want.FirstSeq || got.LastSeq != want.LastSeq {
				t.Fatalf("TailAfter(off of seq %d, after %d) = [%d, %d] %d B; from offset 0 = [%d, %d] %d B",
					recs[k].Seq, after, got.FirstSeq, got.LastSeq, len(got.Frames), want.FirstSeq, want.LastSeq, len(want.Frames))
			}
		}
		for _, limit := range []int64{1, 40, 100, 1 << 20} {
			got, err := TailAfter(path, 0, after, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(want.Frames, got.Frames) || got.FirstSeq != want.FirstSeq {
				t.Fatalf("TailAfter(after %d, limit %d) is not a prefix of the tail", after, limit)
			}
			if want.FirstSeq == 0 {
				continue
			}
			// The cut lies on a frame boundary: the last shipped record's end.
			lastEnd := recs[got.LastSeq-1].End - start(int(want.FirstSeq-1))
			if int64(len(got.Frames)) != lastEnd {
				t.Fatalf("TailAfter(after %d, limit %d) cut mid-frame: %d B, record %d ends at %d", after, limit, len(got.Frames), got.LastSeq, lastEnd)
			}
			short := lastEnd - (recs[got.LastSeq-1].End - start(int(got.LastSeq-1)))
			if got.LastSeq != want.LastSeq && (lastEnd < limit || (got.LastSeq > got.FirstSeq && short >= limit)) {
				t.Fatalf("TailAfter(after %d, limit %d) shipped %d B through seq %d; the cut belongs at the first record reaching the limit", after, limit, lastEnd, got.LastSeq)
			}
		}
	}
}
