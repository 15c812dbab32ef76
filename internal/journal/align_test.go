package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestAppendIsBuffered pins the group-commit write shape: Append does no
// I/O, Flush writes every pending frame at once.
func TestAppendIsBuffered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("pending")); err != nil {
			t.Fatal(err)
		}
	}
	if got := fileSize(t, path); got != 0 {
		t.Fatalf("file is %d bytes before Flush, want 0 (Append must not write)", got)
	}
	wantSize := 3 * (FrameOverhead + int64(len("pending")))
	if w.Size() != wantSize {
		t.Fatalf("logical size %d, want %d", w.Size(), wantSize)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != wantSize {
		t.Fatalf("file is %d bytes after Flush, want %d", got, wantSize)
	}
}

// TestSyncPadsToAlignment: while the writer is live, Sync leaves the file
// padded to the alignment; the padding scans as a torn tail (so a crash
// cannot misread it as a record), the next frames overwrite it in place,
// and Close trims it so the at-rest file holds only frames.
func TestSyncPadsToAlignment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const align = 128
	w.SetAlign(align)

	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != align {
		t.Fatalf("file is %d bytes after padded Sync, want %d", got, align)
	}
	// The live padded file must scan as the committed frames plus a torn
	// (zero) tail — exactly what crash recovery would see.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Body) != "first" {
		t.Fatalf("padded file scanned to %d records", len(recs))
	}
	if !rep.Torn || rep.Committed != w.Size() {
		t.Fatalf("padding not reported as torn tail: %+v (committed want %d)", rep, w.Size())
	}

	// The next window's frames land where the padding was, not after it.
	if _, err := w.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != align {
		t.Fatalf("file grew to %d bytes, want %d (second frame overwrites padding)", got, align)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantSize := 2*FrameOverhead + int64(len("first")+len("second"))
	if got := fileSize(t, path); got != wantSize {
		t.Fatalf("at-rest file is %d bytes, want %d (Close trims padding)", got, wantSize)
	}
	recs, rep, err = ScanFile(path)
	if err != nil || rep.Torn || len(recs) != 2 {
		t.Fatalf("at-rest scan: recs=%d rep=%+v err=%v", len(recs), rep, err)
	}
}

// TestRecoveryOverPaddedFile: a crash that leaves the alignment padding on
// disk (no Close ran) must recover to exactly the synced records, and the
// repaired journal keeps working.
func TestRecoveryOverPaddedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAlign(256)
	for _, b := range []string{"alpha", "beta"} {
		if _, err := w.Append([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the writer without Close. The padded file is what
	// recovery finds.
	if got := fileSize(t, path); got != 256 {
		t.Fatalf("crash file is %d bytes, want 256", got)
	}
	recs, rep, err := ScanFile(path)
	if err != nil || len(recs) != 2 || !rep.Torn {
		t.Fatalf("crash scan: recs=%d rep=%+v err=%v", len(recs), rep, err)
	}
	w2, err := OpenWriter(path, rep.Committed, recs[len(recs)-1].Seq+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != rep.Committed {
		t.Fatalf("recovery left %d bytes, want committed prefix %d", got, rep.Committed)
	}
	if _, err := w2.Append([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rep, err = ScanFile(path)
	if err != nil || rep.Torn || len(recs) != 3 || recs[2].Seq != 3 || string(recs[2].Body) != "gamma" {
		t.Fatalf("post-recovery scan: recs=%+v rep=%+v err=%v", recs, rep, err)
	}
}

// TestAlignmentDisabled: SetAlign(1) (and any value below 1) turns padding
// off — Sync leaves exactly the framed bytes.
func TestAlignmentDisabled(t *testing.T) {
	for _, align := range []int64{1, 0, -4} {
		path := filepath.Join(t.TempDir(), "journal.wal")
		w, err := OpenWriter(path, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.SetAlign(align)
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := fileSize(t, path), w.Size(); got != want {
			t.Fatalf("align=%d: file is %d bytes after Sync, want %d", align, got, want)
		}
		w.Close()
	}
}

// TestRollbackOfPendingAppends: rolling back records that never flushed is
// a pure buffer truncation — the file is untouched, and the writer keeps
// working across a mix of flushed and pending rollbacks.
func TestRollbackOfPendingAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAlign(64)
	if _, err := w.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	sizeAfterSync := fileSize(t, path)

	mark := w.Mark()
	if _, err := w.Append([]byte("never-flushed-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("never-flushed-2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rollback(mark); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != sizeAfterSync {
		t.Fatalf("pending-only rollback touched the file: %d bytes, was %d", got, sizeAfterSync)
	}
	// The rolled-back sequence numbers are reused.
	seq, err := w.Append([]byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("post-rollback seq = %d, want 2", seq)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rep, err := ScanFile(path)
	if err != nil || rep.Torn || len(recs) != 2 {
		t.Fatalf("final scan: recs=%d rep=%+v err=%v", len(recs), rep, err)
	}
	if string(recs[0].Body) != "durable" || string(recs[1].Body) != "replacement" || recs[1].Seq != 2 {
		t.Fatalf("final records: %+v", recs)
	}
}

// TestGroupedSyncSharesOneWindow: N appends followed by one Sync is the
// group-commit contract — all N frames are durable and scan back intact.
func TestGroupedSyncSharesOneWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWriter(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rep, err := ScanFile(path)
	if err != nil || rep.Torn || len(recs) != n {
		t.Fatalf("scan: recs=%d rep=%+v err=%v", len(recs), rep, err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || len(r.Body) != 1 || r.Body[0] != byte(i) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

// TestSyncDoesNotAllocate: the padding comes from a shared zero block (it
// was a fresh slice of up to a block per fsync), so a warm append+fsync
// cycle — one per acked writer window — leaves no garbage, including when
// the alignment is wider than the block.
func TestSyncDoesNotAllocate(t *testing.T) {
	for _, align := range []int64{DefaultAlign, 3 * DefaultAlign} {
		path := filepath.Join(t.TempDir(), "journal.wal")
		w, err := OpenWriter(path, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.SetAlign(align)
		body := make([]byte, DefaultAlign) // every cycle crosses a block boundary and pads
		cycle := func() {
			if _, err := w.Append(body); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // grow the pending buffer once
		if n := testing.AllocsPerRun(50, cycle); n != 0 {
			t.Errorf("align %d: append+sync allocates %v times per cycle", align, n)
		}
		if got := fileSize(t, path); got%align != 0 || got == 0 {
			t.Errorf("align %d: live file is %d bytes, want a padded multiple", align, got)
		}
		w.Close()
	}
}
