package journal

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"os"
)

// Tail is the result of TailAfter: the raw, still-framed bytes of every
// intact record past a cursor, ready to ship over the wire verbatim. A
// receiver runs Scan on the bytes to decode them — the CRC framing doubles
// as the transport integrity check, so a connection cut mid-frame is
// indistinguishable from (and handled exactly like) a torn tail.
type Tail struct {
	// Frames is the committed suffix of the journal file after the cursor;
	// empty when the cursor is caught up.
	Frames []byte
	// FirstSeq and LastSeq bound the records in Frames (both zero when
	// Frames is empty).
	FirstSeq, LastSeq uint64
}

// TailAfter reads the journal at path from byte offset off and returns
// every intact record with Seq > after, as raw frames. off must be the start
// of a frame no later than the first record past after (0 always is). A
// missing file is an empty journal. Records in one journal file carry
// strictly increasing sequence numbers, so the result is a byte suffix of
// the committed prefix; a torn tail is simply excluded, exactly as recovery
// would exclude it.
//
// It ships at most limit bytes of frames (0: no limit), but always the first
// record past after, whatever its size, so a reader that loops on LastSeq
// always makes progress. It reads the file only from off to the end of what
// it ships (plus one buffer of read-ahead), so a caller that knows roughly
// where its cursor's record starts pays for the bytes it ships, not for the
// journal in front of them.
//
// The caller must ensure no writer is mid-append (stwigd serves tails under
// the namespace's reader gate, which excludes the writer window).
func TailAfter(path string, off int64, after uint64, limit int64) (Tail, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return Tail{}, nil
	}
	if err != nil {
		return Tail{}, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(io.NewSectionReader(f, off, math.MaxInt64-off), 1<<16)
	var t Tail
	var hdr [frameHeaderSize]byte
	for limit <= 0 || t.FirstSeq == 0 || int64(len(t.Frames)) < limit {
		payload, _, err := readFrame(br, &hdr)
		if err == io.EOF || err == errTorn {
			break
		}
		if err != nil {
			return Tail{}, err
		}
		seq := binary.LittleEndian.Uint64(payload[:seqSize])
		if seq <= after {
			continue
		}
		if t.FirstSeq == 0 {
			t.FirstSeq = seq
		}
		t.LastSeq = seq
		t.Frames = append(t.Frames, hdr[:]...)
		t.Frames = append(t.Frames, payload...)
	}
	return t, nil
}
