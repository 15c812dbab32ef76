// Package journal is a per-namespace write-ahead log: a single append-only
// file of length-prefixed, CRC32-framed records, each carrying a monotonic
// sequence number. It is the durability substrate of stwigd's update
// pipeline (LogBase-style: the sequential log is the only thing fsynced on
// the write path; all in-memory state is rebuilt by replaying it over the
// latest checkpoint).
//
// On-disk frame layout (little-endian):
//
//	u32 payloadLen | u32 crc32(IEEE, payload) | payload
//	payload = u64 seq | body
//
// The scanner trusts nothing: payload lengths are bounded before any
// allocation, every frame's CRC is verified, and the scan stops cleanly at
// the first frame that is short, oversized, or corrupt — the torn tail a
// crash mid-append leaves behind. Everything before that point is the
// committed prefix; Writer truncation repair (TruncateTo) discards the rest
// so the next append starts at a clean frame boundary.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// frameHeaderSize is the fixed prefix of every frame: payload length plus
// payload CRC.
const frameHeaderSize = 8

// seqSize is the sequence-number prefix inside every payload.
const seqSize = 8

// MaxPayload bounds a single record's payload (seq + body). A frame whose
// header claims more is treated as corruption, not an allocation request —
// a flipped bit in the length field must never OOM the scanner.
const MaxPayload = 1 << 26 // 64 MiB

// FrameOverhead is the fixed per-record cost on disk beyond the body:
// the frame header (payload length + CRC) plus the sequence number.
const FrameOverhead = frameHeaderSize + seqSize

// DefaultAlign is the file alignment Sync pads to unless SetAlign
// overrides it: one 4 KiB block, the smallest write most flash devices
// accept without a read-modify-write cycle.
const DefaultAlign = 4096

// Record is one decoded journal entry.
type Record struct {
	// Seq is the writer-assigned sequence number. Within one journal file
	// sequence numbers are strictly increasing; after a checkpoint truncates
	// the file they keep counting from where they were.
	Seq uint64
	// Body is the application payload (for stwigd, an encoded mutation
	// batch). It is a private copy; callers may retain it.
	Body []byte
	// End is the byte offset just past this record's frame — what the file
	// should be truncated to in order to keep this record but drop
	// everything after it.
	End int64
}

// ScanReport describes how a scan ended.
type ScanReport struct {
	// Committed is the byte offset of the end of the last intact frame —
	// the length a repair should truncate the file to.
	Committed int64
	// Torn reports the scan stopped before the end of input: the bytes past
	// Committed do not form an intact frame (crash tail or corruption).
	Torn bool
	// TornBytes is how many bytes past Committed were abandoned.
	TornBytes int64
}

// Scan decodes every intact frame from r. It never fails on a torn or
// corrupt tail — that is the expected shape of a crashed journal — and
// instead reports where the committed prefix ends. The only errors returned
// are real I/O errors from r.
func Scan(r io.Reader) ([]Record, ScanReport, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []Record
	var rep ScanReport
	var hdr [frameHeaderSize]byte
	for {
		payload, torn, err := readFrame(br, &hdr)
		if err == io.EOF {
			return recs, rep, nil
		}
		if err == errTorn {
			rep.Torn = true
			rep.TornBytes = torn + remaining(br)
			return recs, rep, nil
		}
		if err != nil {
			return recs, rep, err
		}
		rep.Committed += int64(frameHeaderSize) + int64(len(payload))
		recs = append(recs, Record{
			Seq:  binary.LittleEndian.Uint64(payload[:seqSize]),
			Body: payload[seqSize:],
			End:  rep.Committed,
		})
	}
}

// errTorn is readFrame's report that the bytes at the reader do not form an
// intact frame: a short read, an impossible length, or a CRC mismatch.
var errTorn = errors.New("journal: torn frame")

// readFrame reads the next frame from br into hdr and a fresh payload. It
// returns io.EOF at a clean end of input, errTorn with the number of bytes
// it consumed when the frame is not intact, and any other error as a real
// I/O failure.
func readFrame(br *bufio.Reader, hdr *[frameHeaderSize]byte) ([]byte, int64, error) {
	n, err := io.ReadFull(br, hdr[:])
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		return nil, int64(n), errTorn
	}
	if err != nil {
		return nil, 0, err
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if payloadLen < seqSize || payloadLen > MaxPayload {
		// A frame must at least carry its sequence number; anything larger
		// than the bound is a corrupt length, not a real record.
		return nil, frameHeaderSize, errTorn
	}
	payload := make([]byte, payloadLen)
	pn, err := io.ReadFull(br, payload)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, frameHeaderSize + int64(pn), errTorn
	}
	if err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, frameHeaderSize + int64(payloadLen), errTorn
	}
	return payload, 0, nil
}

// remaining drains and counts whatever is left in br (bounded by the
// underlying reader); used only to report how much tail a torn scan
// abandoned.
func remaining(br *bufio.Reader) int64 {
	n, _ := io.Copy(io.Discard, br)
	return n
}

// ScanFile scans the journal at path. A missing file is an empty journal,
// not an error.
func ScanFile(path string) ([]Record, ScanReport, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, ScanReport{}, nil
	}
	if err != nil {
		return nil, ScanReport{}, err
	}
	defer f.Close()
	return Scan(f)
}

// Writer appends framed records to a journal file. Appends accumulate in
// memory; Flush writes them with one positional write, and Sync
// additionally pads the file to the configured alignment before fsyncing,
// so device writes are sequential, batched, and block-sized (group
// commit). It is not safe for concurrent use; stwigd's per-namespace
// dispatcher is the single writer by construction.
//
// Alignment padding is zero bytes past the last frame. A zero payload
// length is below the scanner's minimum, so a crash that leaves padding
// behind scans as a torn tail and recovery truncates it — the committed
// prefix is unaffected. While the writer is live the padding is
// transient: the next Flush overwrites it in place (writes are
// positional, at the logical end, not the file end), and Close trims the
// file back to the logical size so at-rest journals contain only frames.
type Writer struct {
	f       *os.File
	path    string
	nextSeq uint64
	size    int64 // logical end: flushed bytes + pending bytes
	flushed int64 // bytes of frames written to the file
	phys    int64 // current file length (flushed frames + padding)
	align   int64 // Sync pads the file length to a multiple of this
	pending bytes.Buffer
	frame   [FrameOverhead]byte // Append's header scratch (a local escapes through crc32)
}

// OpenWriter opens (creating if needed) the journal at path for appending.
// committed is the byte length of the intact prefix (from ScanReport) — any
// torn tail beyond it is truncated away so the next frame starts clean.
// nextSeq is the sequence number the first Append will carry; recovery
// passes lastSeq+1.
func OpenWriter(path string, committed int64, nextSeq uint64) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if committed > st.Size() {
		f.Close()
		return nil, fmt.Errorf("journal: committed prefix %d beyond file size %d", committed, st.Size())
	}
	if st.Size() > committed {
		if err := f.Truncate(committed); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(committed, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{
		f: f, path: path, nextSeq: nextSeq,
		size: committed, flushed: committed, phys: committed,
		align: DefaultAlign,
	}, nil
}

// SetAlign sets the file alignment Sync pads to. Values below one disable
// padding. Call before the first Sync; changing it later is safe but
// leaves previously written padding in place until the next Flush or
// Close overwrites or trims it.
func (w *Writer) SetAlign(n int64) {
	if n < 1 {
		n = 1
	}
	w.align = n
}

// Append frames body into the writer's pending buffer and returns the
// record's sequence number. No I/O happens here: the frame reaches the
// file on the next Flush (or Sync), and callers needing durability must
// call Sync before acting on the record.
func (w *Writer) Append(body []byte) (uint64, error) {
	if len(body) > MaxPayload-seqSize {
		return 0, fmt.Errorf("journal: record body %d bytes exceeds MaxPayload", len(body))
	}
	seq := w.nextSeq
	scratch := &w.frame
	payloadLen := uint32(seqSize + len(body))
	binary.LittleEndian.PutUint64(scratch[frameHeaderSize:], seq)
	crc := crc32.ChecksumIEEE(scratch[frameHeaderSize:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(scratch[0:4], payloadLen)
	binary.LittleEndian.PutUint32(scratch[4:8], crc)
	w.pending.Write(scratch[:])
	w.pending.Write(body)
	w.nextSeq++
	w.size += FrameOverhead + int64(len(body))
	return seq, nil
}

// Flush writes every pending frame with one positional write at the
// logical end of the journal (overwriting any alignment padding a
// previous Sync left there). On failure the pending buffer is retained —
// the file may hold a partial frame past the flushed prefix, which the
// scanner treats as a torn tail and a later Flush overwrites.
func (w *Writer) Flush() error {
	if w.pending.Len() == 0 {
		return nil
	}
	n, err := w.f.WriteAt(w.pending.Bytes(), w.flushed)
	if w.flushed+int64(n) > w.phys {
		w.phys = w.flushed + int64(n)
	}
	if err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	w.flushed += int64(n)
	w.pending.Reset()
	return nil
}

// zeroBlock is the padding Sync writes: shared and never modified, so an
// fsync allocates nothing.
var zeroBlock [DefaultAlign]byte

// Sync makes every appended frame durable: flush the pending buffer, pad
// the file with zeros to the configured alignment (so the device sees
// block-sized sequential writes; zero padding scans as a torn tail and is
// truncated at recovery), then fsync. One Sync covers every record
// appended since the last one.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if w.align > 1 {
		target := (w.flushed + w.align - 1) / w.align * w.align
		// Padding is a device-write optimization: if it fails the fsync
		// below still commits every frame, so the error is not fatal.
		for w.phys < target {
			n, err := w.f.WriteAt(zeroBlock[:min(target-w.phys, int64(len(zeroBlock)))], w.phys)
			w.phys += int64(n)
			if err != nil {
				break
			}
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Size returns the current journal length in bytes.
func (w *Writer) Size() int64 { return w.size }

// NextSeq returns the sequence number the next Append will carry.
func (w *Writer) NextSeq() uint64 { return w.nextSeq }

// Mark is a position token for Rollback: capture it before an append, roll
// back to it if the appended record must not survive (failed fsync, a batch
// that was never applied).
type Mark struct {
	size    int64
	nextSeq uint64
}

// Mark captures the current committed position.
func (w *Writer) Mark() Mark { return Mark{size: w.size, nextSeq: w.nextSeq} }

// Rollback discards every append since m was captured and restores the
// sequence counter so the next record reuses the rolled-back numbers. If
// the discarded records were never flushed this is a pure buffer
// truncation with no I/O; otherwise the file is truncated back to m and
// the truncation fsynced, so after Rollback returns nil a crash cannot
// resurrect the discarded records.
func (w *Writer) Rollback(m Mark) error {
	if m.size >= w.flushed {
		// Everything past m is still in the pending buffer (plus, possibly,
		// a torn partial frame a failed Flush left on disk — harmless: the
		// scanner stops before it and the next Flush overwrites it).
		w.pending.Truncate(int(m.size - w.flushed))
		w.size = m.size
		w.nextSeq = m.nextSeq
		return nil
	}
	w.pending.Reset()
	if err := w.f.Truncate(m.size); err != nil {
		return fmt.Errorf("journal: rollback: %w", err)
	}
	if _, err := w.f.Seek(m.size, io.SeekStart); err != nil {
		return fmt.Errorf("journal: rollback: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: rollback: %w", err)
	}
	w.size = m.size
	w.flushed = m.size
	w.phys = m.size
	w.nextSeq = m.nextSeq
	return nil
}

// Reset truncates the journal to zero length after a checkpoint has made
// its records redundant. Sequence numbers keep counting — the checkpoint
// records the last sequence it covers, and replay skips anything at or
// below it, so a crash between checkpoint publication and this truncation
// cannot double-apply.
func (w *Writer) Reset() error {
	w.pending.Reset()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = 0
	w.flushed = 0
	w.phys = 0
	return nil
}

// Close flushes any pending frames (without fsyncing them — durability is
// Sync's job), trims alignment padding so the at-rest file contains only
// frames, and closes the underlying file. Append/Sync after Close fail.
func (w *Writer) Close() error {
	err := w.Flush()
	if w.phys > w.flushed {
		if terr := w.f.Truncate(w.flushed); terr == nil {
			w.phys = w.flushed
		} else if err == nil {
			err = fmt.Errorf("journal: close: %w", terr)
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
