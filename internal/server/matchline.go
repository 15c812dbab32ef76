package server

import (
	"math"
	"strconv"

	"stwig/internal/graph"
)

// The canonical match line: the one spelling of a "match" Record every
// stwigd writes, `{"type":"match","assignment":[1,2,3]}` plus a newline
// (`{"type":"match"}` for an empty assignment) — byte for byte what
// encoding/json produces for Record{Type: RecordMatch, Assignment: ...}. A
// shard's encoder, a coordinator's leg reader and the client's decoder share
// this one definition, so a match is encoded once and from then on only
// moved. Any other spelling of a match record is still a valid Record; it
// just takes the encoding/json path.
const (
	matchLinePrefix = `{"type":"match"`
	matchLineOpen   = matchLinePrefix + `,"assignment":[`
	matchLineClose  = `]}`
	matchLineEmpty  = matchLinePrefix + `}`
)

// appendMatchLine appends the canonical line for one assignment, newline
// included.
func appendMatchLine[ID int64 | graph.NodeID](dst []byte, assignment []ID) []byte {
	if len(assignment) == 0 {
		return append(dst, matchLineEmpty+"\n"...)
	}
	dst = append(dst, matchLineOpen...)
	for i, id := range assignment {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return append(dst, matchLineClose+"\n"...)
}

// maxMatchLineLen bounds the canonical line of a k-vertex assignment: an id
// takes at most 20 characters and a comma.
func maxMatchLineLen(k int) int { return len(matchLineOpen) + 21*k + len(matchLineClose) + 1 }

// hasPrefix is bytes.HasPrefix against a string, without the conversion.
func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// scanMatchRecord returns the length of the canonical match record b starts
// with, closing brace included, or 0 when b does not start with one — it is
// another record, another spelling, or cut short. A number is canonical when
// encoding/json would print it that way: an int64 with no leading zero, no
// "-0". With vals non-nil the numbers read are appended to *vals, whether or
// not the scan then succeeds; with nil it never allocates.
func scanMatchRecord(b []byte, vals *[]int64) int {
	if !hasPrefix(b, matchLineOpen) {
		if hasPrefix(b, matchLineEmpty) {
			return len(matchLineEmpty)
		}
		return 0
	}
	i := len(matchLineOpen)
	for {
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start := i
		var v uint64 // 19 digits cannot overflow it
		for i < len(b) && b[i]-'0' <= 9 {
			v = v*10 + uint64(b[i]-'0')
			i++
		}
		limit := uint64(math.MaxInt64)
		if neg {
			limit++
		}
		switch digits := i - start; {
		case digits == 0, digits > 19, v > limit:
			return 0
		case b[start] == '0' && (digits > 1 || neg):
			return 0
		}
		if vals != nil {
			n := int64(v) // MinInt64 survives the round trip through -
			if neg {
				n = -n
			}
			*vals = append(*vals, n)
		}
		if i < len(b) && b[i] == ',' {
			i++
			continue
		}
		if hasPrefix(b[i:], matchLineClose) {
			return i + len(matchLineClose)
		}
		return 0
	}
}

// ParseMatchLine decodes one canonical match line, with or without its
// newline, appending the assignment to dst. ok is false for every other line
// — a stats or error record, a match in another spelling — which is left to
// encoding/json.
func ParseMatchLine(line []byte, dst []int64) (assignment []int64, ok bool) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := scanMatchRecord(line, &dst); n == 0 || n != len(line) {
		return nil, false
	}
	return dst, true
}
