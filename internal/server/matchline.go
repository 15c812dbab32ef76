package server

import (
	"encoding/json"
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

// The terminal records are spelled the same way: byte for byte what
// encoding/json produces for Record{Type: RecordStats, Stats: st} and
// Record{Type: RecordError, ...}, appended without reflection. Every field
// of StreamStats and ShardLegStats is written here, in declaration order,
// with its tag's omitempty; TestTerminalRecordsMatchEncodingJSON holds the
// two spellings equal.

// appendRecord appends the stats record carrying st, newline included.
func (st *StreamStats) appendRecord(dst []byte) []byte {
	dst = append(dst, `{"type":"stats","stats":{`...)
	if st.TraceID != "" {
		dst = appendJSONString(append(dst, `"trace_id":`...), st.TraceID)
		dst = append(dst, ',')
	}
	dst = strconv.AppendInt(append(dst, `"matches":`...), int64(st.Matches), 10)
	dst = appendFlag(dst, `,"truncated":true`, st.Truncated)
	dst = appendFlag(dst, `,"limit_hit":true`, st.LimitHit)
	dst = appendFlag(dst, `,"byte_cap_hit":true`, st.ByteCapHit)
	dst = appendFlag(dst, `,"plan_cache_hit":true`, st.PlanCacheHit)
	dst = strconv.AppendInt(append(dst, `,"plan_us":`...), st.PlanMicros, 10)
	dst = strconv.AppendInt(append(dst, `,"explore_us":`...), st.ExploreMicros, 10)
	dst = strconv.AppendInt(append(dst, `,"join_us":`...), st.JoinMicros, 10)
	dst = strconv.AppendInt(append(dst, `,"elapsed_us":`...), st.ElapsedMicros, 10)
	dst = strconv.AppendUint(append(dst, `,"net_messages":`...), st.NetMessages, 10)
	dst = strconv.AppendUint(append(dst, `,"net_bytes":`...), st.NetBytes, 10)
	if st.EmitFlushes != 0 {
		dst = strconv.AppendUint(append(dst, `,"emit_flushes":`...), st.EmitFlushes, 10)
	}
	if len(st.Shards) > 0 {
		dst = append(dst, `,"shards":[`...)
		for i := range st.Shards {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = st.Shards[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}\n"...)
}

// appendJSON appends the leg's JSON object.
func (l *ShardLegStats) appendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"shard":`...), int64(l.Shard), 10)
	if l.URL != "" {
		dst = appendJSONString(append(dst, `,"url":`...), l.URL)
	}
	dst = strconv.AppendInt(append(dst, `,"matches":`...), int64(l.Matches), 10)
	dst = strconv.AppendInt(append(dst, `,"bytes":`...), l.Bytes, 10)
	dst = strconv.AppendInt(append(dst, `,"elapsed_us":`...), l.ElapsedMicros, 10)
	if l.Error != "" {
		dst = appendJSONString(append(dst, `,"error":`...), l.Error)
	}
	return append(dst, '}')
}

// appendErrorRecord appends the error record, newline included.
func appendErrorRecord(dst []byte, msg, code, trace string) []byte {
	dst = append(dst, `{"type":"error"`...)
	if msg != "" {
		dst = appendJSONString(append(dst, `,"error":`...), msg)
	}
	if code != "" {
		dst = appendJSONString(append(dst, `,"code":`...), code)
	}
	if trace != "" {
		dst = appendJSONString(append(dst, `,"trace_id":`...), trace)
	}
	return append(dst, "}\n"...)
}

// appendFlag appends field when set: an omitempty bool is written only as
// true.
func appendFlag(dst []byte, field string, set bool) []byte {
	if set {
		dst = append(dst, field...)
	}
	return dst
}

// appendJSONString appends s as a JSON string. A string of printable ASCII
// that encoding/json leaves alone (no quote, backslash or HTML character)
// is copied; any other takes encoding/json's own escaping.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s)
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
