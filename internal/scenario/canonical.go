package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// appendCanonical appends the JSON encoding of n to dst: byte for byte what
// encoding/json writes for a Spec whose Telemetry is nil, with no
// reflection. A telemetry block only observes a run, so it is never encoded:
// a spec with probes hashes as the spec without them. Fields come in
// declaration order, each omitempty field only when non-zero, topo and
// workload always, and cc keys sorted. A NaN or infinite float is an error,
// as it is to encoding/json. Every function here takes and returns the
// buffer, so a caller's stack buffer stays on the stack.
//
// TestCanonicalMatchesJSON sets each field of the spec structs in turn and
// compares the bytes with json.Marshal, so a field added to a struct without
// a line here fails a test instead of moving cache identities; the golden
// test and FuzzSpecRoundTrip pin the rest.
func appendCanonical(dst []byte, n *Spec) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	dst = appendStringField(dst, "name", n.Name)
	dst = appendString(appendKey(dst, "kind"), n.Kind)
	dst = appendStringField(dst, "backend", n.Backend)
	dst = appendString(appendKey(dst, "scheme"), n.Scheme)
	if len(n.CC) > 0 {
		if dst, err = appendCC(appendKey(dst, "cc"), n.CC); err != nil {
			return nil, err
		}
	}

	t := &n.Topo
	dst = append(appendKey(dst, "topo"), '{')
	dst = appendStringField(dst, "kind", t.Kind)
	dst = appendIntField(dst, "switches", int64(t.Switches))
	dst = appendIntField(dst, "senders", int64(t.Senders))
	dst = appendIntField(dst, "k", int64(t.K))
	dst = appendIntField(dst, "rate_gbps", t.RateGbps)
	if dst, err = appendFloatField(dst, "oversub", t.Oversub); err != nil {
		return nil, err
	}
	dst = appendIntField(dst, "delay_ns", t.DelayNs)
	dst = append(dst, '}')

	w := &n.Workload
	dst = append(appendKey(dst, "workload"), '{')
	dst = appendStringField(dst, "cdf", w.CDF)
	dst = appendIntField(dst, "flow_bytes", w.FlowBytes)
	dst = appendIntField(dst, "fanout", int64(w.Fanout))
	dst = appendIntField(dst, "shift", int64(w.Shift))
	dst = appendIntField(dst, "stagger_us", w.StaggerUs)
	dst = appendIntField(dst, "burst_every_us", w.BurstEveryUs)
	dst = append(dst, '}')

	if dst, err = appendFloatField(dst, "load", n.Load); err != nil {
		return nil, err
	}
	dst = appendIntField(dst, "seed", n.Seed)
	dst = appendIntField(dst, "duration_us", n.DurationUs)
	dst = appendStringField(dst, "hop", n.Hop)
	dst = appendIntField(dst, "workers", int64(n.Workers))
	return append(dst, '}'), nil
}

// appendCC appends the cc overrides as an object with sorted keys.
func appendCC(dst []byte, cc map[string]float64) ([]byte, error) {
	var stack [8]string
	keys := stack[:0]
	for k := range cc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(append(appendString(dst, k), ':'), cc[k]); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// appendKey appends `"key":`, after a comma unless it is the object's first
// field. Keys are the struct tags' ASCII names and need no escaping.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// appendStringField, appendIntField and appendFloatField append an omitempty
// field: nothing when the value is zero.
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(appendKey(dst, key), s)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(appendKey(dst, key), v, 10)
}

func appendFloatField(dst []byte, key string, f float64) ([]byte, error) {
	if f == 0 { // -0 too, as encoding/json's omitempty
		return dst, nil
	}
	return appendFloat(appendKey(dst, key), f)
}

// appendFloat writes f as encoding/json does: the shortest 'f' form, or the
// 'e' form below 1e-6 and from 1e21 up with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("scenario: unsupported value %v: JSON has no NaN or infinity", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString writes s as a JSON string. A string with no byte that
// encoding/json might escape or replace (a quote, a backslash, <, >, &, a
// control byte, DEL or any non-ASCII byte) is copied as is; any other goes
// through json.Marshal, which is exact, at one more allocation. Validate
// checks every string a spec holds against a fixed table of ASCII names (a
// packet spec's cc keys through its BuildScheme call, a fluid spec's in the
// fluid check), so that branch serves only specs Validate refuses.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
