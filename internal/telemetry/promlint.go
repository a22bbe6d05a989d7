package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// LintProm validates a Prometheus text-format exposition against the
// structural rules a scraper depends on:
//
//   - every sample's metric family has both a # HELP and a # TYPE line,
//     and they appear before the family's first sample;
//   - no duplicate series (same metric name and label set twice);
//   - histogram families expose _bucket/_sum/_count, bucket counts are
//     cumulative (non-decreasing as le grows), the le="+Inf" bucket is
//     present, and _count equals the +Inf bucket;
//   - sample lines parse (name{labels} value).
//
// It returns a list of violations, empty when the exposition is clean.
// The engine's tests and the CI metrics smoke both run it, so a
// malformed /metrics cannot land. Self-contained by design: no
// dependency beyond the standard library.
func LintProm(text string) []string {
	var bad []string
	helps := map[string]bool{}
	types := map[string]string{}
	seen := map[string]bool{} // name + sorted labels -> dup check
	// histogram family -> label-set (minus le) -> le -> cumulative count
	buckets := map[string]map[string]map[float64]float64{}
	counts := map[string]map[string]float64{}
	sums := map[string]map[string]bool{}

	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 3 {
				bad = append(bad, fmt.Sprintf("line %d: malformed HELP", lineNo))
				continue
			}
			helps[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				bad = append(bad, fmt.Sprintf("line %d: malformed TYPE", lineNo))
				continue
			}
			if _, dup := types[f[2]]; dup {
				bad = append(bad, fmt.Sprintf("line %d: duplicate TYPE for %s", lineNo, f[2]))
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			bad = append(bad, fmt.Sprintf("line %d: %v", lineNo, err))
			continue
		}
		family := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name && types[base] == "histogram" {
				family, suffix = base, s
				break
			}
		}
		if !helps[family] {
			bad = append(bad, fmt.Sprintf("line %d: %s has no HELP", lineNo, family))
		}
		if _, ok := types[family]; !ok {
			bad = append(bad, fmt.Sprintf("line %d: %s has no TYPE", lineNo, family))
		}

		key := seriesKey(name, labels, "")
		if seen[key] {
			bad = append(bad, fmt.Sprintf("line %d: duplicate series %s", lineNo, key))
		}
		seen[key] = true

		if types[family] == "histogram" {
			base := seriesKey(family, labels, "le")
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					bad = append(bad, fmt.Sprintf("line %d: histogram bucket without le", lineNo))
					continue
				}
				var bound float64
				if le == "+Inf" {
					bound = inf
				} else if b, err := strconv.ParseFloat(le, 64); err == nil {
					bound = b
				} else {
					bad = append(bad, fmt.Sprintf("line %d: bad le %q", lineNo, le))
					continue
				}
				if buckets[family] == nil {
					buckets[family] = map[string]map[float64]float64{}
				}
				if buckets[family][base] == nil {
					buckets[family][base] = map[float64]float64{}
				}
				buckets[family][base][bound] = value
			case "_count":
				if counts[family] == nil {
					counts[family] = map[string]float64{}
				}
				counts[family][base] = value
			case "_sum":
				if sums[family] == nil {
					sums[family] = map[string]bool{}
				}
				sums[family][base] = true
			default:
				bad = append(bad, fmt.Sprintf("line %d: histogram %s exposes bare sample %s", lineNo, family, name))
			}
		}
	}

	// Cross-line histogram invariants.
	for family, series := range buckets {
		for base, bs := range series {
			bounds := make([]float64, 0, len(bs))
			for b := range bs {
				bounds = append(bounds, b)
			}
			sort.Float64s(bounds)
			prev := -1.0
			prevCum := -1.0
			for _, b := range bounds {
				if bs[b] < prevCum {
					bad = append(bad, fmt.Sprintf("%s: bucket le=%g count %g < le=%g count %g (not cumulative)",
						base, b, bs[b], prev, prevCum))
				}
				prev, prevCum = b, bs[b]
			}
			infCum, hasInf := bs[inf]
			if !hasInf {
				bad = append(bad, fmt.Sprintf("%s: no le=\"+Inf\" bucket", base))
			}
			if c, ok := counts[family][base]; !ok {
				bad = append(bad, fmt.Sprintf("%s: histogram without _count", base))
			} else if hasInf && c != infCum {
				bad = append(bad, fmt.Sprintf("%s: _count %g != +Inf bucket %g", base, c, infCum))
			}
			if !sums[family][base] {
				bad = append(bad, fmt.Sprintf("%s: histogram without _sum", base))
			}
		}
	}
	return bad
}

// inf stands in for le="+Inf" in bound maps.
var inf = float64(1 << 62)

// parseSample parses `name{l1="v1",l2="v2"} value` (timestamp-less, as
// this repo emits).
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("no value: %q", line)
	} else {
		name = rest[:i]
		rest = rest[i:]
	}
	if name == "" {
		return "", nil, 0, fmt.Errorf("empty metric name: %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		// The label body ends at the first brace outside a quoted value.
		end, quoted := -1, false
		for i := 1; i < len(rest) && end < 0; i++ {
			switch {
			case quoted && rest[i] == '\\':
				i++
			case rest[i] == '"':
				quoted = !quoted
			case !quoted && rest[i] == '}':
				end = i
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels: %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitLabels(body) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("bad label %q", pair)
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value %q", pair)
			}
			labels[pair[:eq]] = unescapeLabel(v[1 : len(v)-1])
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "+Inf" {
		return name, labels, inf, nil
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", rest)
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// unescapeLabel reverses labelEscaper in one left-to-right pass, so an
// escaped backslash is never re-read as the start of another escape.
func unescapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '\\' && i+1 < len(v) {
			i++
			if c = v[i]; c == 'n' {
				c = '\n'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// seriesKey canonicalizes a sample's identity: name plus sorted labels,
// optionally dropping one label (histograms drop le to group buckets).
func seriesKey(name string, labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == drop {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
