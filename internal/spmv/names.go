package spmv

// Hand-rolled name parsing and formatting helpers. The engine resolves an
// owner node for every data reference it places or fetches, so these run on
// the hot path of task admission; fmt.Sscanf allocates its scan state and
// boxes every operand, which shows up directly in allocs/iteration.

// appendPad3 appends n in decimal, zero-padded to at least 3 digits
// (matching the %03d used by matrix array names).
func appendPad3(b []byte, n int) []byte {
	if n >= 0 && n < 1000 {
		b = append(b, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
		return b
	}
	return appendInt(b, n)
}

func appendInt(b []byte, n int) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// cutPrefix is strings.CutPrefix without the extra import.
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return s, false
	}
	return s[len(prefix):], true
}

// parseIntSep parses a non-negative decimal integer at the start of s,
// consuming it and the single separator byte that follows (sep == 0 means
// the number may run to the end of the string with no separator).
func parseIntSep(s string, sep byte) (val int, rest string, ok bool) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		if val > (1<<62)/10 {
			return 0, s, false
		}
		val = val*10 + int(s[i]-'0')
		i++
	}
	if i == 0 {
		return 0, s, false
	}
	if sep == 0 {
		return val, s[i:], true
	}
	if i >= len(s) || s[i] != sep {
		return 0, s, false
	}
	return val, s[i+1:], true
}

// TaskIter extracts the iteration index t from a program task ID
// ("mult:<t>:<u>:<v>" or "reduce:<t>:<u>") — the engine's hook for
// rolling task spans up into per-iteration spans. Alloc-free, like the
// array-name parsers, though it only runs when tracing is enabled.
func TaskIter(id string) (int, bool) {
	if rest, found := cutPrefix(id, "mult:"); found {
		t, _, ok := parseIntSep(rest, ':')
		return t, ok
	}
	if rest, found := cutPrefix(id, "reduce:"); found {
		t, _, ok := parseIntSep(rest, ':')
		return t, ok
	}
	return 0, false
}

// OwnerIndex extracts the grid row index u that determines data placement
// from an array name (after any program prefix has been trimmed):
//
//	A_{u}_{v}   -> u
//	x_{t}_{u}   -> u
//	xp_{t}_{u}_{v} -> u
//
// ok is false for names that are not spmv program arrays.
func OwnerIndex(name string) (int, bool) {
	if rest, found := cutPrefix(name, "A_"); found {
		u, _, ok := parseIntSep(rest, '_')
		return u, ok
	}
	if rest, found := cutPrefix(name, "xp_"); found {
		// Skip t, return u.
		if _, rest, ok := parseIntSep(rest, '_'); ok {
			u, _, ok2 := parseIntSep(rest, '_')
			return u, ok2
		}
		return 0, false
	}
	if rest, found := cutPrefix(name, "x_"); found {
		if _, rest, ok := parseIntSep(rest, '_'); ok {
			u, _, ok2 := parseIntSep(rest, 0)
			return u, ok2
		}
		return 0, false
	}
	return 0, false
}
