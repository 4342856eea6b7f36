package trace

import (
	"encoding/json"
	"math"
	"strconv"
)

// The sample wire form is the JSON encoding/json writes for a Sample: keys
// in declaration order, no whitespace, and each CC's feature vector with
// non-finite values as null (see ccJSON). AppendCC writes a CC's part by
// hand, byte for byte what json.Marshal(ccJSON) writes. WireScanner reads
// that canonical form back without reflection and declines everything
// else — whitespace, escapes, reordered, missing, unknown or case-folded
// keys. Every caller falls back to encoding/json on a decline, so which
// inputs are accepted, the error text and every decoded bit stay
// encoding/json's.

// AppendJSONFloat appends f as encoding/json encodes a finite float64:
// strconv's shortest 'f' form, or 'e' when |f| is below 1e-6 or at least
// 1e21, with a negative exponent's leading zero dropped (1e-07 → 1e-7).
// A nonzero integer below 2^53 in magnitude is its own shortest form and
// is written with strconv.AppendInt, which is several times faster.
func AppendJSONFloat(b []byte, f float64) []byte {
	if f != 0 && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// AppendJSONString appends s as encoding/json encodes it. Printable ASCII
// without '"', '\\', '<', '>' or '&' is written as is; any other string
// goes through json.Marshal, which escapes it.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendCC appends c's wire form: the bytes json.Marshal(ccJSON) writes,
// non-finite features as null.
func AppendCC(b []byte, c *CC) []byte {
	b = append(b, `{"Present":`...)
	b = strconv.AppendBool(b, c.Present)
	b = append(b, `,"BandName":`...)
	b = AppendJSONString(b, c.BandName)
	b = append(b, `,"ChannelID":`...)
	b = AppendJSONString(b, c.ChannelID)
	b = append(b, `,"IsPCell":`...)
	b = strconv.AppendBool(b, c.IsPCell)
	b = append(b, `,"Vec":[`...)
	for i, v := range c.Vec {
		if i > 0 {
			b = append(b, ',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b = append(b, "null"...)
		} else {
			b = AppendJSONFloat(b, v)
		}
	}
	return append(b, "]}"...)
}

// WireScanner reads the canonical wire form. Each method consumes one token
// or value; the first byte that does not fit declines the input, after
// which every method is a no-op returning a zero value. Numbers parse
// with strconv exactly as encoding/json parses them, and a number
// encoding/json would refuse (out of range, or not an integer where an
// int is wanted) declines.
type WireScanner struct {
	b  []byte
	ok bool
}

// NewWireScanner returns a scanner positioned at the start of b.
func NewWireScanner(b []byte) WireScanner { return WireScanner{b: b, ok: true} }

// Done reports whether the whole input was scanned without a decline.
func (s *WireScanner) Done() bool { return s.ok && len(s.b) == 0 }

func (s *WireScanner) decline() { s.ok, s.b = false, nil }

// Lit consumes the literal lit.
func (s *WireScanner) Lit(lit string) {
	if len(s.b) < len(lit) || string(s.b[:len(lit)]) != lit {
		s.decline()
		return
	}
	s.b = s.b[len(lit):]
}

// Next consumes c and reports true if c is the next byte.
func (s *WireScanner) Next(c byte) bool {
	if len(s.b) == 0 || s.b[0] != c {
		return false
	}
	s.b = s.b[1:]
	return true
}

// Bool scans true or false.
func (s *WireScanner) Bool() bool {
	if s.Next('t') {
		s.Lit("rue")
		return s.ok
	}
	s.Lit("false")
	return false
}

// String scans a string of ASCII bytes from 0x20 up, without escapes.
func (s *WireScanner) String() string {
	if !s.Next('"') {
		s.decline()
		return ""
	}
	for i, c := range s.b {
		if c == '"' {
			str := string(s.b[:i])
			s.b = s.b[i+1:]
			return str
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	s.decline()
	return ""
}

// number consumes a JSON number literal and returns it.
func (s *WireScanner) number() []byte {
	b, i := s.b, 0
	digits := func() int {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		s.decline()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			s.decline()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			s.decline()
			return nil
		}
	}
	s.b = b[i:]
	return b[:i]
}

// Float scans a number into a float64.
func (s *WireScanner) Float() float64 {
	f, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.decline()
		return 0
	}
	return f
}

// Int scans an integer that fits an int.
func (s *WireScanner) Int() int {
	n, err := strconv.ParseInt(string(s.number()), 10, 64)
	if err != nil || int64(int(n)) != n {
		s.decline()
		return 0
	}
	return int(n)
}

// CC scans one CC in the form AppendCC writes; null features become NaN.
func (s *WireScanner) CC(c *CC) {
	s.Lit(`{"Present":`)
	c.Present = s.Bool()
	s.Lit(`,"BandName":`)
	c.BandName = s.String()
	s.Lit(`,"ChannelID":`)
	c.ChannelID = s.String()
	s.Lit(`,"IsPCell":`)
	c.IsPCell = s.Bool()
	s.Lit(`,"Vec":[`)
	for i := range c.Vec {
		if i > 0 {
			s.Lit(",")
		}
		if s.Next('n') {
			s.Lit("ull")
			c.Vec[i] = math.NaN()
		} else {
			c.Vec[i] = s.Float()
		}
	}
	s.Lit("]}")
}

// Sample scans one sample in the form json.Marshal writes for it.
func (s *WireScanner) Sample(sm *Sample) {
	s.Lit(`{"T":`)
	sm.T = s.Float()
	s.Lit(`,"AggTput":`)
	sm.AggTput = s.Float()
	s.Lit(`,"NumActiveCCs":`)
	sm.NumActiveCCs = s.Int()
	s.Lit(`,"CCs":[`)
	for i := range sm.CCs {
		if i > 0 {
			s.Lit(",")
		}
		s.CC(&sm.CCs[i])
	}
	s.Lit("]}")
}
