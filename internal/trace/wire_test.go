package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"prism5g/internal/rng"
)

// refMarshalCC is the reflection encoding that AppendCC replaced; its
// bytes are the reference.
func refMarshalCC(c CC) ([]byte, error) {
	out := ccJSON{Present: c.Present, BandName: c.BandName, ChannelID: c.ChannelID, IsPCell: c.IsPCell}
	for i := range c.Vec {
		if v := c.Vec[i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			out.Vec[i] = &c.Vec[i]
		}
	}
	return json.Marshal(out)
}

// refUnmarshalCC is the reflection decoding: ccJSON, nulls to NaN.
func refUnmarshalCC(b []byte) (CC, error) {
	var in ccJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return CC{}, err
	}
	c := CC{Present: in.Present, BandName: in.BandName, ChannelID: in.ChannelID, IsPCell: in.IsPCell}
	for i, p := range in.Vec {
		c.Vec[i] = math.NaN()
		if p != nil {
			c.Vec[i] = *p
		}
	}
	return c, nil
}

// sameCC compares two CCs field by field, features by float bits.
func sameCC(a, b CC) bool {
	if a.Present != b.Present || a.BandName != b.BandName || a.ChannelID != b.ChannelID || a.IsPCell != b.IsPCell {
		return false
	}
	for i := range a.Vec {
		if math.Float64bits(a.Vec[i]) != math.Float64bits(b.Vec[i]) {
			return false
		}
	}
	return true
}

// plainString reports whether AppendJSONString writes s as is, so the
// scanner must read it back.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// checkCCWire asserts the codec laws for one CC: the encoder's bytes equal
// the reflection encoding (also inside json.Marshal, which compacts them
// again), UnmarshalJSON decodes them as the reflection decoder does, and
// the scanner accepts them whenever both strings are plain.
func checkCCWire(t *testing.T, c CC) {
	t.Helper()
	got, err := c.MarshalJSON()
	want, werr := refMarshalCC(c)
	if err != nil || werr != nil {
		t.Fatalf("marshal errors: %v / %v", err, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote\n%s\nreflection wrote\n%s", got, want)
	}
	if outer, err := json.Marshal(c); err != nil || !bytes.Equal(outer, want) {
		t.Fatalf("json.Marshal(CC) = %s, %v; want %s", outer, err, want)
	}
	ref, err := refUnmarshalCC(want)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	var back CC
	if err := back.UnmarshalJSON(got); err != nil || !sameCC(back, ref) {
		t.Fatalf("UnmarshalJSON(%s) = %+v, %v; want %+v", got, back, err, ref)
	}
	sc := NewWireScanner(got)
	var fast CC
	sc.CC(&fast)
	switch {
	case sc.Done() && !sameCC(fast, ref):
		t.Fatalf("scanner read %s as %+v; want %+v", got, fast, ref)
	case !sc.Done() && plainString(c.BandName) && plainString(c.ChannelID):
		t.Fatalf("scanner declined the encoder's output %s", got)
	}
}

// wireFloat draws the float values the codec must handle: zeros of both
// signs, non-finite values, values at the 'e'-format and integer cutoffs,
// subnormals and random bit patterns.
func wireFloat(src *rng.Source) float64 {
	switch src.Intn(10) {
	case 0:
		edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21,
			math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-7, 123456789e-15,
			1 << 53, 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1e15 + 1, 1 << 62}
		return edges[src.Intn(len(edges))]
	case 1:
		return math.Float64frombits(src.Uint64())
	case 2:
		return src.NormMS(0, 1) * 1e-7
	case 3:
		return src.NormMS(0, 1) * 1e22
	case 4:
		return float64(src.Intn(200) - 100)
	default:
		return src.NormMS(-80, 20)
	}
}

// wireString draws plain names and strings that need escaping.
func wireString(src *rng.Source) string {
	return []string{"", "n41", "n41^a", "n260^h", "<b>&amp;", `a"b`, `back\slash`, "tab\t",
		" ", "é", "\xff\xfe", "n78^a\x7f", "ctl\x01", "{}[],:"}[src.Intn(14)]
}

func TestCCWireMatchesReflection(t *testing.T) {
	src := rng.New(19)
	for n := 0; n < 20000; n++ {
		c := CC{Present: src.Bool(0.5), BandName: wireString(src), ChannelID: wireString(src), IsPCell: src.Bool(0.5)}
		for i := range c.Vec {
			c.Vec[i] = wireFloat(src)
		}
		checkCCWire(t, c)
	}
}

func TestAppendJSONFloatMatchesReflection(t *testing.T) {
	src := rng.New(20)
	for n := 0; n < 20000; n++ {
		f := wireFloat(src)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, _ := json.Marshal(f)
		if got := AppendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestWireScannerDeclines: inputs outside the canonical form are declined,
// never misread.
func TestWireScannerDeclines(t *testing.T) {
	canon := `{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`
	sc := NewWireScanner([]byte(canon))
	var c CC
	if sc.CC(&c); !sc.Done() {
		t.Fatalf("canonical CC declined: %s", canon)
	}
	for _, in := range []string{
		` ` + canon,
		canon + ` `,
		`{"present":true` + canon[len(`{"Present":true`):],
		`{"BandName":"n41","Present":true` + canon[len(`{"Present":true,"BandName":"n41"`):],
		`{"Present":1` + canon[len(`{"Present":true`):],
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1,0,100,2.5,-80,null,15,11,0.05,150,2,20]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1,0,100,2.5,-80,null,15,11,0.05,150,2,20,80,1]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[01,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1.,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1e999,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[+1,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[0x1,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`,
		`{"Present":true,"BandName":"n41","ChannelID":"n41^a","IsPCell":false,"Vec":[1,0,100,2.5,-80,nul,15,11,0.05,150,2,20,80]}`,
		`{"Present":true,"BandName":"é","ChannelID":"n41^a","IsPCell":false,"Vec":[1,0,100,2.5,-80,null,15,11,0.05,150,2,20,80]}`,
		`null`,
	} {
		sc := NewWireScanner([]byte(in))
		var c CC
		if sc.CC(&c); sc.Done() {
			t.Errorf("scanner accepted non-canonical %s", in)
		}
		// Declined or not, UnmarshalJSON must agree with the reflection
		// decoder on acceptance and on the value.
		ref, rerr := refUnmarshalCC([]byte(in))
		var got CC
		err := got.UnmarshalJSON([]byte(in))
		if (err == nil) != (rerr == nil) || (err == nil && !sameCC(got, ref)) {
			t.Errorf("UnmarshalJSON(%s) = %+v, %v; reflection %+v, %v", in, got, err, ref, rerr)
		}
	}
}

// FuzzCCJSON pins the CC codec to the reflection reference: the encoder's
// bytes, the decoding of those bytes and of arbitrary raw input.
func FuzzCCJSON(f *testing.F) {
	vec := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(true, "n41", "n41^a", true, vec(1, 0, 100, 2.5, -80.5, -11, 15, 11, 0.05, 150, 2, 20, 80))
	f.Add(false, "", "", false, []byte{})
	f.Add(true, "<n78>&", "é\x00", false, vec(math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21, math.Copysign(0, -1), 5e-324))
	f.Add(true, `{"Present":true,"BandName":"n41","ChannelID":"","IsPCell":false,"Vec":[1,null,3]}`, "x", true, vec(1e20, 9.999999e-7))
	f.Fuzz(func(t *testing.T, present bool, band, channel string, pcell bool, raw []byte) {
		c := CC{Present: present, BandName: band, ChannelID: channel, IsPCell: pcell}
		for i := range c.Vec {
			if len(raw) >= 8*(i+1) {
				c.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		checkCCWire(t, c)
		// The same strings as raw input: decoding must agree with the
		// reflection decoder on acceptance and on the value.
		for _, in := range []string{band, channel} {
			ref, rerr := refUnmarshalCC([]byte(in))
			var got CC
			err := got.UnmarshalJSON([]byte(in))
			if (err == nil) != (rerr == nil) || (err == nil && !sameCC(got, ref)) {
				t.Fatalf("UnmarshalJSON(%q) = %+v, %v; reflection %+v, %v", in, got, err, ref, rerr)
			}
		}
	})
}
