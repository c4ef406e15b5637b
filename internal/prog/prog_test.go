package prog

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"
)

func sample() *Program {
	return &Program{
		Arch:  "tiny32",
		Entry: 0x40,
		Segments: []Segment{
			{Addr: 0x0, Data: []byte{1, 2, 3, 4}},
			{Addr: 0x100, Data: []byte{0xff}},
		},
		Symbols: map[string]uint64{"_start": 0x40, "data": 0x100},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := sample()
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.Arch != p.Arch || q.Entry != p.Entry {
		t.Errorf("header mismatch: %+v", q)
	}
	if len(q.Segments) != 2 || q.Segments[1].Addr != 0x100 {
		t.Errorf("segments mismatch: %+v", q.Segments)
	}
	if q.Symbols["data"] != 0x100 {
		t.Errorf("symbols mismatch: %v", q.Symbols)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE"),
		[]byte("RIMG"), // truncated after magic
	}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(%q) succeeded", c)
		}
	}
}

func TestUnmarshalTruncations(t *testing.T) {
	full := sample().Marshal()
	for n := 4; n < len(full); n += 7 {
		if _, err := Unmarshal(full[:n]); err == nil {
			t.Errorf("truncated image of %d bytes accepted", n)
		}
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		Unmarshal(data) // must not panic, error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Also fuzz mutations of a valid image, which exercise deeper paths.
	base := sample().Marshal()
	g := func(pos uint, val byte) bool {
		if len(base) == 0 {
			return true
		}
		mut := append([]byte(nil), base...)
		mut[pos%uint(len(mut))] = val
		Unmarshal(mut)
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestImageAndBounds(t *testing.T) {
	p := sample()
	img := p.Image()
	if img[0] != 1 || img[3] != 4 || img[0x100] != 0xff {
		t.Errorf("image content wrong: %v", img)
	}
	lo, hi, ok := p.Bounds()
	if !ok || lo != 0 || hi != 0x101 {
		t.Errorf("bounds = %#x..%#x %v", lo, hi, ok)
	}
	if p.Size() != 5 {
		t.Errorf("size = %d", p.Size())
	}
	empty := &Program{}
	if _, _, ok := empty.Bounds(); ok {
		t.Error("empty image has bounds")
	}
}

func TestSymbolLookup(t *testing.T) {
	p := sample()
	if v, ok := p.Symbol("_start"); !ok || v != 0x40 {
		t.Error("symbol lookup failed")
	}
	if _, ok := p.Symbol("nope"); ok {
		t.Error("missing symbol reported present")
	}
}

// FuzzProgUnmarshal: RIMG images arrive over HTTP (symexd job
// submissions), so Unmarshal must never panic, and an image that
// claims hostile segment, symbol or string counts must not make it
// allocate more than a small multiple of the input.
func FuzzProgUnmarshal(f *testing.F) {
	img := sample().Marshal()
	f.Add(img)
	// Hostile counts claimed by truncated images: 2^20 and 2^32
	// segments, a segment of 2^20 and 2^32 bytes, a 1 MiB arch string.
	for _, off := range []int{4 + 4 + len("tiny32") + 8, 4 + 4 + len("tiny32") + 8 + 8 + 8} {
		for _, n := range []uint64{1 << 20, 1 << 32} {
			h := append([]byte(nil), img[:off+8]...)
			binary.LittleEndian.PutUint64(h[off:], n)
			f.Add(h)
		}
	}
	f.Add(binary.LittleEndian.AppendUint32([]byte(magic), 1<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := Unmarshal(data)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("Unmarshal of %d bytes allocated %d bytes", len(data), alloc)
		}
		if err == nil {
			if _, err := Unmarshal(p.Marshal()); err != nil {
				t.Fatalf("re-marshaled image does not parse: %v", err)
			}
		}
	})
}
