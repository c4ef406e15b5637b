package decoder_test

import (
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/decoder"
	"repro/internal/prog"
)

// imageSource serves a program image to the cache: dirty marks
// addresses whose fetch window counts as unclean, and the counters
// record what the cache reported adding.
type imageSource struct {
	dec            *decoder.Decoder
	img            map[uint64]byte
	dirty          map[uint64]bool
	decodes, units int
	blocks         []int
}

func (s *imageSource) Decode(pc uint64) (decoder.Decoded, error) {
	s.decodes++
	n := s.dec.Arch().MaxInsnBytes()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = s.img[pc+uint64(i)]
	}
	return s.dec.Decode(buf)
}

func (s *imageSource) Clean(pc uint64) bool      { return !s.dirty[pc] }
func (s *imageSource) AddUnit(*decoder.Unit)     { s.units++ }
func (s *imageSource) AddBlock(b *decoder.Block) { s.blocks = append(s.blocks, len(b.Units)) }

func translateFixture(t *testing.T) (*prog.Program, *imageSource) {
	t.Helper()
	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("t.s", `
_start:
	addi r1, r0, 1
	addi r2, r0, 2
	add r3, r1, r2
branch:
	bne r3, r0, _start
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	img := p.Image()
	for i := uint64(0); i < 4; i++ {
		img[0x1000+i] = 0xff // no instruction matches
	}
	return p, &imageSource{dec: decoder.New(a), img: img, dirty: map[uint64]bool{}}
}

// TestCacheBlock checks the superblock builder: it chains the
// straightline units up to the branch, caches the block and its units
// once, renders disassembly on request, and serves later lookups
// without decoding.
func TestCacheBlock(t *testing.T) {
	p, src := translateFixture(t)
	for _, mode := range []decoder.Mode{decoder.Compiled, decoder.Compiled | decoder.Rendered | decoder.Shared} {
		src.decodes, src.units, src.blocks = 0, 0, nil
		c := decoder.NewCache(src.dec.Arch(), mode)
		b := c.Block(p.Entry, src)
		if len(b.Units) != 3 || !b.Cached {
			t.Fatalf("mode %d: block of %d units (cached %v), want 3 cached", mode, len(b.Units), b.Cached)
		}
		for i, u := range b.Units {
			if u.Code == nil || u.PC != p.Entry+uint64(4*i) || u.Cont != u.PC+4 || u.Format == "" {
				t.Errorf("mode %d: unit %d = %+v", mode, i, u)
			}
			if rendered := u.Disasm != ""; rendered != (mode&decoder.Rendered != 0) {
				t.Errorf("mode %d: unit %d disassembly %q", mode, i, u.Disasm)
			}
		}
		// The branch ended the chain: decoded and cached, not chained.
		if src.decodes != 4 || src.units != 4 || len(src.blocks) != 1 || src.blocks[0] != 3 {
			t.Errorf("mode %d: %d decodes, %d units, blocks %v; want 4, 4, [3]", mode, src.decodes, src.units, src.blocks)
		}
		if again := c.Block(p.Entry, src); again != b || src.decodes != 4 {
			t.Errorf("mode %d: second lookup rebuilt the block (%d decodes)", mode, src.decodes)
		}
		if u, err := c.Unit(p.Symbols["branch"], src); err != nil || u.Code.Straightline() || src.decodes != 4 {
			t.Errorf("mode %d: branch unit %+v, %v after %d decodes", mode, u, err, src.decodes)
		}
	}
}

// TestCacheBlockStopsAtUncleanWindow checks that a superblock stops
// before a unit whose window the source calls unclean and is then
// rebuilt per lookup instead of cached.
func TestCacheBlockStopsAtUncleanWindow(t *testing.T) {
	p, src := translateFixture(t)
	src.dirty[p.Entry+8] = true
	c := decoder.NewCache(src.dec.Arch(), decoder.Compiled)
	b := c.Block(p.Entry, src)
	if len(b.Units) != 2 || b.Cached || len(src.blocks) != 0 {
		t.Fatalf("block of %d units (cached %v, reported %v), want 2 uncached", len(b.Units), b.Cached, src.blocks)
	}
	if again := c.Block(p.Entry, src); again == b {
		t.Error("truncated block was cached")
	}
}

// TestTranslate checks the uncached path: a fresh, uncompiled unit per
// call, and decode errors passed through.
func TestTranslate(t *testing.T) {
	p, src := translateFixture(t)
	a := src.dec.Arch()
	u, err := decoder.Translate(a, p.Entry, src, true)
	if err != nil || u.Code != nil || u.Disasm == "" || u.Cont != p.Entry+4 {
		t.Fatalf("Translate = %+v, %v", u, err)
	}
	if _, err := decoder.Translate(a, 0x1000, src, false); err == nil {
		t.Error("Translate decoded bytes no instruction matches")
	}
}
