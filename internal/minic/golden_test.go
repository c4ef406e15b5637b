package minic_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/harness"
	"repro/internal/minic"
)

// goldenFile holds one line per (target, program): the SHA-256 of the
// assembled image (prog.Program.Marshal, symbols included). The tiny32,
// rv32i and m16 digests were recorded from the hand-written backends the
// ADL-derived one replaced, so they pin its output byte for byte.
const goldenFile = "testdata/images.golden"

// repoPrograms collects every MiniC program in the repository: the
// harness workloads, the examples/compiled parser, and the fixed sources
// of this package's tests (any string literal defining main). Keys are
// the first 12 hex digits of the source's SHA-256; values name where the
// program came from.
func repoPrograms(t *testing.T) (srcs map[string]string, origin map[string]string) {
	t.Helper()
	srcs, origin = map[string]string{}, map[string]string{}
	add := func(name, src string) {
		sum := sha256.Sum256([]byte(src))
		key := hex.EncodeToString(sum[:6])
		if _, dup := srcs[key]; !dup {
			srcs[key], origin[key] = src, name
		}
	}
	for name, src := range harness.CWorkloads {
		add("harness:"+name, src)
	}
	for _, file := range []string{"../../examples/compiled/main.go", "minic_test.go", "symbolic_test.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		ast.Inspect(f, func(nd ast.Node) bool {
			lit, ok := nd.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.Contains(s, "void main()") {
				return true
			}
			if _, err := minic.Parse("golden.c", s); err != nil {
				return true // a deliberately broken source of TestCompileErrors
			}
			n++
			add(fmt.Sprintf("%s#%d", strings.TrimPrefix(file, "../../"), n), s)
			return true
		})
	}
	return srcs, origin
}

// imageDigest compiles and assembles src for target and hashes the image.
func imageDigest(target, src string) (string, error) {
	asmText, err := minic.CompileSource("golden.c", src, target)
	if err != nil {
		return "", err
	}
	p, err := asm.New(arch.MustLoad(target)).Assemble("golden.s", asmText)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(p.Marshal())
	return hex.EncodeToString(sum[:]), nil
}

type goldenKey struct{ target, src string }

func readGolden(t *testing.T) map[goldenKey]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[goldenKey]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 0 || strings.HasPrefix(fs[0], "#") {
			continue
		}
		if len(fs) != 4 {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		out[goldenKey{fs[0], fs[1]}] = fs[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// formatGolden renders digests in the golden file's layout.
func formatGolden(digests map[goldenKey]string, origin map[string]string) string {
	keys := make([]goldenKey, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].target != keys[j].target {
			return keys[i].target < keys[j].target
		}
		return origin[keys[i].src] < origin[keys[j].src]
	})
	var sb strings.Builder
	sb.WriteString("# target  source-sha256[:12]  image-sha256  origin\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s %s %s\n", k.target, k.src, digests[k], origin[k.src])
	}
	return sb.String()
}

// TestGoldenImages requires every repository MiniC program to assemble
// to exactly the recorded image on every target, and every target to
// have a digest for every program.
func TestGoldenImages(t *testing.T) {
	golden := readGolden(t)
	srcs, origin := repoPrograms(t)
	got := map[goldenKey]string{}
	for _, target := range minic.Targets() {
		for key, src := range srcs {
			d, err := imageDigest(target, src)
			if err != nil {
				t.Errorf("%s %s: %v", target, origin[key], err)
				continue
			}
			k := goldenKey{target, key}
			got[k] = d
			switch want, ok := golden[k]; {
			case !ok:
				t.Errorf("%s %s: no recorded digest", target, origin[key])
			case want != d:
				t.Errorf("%s %s: image digest %s, recorded %s", target, origin[key], d, want)
			}
		}
	}
	for k := range golden {
		if _, ok := got[k]; !ok {
			t.Errorf("recorded digest for %s %s has no program or target", k.target, k.src)
		}
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", formatGolden(got, origin))
	}
}
