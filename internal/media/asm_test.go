package media

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The AVX2 bodies must be VEX-encoded throughout: a legacy SSE instruction
// that writes an xmm register after a ymm instruction makes the CPU save
// and restore the upper halves around it, and in dct2dAVX2 one such MOVQ
// made the kernel three times slower than the SSE2 body it replaces
// (DESIGN.md §"Transform kernels"). The assembler takes either encoding
// without a word, so this is checked on the source.

var (
	vecReg     = regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)
	textSym    = regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)`)
	macroDef   = regexp.MustCompile(`^#define\s+(\w+)(\(([^)]*)\))?\s*(.*)$`)
	macroInvok = regexp.MustCompile(`^(\w+)(\((.*)\))?$`)
)

// asmMacro is one #define: its parameters and its statements.
type asmMacro struct {
	params []string
	body   []string
}

// legacyInAVX2 reads one assembly source and returns the TEXT symbols
// whose names end in AVX2 and, as "symbol: statement", every statement of
// their bodies, macros expanded, that has an X, Y or Z register operand
// and a mnemonic without the V prefix.
func legacyInAVX2(src string) (bodies, legacy []string) {
	var lines []string
	cont := ""
	for _, l := range strings.Split(src, "\n") {
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		if l = strings.TrimSpace(l); strings.HasSuffix(l, `\`) {
			cont += strings.TrimSuffix(l, `\`) + " "
			continue
		}
		lines, cont = append(lines, cont+l), ""
	}
	macros := map[string]asmMacro{}
	var check func(sym, stmt string, depth int)
	check = func(sym, stmt string, depth int) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" || strings.HasSuffix(stmt, ":") {
			return
		}
		if m := macroInvok.FindStringSubmatch(stmt); m != nil && depth < 16 {
			if mac, ok := macros[m[1]]; ok {
				args := splitArgs(m[3])
				for _, s := range mac.body {
					for i, p := range mac.params {
						if i < len(args) {
							s = regexp.MustCompile(`\b`+p+`\b`).ReplaceAllLiteralString(s, args[i])
						}
					}
					check(sym, s, depth+1)
				}
				return
			}
		}
		f := strings.Fields(stmt)
		if !strings.HasPrefix(f[0], "V") && vecReg.MatchString(strings.Join(f[1:], " ")) {
			legacy = append(legacy, sym+": "+strings.Join(f, " "))
		}
	}
	sym := ""
	for _, l := range lines {
		if m := macroDef.FindStringSubmatch(l); m != nil {
			macros[m[1]] = asmMacro{params: splitArgs(m[3]), body: strings.Split(m[4], ";")}
			continue
		}
		if m := textSym.FindStringSubmatch(l); m != nil {
			if sym = ""; strings.HasSuffix(m[1], "AVX2") {
				sym = m[1]
				bodies = append(bodies, sym)
			}
			continue
		}
		if sym != "" {
			for _, stmt := range strings.Split(l, ";") {
				check(sym, stmt, 0)
			}
		}
	}
	return bodies, legacy
}

// splitArgs splits a macro's parameter or argument list at the commas
// outside parentheses.
func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth, from := 0, 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out, from = append(out, strings.TrimSpace(s[from:i])), i+1
			}
		}
	}
	return append(out, strings.TrimSpace(s[from:]))
}

func TestAVX2BodiesAreVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bodies, legacy := legacyInAVX2(string(src))
		all = append(all, bodies...)
		for _, l := range legacy {
			t.Errorf("%s: %s: a legacy SSE instruction in an AVX2 body", f, l)
		}
	}
	for _, want := range []string{"sad8AVX2", "dct2dAVX2"} {
		if !slices.Contains(all, want) {
			t.Errorf("no TEXT symbol %s found; bodies checked: %v", want, all)
		}
	}

	// The negative control: a legacy MOVQ after a ymm instruction, once
	// in the body and once inside a macro, is caught, and the same MOVQ in
	// a body not named AVX2 is not.
	const control = `#include "textflag.h"
#define LOADX(r) \
	MOVQ BX, r
TEXT ·inlineAVX2(SB), NOSPLIT, $0-0
	VPXOR Y0, Y0, Y0
	MOVQ  BX, X9 // the legacy move
	VZEROUPPER
	RET
TEXT ·macroAVX2(SB), NOSPLIT, $0-0
	VPXOR Y0, Y0, Y0; LOADX(X9)
done:
	RET
TEXT ·baselineSSE2(SB), NOSPLIT, $0-0
	MOVQ BX, X9
	RET
`
	bodies, legacy := legacyInAVX2(control)
	want := []string{"inlineAVX2: MOVQ BX, X9", "macroAVX2: MOVQ BX, X9"}
	if !slices.Equal(bodies, []string{"inlineAVX2", "macroAVX2"}) || !slices.Equal(legacy, want) {
		t.Errorf("control: bodies %q, legacy %q; want the two AVX2 bodies and %q", bodies, legacy, want)
	}
}
