package repro

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedMnemonic matches the fused multiply-add family of x86 mnemonics
// (VFMADD132PD, VFMSUBADD231PS, VFNMSUB213SD, ...), in either case.
var fusedMnemonic = regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)\w*`)

// TestNoFusedMultiplyAddInAssembly: a fused multiply-add rounds once
// where the Go kernels it mirrors round twice, so an assembly kernel
// that used one would no longer match its Go oracle bit for bit. Every
// .s file of the module is scanned, comments stripped, and each fused
// mnemonic is reported with its file and line.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	scanAssembly(t, ".", func(at, code string) {
		if m := fusedMnemonic.FindString(code); m != "" {
			t.Errorf("%s: fused multiply-add %s", at, m)
		}
	})
}

// legacySSE matches a floating-point SSE mnemonic without the "V" of
// its VEX or EVEX form (MOVSD, MULSD, ADDPD, MAXSD, MOVAPD, UCOMISD,
// CVTSI2SD, ...).
var legacySSE = regexp.MustCompile(`(?i)^(` +
	`MOV(SD|SS|APD|APS|UPD|UPS|HPD|HPS|LPD|LPS|DDUP|MSKPD|MSKPS)` +
	`|(ADD|SUB|MUL|DIV|MAX|MIN|SQRT|CMP|ROUND)(SD|SS|PD|PS)` +
	`|(AND|ANDN|OR|XOR|SHUF|UNPCKH|UNPCKL|BLEND|BLENDV|HADD|HSUB|ADDSUB)(PD|PS)` +
	`|U?COMIS[DS]|CVT\w+)$`)

// TestNoLegacySSEInLockstepKernels: the lock-step force kernels run on
// AVX registers, and a legacy SSE instruction among them makes the CPU
// switch register state; one legacy MOVSD left in the loop made an
// early four-lane kernel 15 times slower. Every .s file of
// internal/quadtree is scanned, comments stripped, and each SSE
// floating-point mnemonic without its V prefix is reported with its
// file and line.
func TestNoLegacySSEInLockstepKernels(t *testing.T) {
	scanAssembly(t, filepath.Join("internal", "quadtree"), func(at, code string) {
		for _, stmt := range strings.Split(code, ";") {
			if f := strings.Fields(stmt); len(f) > 0 && legacySSE.MatchString(f[0]) {
				t.Errorf("%s: legacy SSE instruction %s", at, f[0])
			}
		}
	})
}

// asmLabel matches a label at the start of an assembly line.
var asmLabel = regexp.MustCompile(`^\s*\w+:`)

// scanAssembly calls check with the code of every line of every .s file
// under root, comments and a leading label stripped, and at set to the
// line's file:line. It fails the test when it finds no file.
func scanAssembly(t *testing.T, root string, check func(at, code string)) {
	t.Helper()
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".s") {
			return nil
		}
		files++
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			code, _, _ := strings.Cut(sc.Text(), "//")
			check(fmt.Sprintf("%s:%d", p, line), asmLabel.ReplaceAllString(code, ""))
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no assembly file found under %s: the scan is looking in the wrong place", root)
	}
}
