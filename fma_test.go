package repro

import (
	"bufio"
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
	files := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && strings.HasPrefix(name, ".") {
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
			if m := fusedMnemonic.FindString(code); m != "" {
				t.Errorf("%s:%d: fused multiply-add %s", p, line, m)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no assembly file found: the scan is looking in the wrong place")
	}
}
