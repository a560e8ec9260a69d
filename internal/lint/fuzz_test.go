package lint

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzParseAnnotation drives the grammar's tokenization point
// (parseDirectiveText) and the two structured-payload parsers behind it
// with arbitrary comment text. Beyond no-panic, it checks the parsers'
// structural invariants — the properties CollectAnnotations relies on
// without re-checking:
//
//   - only text carrying the literal //gclint: prefix parses at all, and
//     the recovered name/args never contain the prefix or leading or
//     trailing space;
//   - a successful ignore parse always yields at least one analyzer name
//     and a non-empty reason, with no separator residue in the names;
//   - a successful loads parse always yields a non-empty cell and
//     space-free fields.
func FuzzParseAnnotation(f *testing.F) {
	seeds := []string{
		"//gclint:hierarchy outerMu mu",
		"//gclint:lock mu",
		"//gclint:leaf",
		"//gclint:acquires outerMu mu",
		"//gclint:ignore lockorder -- reason with -- inner dashes",
		"//gclint:ignore lockorder,ctxflow -- two analyzers",
		"//gclint:ignore -- missing names",
		"//gclint:ignore lockorder --",
		"//gclint:snapshot answers",
		"//gclint:loads answers",
		"//gclint:loads answers cands",
		"//gclint:loads a b c",
		"//gclint:pins dataset",
		"//gclint:view dataset",
		"//gclint:nolocks",
		"//gclint:ctxstrict",
		"//gclint:",
		"//gclint:  ",
		"// not a directive",
		"//gclint:unknown \t weird args",
		"//gclint:ignore a—b -- unicode dash is not the separator",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		name, args, ok := parseDirectiveText(text)
		if !ok {
			if strings.HasPrefix(text, "//gclint:") {
				t.Fatalf("prefix-carrying text %q did not parse", text)
			}
			if name != "" || args != "" {
				t.Fatalf("failed parse leaked values %q/%q", name, args)
			}
			return
		}
		if !strings.HasPrefix(text, "//gclint:") {
			t.Fatalf("parsed text without the directive prefix: %q", text)
		}
		if strings.Contains(name, " ") {
			t.Fatalf("directive name %q contains a space", name)
		}
		if args != strings.TrimSpace(args) {
			t.Fatalf("args %q not trimmed", args)
		}

		switch name {
		case "ignore":
			names, reason, err := parseIgnoreArgs(args)
			if err != nil {
				return
			}
			if len(names) == 0 {
				t.Fatalf("ignore parse of %q accepted zero analyzer names", args)
			}
			for _, n := range names {
				if n == "" || strings.ContainsAny(n, ", ") {
					t.Fatalf("ignore parse of %q produced bad name %q", args, n)
				}
			}
			if strings.TrimSpace(reason) == "" {
				t.Fatalf("ignore parse of %q accepted an empty reason", args)
			}
		case "loads":
			cell, param, err := parseLoadsArgs(args)
			if err != nil {
				return
			}
			if cell == "" {
				t.Fatalf("loads parse of %q accepted an empty cell", args)
			}
			for _, fld := range []string{cell, param} {
				if strings.IndexFunc(fld, unicode.IsSpace) >= 0 {
					t.Fatalf("loads parse of %q produced space-carrying field %q", args, fld)
				}
			}
		}
	})
}
