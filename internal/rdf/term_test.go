package rdf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Term.AppendTo, the one N-Triples renderer (String is built on it),
// against the rendering String had before it: a strings.Replacer over
// the literal's value, concatenated. Mutants it catches, each checked:
// an escape case dropped from AppendTo's loop; the clean tail after the
// last escape left off; the datatype tested before the language tag; a
// blank node rendered as an IRI.

var refEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

func refTermString(t Term) string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	}
	s := `"` + refEscaper.Replace(t.Value) + `"`
	if t.Lang != "" {
		return s + "@" + t.Lang
	}
	if t.Datatype != "" {
		return s + "^^<" + t.Datatype + ">"
	}
	return s
}

// escapeRich draws strings that mix clean runs with every byte the
// renderer escapes, and bytes it passes through.
func escapeRich(r *rand.Rand) string {
	pieces := []string{"", "plain", `"`, `\`, "\n", "\r", "\t", `\"`, "\x00", "é", "日本", " "}
	var b strings.Builder
	for n := r.Intn(10); n > 0; n-- {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

func TestTermAppendToMatchesString(t *testing.T) {
	check := func(v, tag string) bool {
		for _, term := range []Term{
			NewIRI(v), NewBlank(v), NewLiteral(v), NewLangLiteral(v, tag), NewTypedLiteral(v, tag),
			{Kind: Literal, Value: v, Lang: tag, Datatype: XSDString},
		} {
			want := refTermString(term)
			got := term.AppendTo([]byte("prefix "))
			if string(got) != "prefix "+want || term.String() != want {
				t.Logf("%#v: AppendTo %q, String %q, want %q", term, got, term.String(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return check(escapeRich(r), []string{"", "en", XSDInteger}[r.Intn(3)])
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(check, nil); err != nil { // testing/quick's own strings
		t.Fatal(err)
	}
}
