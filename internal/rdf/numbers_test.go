package rdf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The dictionary's numeric column against NumericValue: whatever terms
// a dictionary encodes, the column holds, at each id, exactly what
// NumericValue says of that id's term — the same value, bit for bit,
// and numeric exactly when it is. Mutants killed (each applied to a
// copy of dictionary.go):
//   - insert appending 0 in place of the value: every term reads as
//     the number 0;
//   - At testing math.IsNaN in place of the marker's bits: a literal
//     "NaN" of a numeric datatype reads as not numeric;
//   - insert storing NumericValue's 0 for a term that is not
//     numeric: "abc"^^xsd:integer reads as 0.

// numberTerms is the property's fixed vocabulary: signs, a leading
// dot, an exponent, the xsd:double specials, an ill-typed integer, and
// literals that are numeric in form but not in type.
func numberTerms() []Term {
	return []Term{
		NewTypedLiteral("+1", XSDInteger), NewTypedLiteral(".5", XSDDecimal),
		NewTypedLiteral("1e3", xsd+"double"), NewTypedLiteral("INF", xsd+"double"),
		NewTypedLiteral("-INF", xsd+"double"), NewTypedLiteral("NaN", xsd+"double"),
		NewTypedLiteral("abc", XSDInteger), NewLangLiteral("1", "en"),
		NewTypedLiteral("1", XSDString), NewLiteral("1"), NewIRI("1"), NewBlank("1"),
		NewTypedLiteral("-0", xsd+"float"), NewTypedLiteral("", XSDInteger),
	}
}

func TestNumbersMatchNumericValueProperty(t *testing.T) {
	datatypes := []string{XSDInteger, XSDDecimal, xsd + "double", xsd + "float", xsd + "int",
		xsd + "unsignedByte", XSDString, xsd + "boolean", "http://e/custom", ""}
	const alphabet = "0123456789+-.eEINFa "
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDictionary()
		terms := numberTerms()
		for n := r.Intn(60); n > 0; n-- {
			lex := make([]byte, r.Intn(6))
			for i := range lex {
				lex[i] = alphabet[r.Intn(len(alphabet))]
			}
			terms = append(terms, NewTypedLiteral(string(lex), datatypes[r.Intn(len(datatypes))]))
		}
		r.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		for _, term := range terms {
			d.Encode(term)
		}
		all, nums := d.Terms(), d.Numbers()
		if len(nums) != len(all) {
			t.Logf("seed %d: %d terms, %d numeric entries", seed, len(all), len(nums))
			return false
		}
		for id, term := range all {
			want, wantOK := NumericValue(term)
			got, ok := nums.At(TermID(id))
			if ok != wantOK || ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d: %v reads %v, %v from the column, %v, %v from NumericValue", seed, term, got, ok, want, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
