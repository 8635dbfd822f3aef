package partition

import (
	"fmt"
	"sort"
	"strings"
)

// registered lists the strategies in registration order (the order
// reports and comparisons present them in).
var registered = []Strategy{HashSubject{}, Vertical{}, Semantic{}, WorkloadAware{}, LabelPropagation{}}

// ByName returns the named strategy. Unknown names list the registry
// in the error so CLI flags are self-documenting.
func ByName(name string) (Strategy, error) {
	known := make([]string, len(registered))
	for i, s := range registered {
		if s.Name() == name {
			return s, nil
		}
		known[i] = s.Name()
	}
	sort.Strings(known)
	return nil, fmt.Errorf("partition: unknown strategy %q (have %s)", name, strings.Join(known, ", "))
}
