package partition

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/spark"
)

// Options carries the strategy-specific inputs a registry lookup may
// supply: the propagation rounds and the GraphX substrate (label
// propagation). Strategies that do not use a field ignore it.
type Options struct {
	Rounds int
	Ctx    *spark.Context
}

// Option customizes a registry lookup.
type Option func(*Options)

// WithRounds bounds the label-propagation iterations.
func WithRounds(n int) Option {
	return func(o *Options) { o.Rounds = n }
}

// WithContext supplies the GraphX substrate for label propagation.
func WithContext(ctx *spark.Context) Option {
	return func(o *Options) { o.Ctx = ctx }
}

// registryOrder lists the registered strategy names in registration
// order (the order reports and comparisons present them in).
var registryOrder = []string{
	HashSubject{}.Name(),
	Vertical{}.Name(),
	Semantic{}.Name(),
	WorkloadAware{}.Name(),
	LabelPropagation{}.Name(),
}

// builders maps each registered name to its strategy constructor.
var builders = map[string]func(Options) Strategy{
	HashSubject{}.Name():   func(Options) Strategy { return HashSubject{} },
	Vertical{}.Name():      func(Options) Strategy { return Vertical{} },
	Semantic{}.Name():      func(Options) Strategy { return Semantic{} },
	WorkloadAware{}.Name(): func(Options) Strategy { return WorkloadAware{} },
	LabelPropagation{}.Name(): func(o Options) Strategy {
		return LabelPropagation{Rounds: o.Rounds, Ctx: o.Ctx}
	},
}

// resolveOptions folds opts into an Options value.
func resolveOptions(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// ByName returns the named strategy, configured by opts. Unknown names
// list the registry in the error so CLI flags are self-documenting.
func ByName(name string, opts ...Option) (Strategy, error) {
	if b, ok := builders[name]; ok {
		return b(resolveOptions(opts)), nil
	}
	known := append([]string(nil), registryOrder...)
	sort.Strings(known)
	return nil, fmt.Errorf("partition: unknown strategy %q (have %s)", name, strings.Join(known, ", "))
}

// All returns every registered strategy in registration order,
// configured by opts — the list tests and comparisons iterate instead
// of hand-building one. It constructs through the builders directly,
// so there is no unknown-name failure path and nothing to panic on; a
// name registered without a builder is caught by the registry
// coverage test, not at serving time.
func All(opts ...Option) []Strategy {
	o := resolveOptions(opts)
	out := make([]Strategy, 0, len(registryOrder))
	for _, name := range registryOrder {
		if b, ok := builders[name]; ok {
			out = append(out, b(o))
		}
	}
	return out
}
