// Package systems wires the nine surveyed engines into the core
// registry. Each engine gets its own simulated Spark application
// (Context) so per-engine metrics never mix.
package systems

import (
	"repro/internal/core"
	"repro/internal/spark"
	"repro/internal/systems/gframes"
	"repro/internal/systems/gxsubgraph"
	"repro/internal/systems/haqwa"
	"repro/internal/systems/hybrid"
	"repro/internal/systems/s2rdf"
	"repro/internal/systems/s2x"
	"repro/internal/systems/solutions"
	"repro/internal/systems/sparkql"
	"repro/internal/systems/sparkrdf"
	"repro/internal/systems/sparqlgx"
)

// NewRegistry builds a registry with all nine surveyed systems in the
// paper's presentation order (Sec. IV), each on a fresh context with
// the given cluster configuration.
func NewRegistry(conf spark.Config) *core.Registry {
	r := core.NewRegistry()
	for _, e := range AllEngines(conf) {
		r.Register(e)
	}
	return r
}

// AllEngines instantiates one engine per surveyed system. The nine
// share one loader: handed one slice, they build their layouts from one
// encoding of it (solutions.Source).
func AllEngines(conf spark.Config) []core.Engine {
	engines := []core.Engine{
		haqwa.New(spark.NewContext(conf)),      // IV.A.1 RDD
		sparqlgx.New(spark.NewContext(conf)),   // IV.A.1 RDD
		s2rdf.New(spark.NewContext(conf)),      // IV.A.2 Spark SQL
		hybrid.New(spark.NewContext(conf)),     // IV.A.3 hybrid
		s2x.New(spark.NewContext(conf)),        // IV.B.1 GraphX
		gxsubgraph.New(spark.NewContext(conf)), // IV.B.1 GraphX
		sparkql.New(spark.NewContext(conf)),    // IV.B.1 GraphX
		gframes.New(spark.NewContext(conf)),    // IV.B.2 GraphFrames
		sparkrdf.New(spark.NewContext(conf)),   // IV.B.3 hybrid graph
	}
	solutions.Share(engines)
	return engines
}
