package analysis

import (
	"go/ast"
	"strings"
)

// Registry cross-checks every fault-point, trace-stage, and metric
// name literal in the tree against internal/registry, the single
// source of truth introduced in this PR. A typo'd fault point silently
// never fires; a typo'd metric family either panics at scrape time or
// drifts from the README's documented surface. The analyzer requires:
//
//   - faults.Check(name), faults.CheckDone(name, done): name is a
//     constant in the fault-point registry
//   - trace.Trace.StartStage/Count/CountBool(stage, ...): stage is a
//     constant in the trace-stage registry
//   - obs.PromWriter.Family(name, help, type): all three are constants,
//     name is in the metric registry, and help/type match the catalog
//   - obs.PromWriter.Sample/Histogram/QuantileGauges and obs.FindFamily:
//     when the name argument is a constant starting with "rp_", it must
//     be a registered family (forwarded/derived names pass through)
//   - obs.PromWriter.HistogramExemplars(name, ...): the family must
//     additionally be registered with Exemplars: true — exemplars on an
//     undeclared family would silently vanish from dashboards that
//     trust the catalog, and declaring them is what the OpenMetrics
//     conformance check keys on
//
// Registry self-consistency (uniqueness, README coverage both ways) is
// checked once globally in GlobalFindings, not per package.
var Registry = &Analyzer{
	Name: "registry",
	Doc:  "fault-point, trace-stage, and metric literals must resolve against internal/registry",
	Run:  runRegistry,
}

func runRegistry(p *Pass) {
	info := p.Pkg.Info
	faultsPkg := p.Cfg.ModulePath + "/internal/faults"
	tracePkg := p.Cfg.ModulePath + "/internal/trace"
	obsPkg := p.Cfg.ModulePath + "/internal/obs"

	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			switch {
			case (isPkgFunc(fn, faultsPkg, "Check") || isPkgFunc(fn, faultsPkg, "CheckDone")) && len(call.Args) >= 1:
				name, ok := constString(info, call.Args[0])
				if !ok {
					p.Reportf(call.Args[0].Pos(), "faults.Check argument must be a registry constant, not a computed value")
				} else if !p.Cfg.FaultPoints[name] {
					p.Reportf(call.Args[0].Pos(), "fault point %q is not registered in internal/registry; a typo'd point never fires", name)
				}
			case methodOn(fn, tracePkg, "Trace") && len(call.Args) >= 1:
				switch fn.Name() {
				case "StartStage", "Count", "CountBool":
					stage, ok := constString(info, call.Args[0])
					if !ok {
						p.Reportf(call.Args[0].Pos(), "trace stage argument to %s must be a registry constant, not a computed value", fn.Name())
					} else if !p.Cfg.TraceStages[stage] {
						p.Reportf(call.Args[0].Pos(), "trace stage %q is not registered in internal/registry", stage)
					}
				}
			case methodOn(fn, obsPkg, "PromWriter"):
				switch fn.Name() {
				case "Family":
					checkFamily(p, call)
				case "Sample", "Histogram", "QuantileGauges":
					checkMetricRef(p, call, 0)
				case "HistogramExemplars":
					checkExemplarRef(p, call)
				}
			case isPkgFunc(fn, obsPkg, "FindFamily"):
				checkMetricRef(p, call, 1)
			}
			return true
		})
	}
}

// checkFamily enforces the strict contract at the registration point:
// Family(name, help, type) with all three constant and agreeing with
// the registry catalog. Help-string agreement is what keeps the
// scrape surface and the catalog from drifting apart.
func checkFamily(p *Pass, call *ast.CallExpr) {
	if len(call.Args) < 3 {
		return
	}
	info := p.Pkg.Info
	name, ok := constString(info, call.Args[0])
	if !ok {
		p.Reportf(call.Args[0].Pos(), "PromWriter.Family name must be a registry constant, not a computed value")
		return
	}
	m, registered := p.Cfg.Metrics[name]
	if !registered {
		p.Reportf(call.Args[0].Pos(), "metric family %q is not registered in internal/registry", name)
		return
	}
	if help, ok := constString(info, call.Args[1]); !ok {
		p.Reportf(call.Args[1].Pos(), "PromWriter.Family help for %q must be a constant string", name)
	} else if help != m.Help {
		p.Reportf(call.Args[1].Pos(), "help text for %q differs from the registry catalog (got %q, registry has %q)", name, help, m.Help)
	}
	if typ, ok := constString(info, call.Args[2]); !ok {
		p.Reportf(call.Args[2].Pos(), "PromWriter.Family type for %q must be a constant string", name)
	} else if typ != m.Type {
		p.Reportf(call.Args[2].Pos(), "type for %q differs from the registry catalog (got %q, registry has %q)", name, typ, m.Type)
	}
}

// checkMetricRef flags constant rp_* names that reference unregistered
// families at use sites (Sample, Histogram, QuantileGauges,
// FindFamily). Non-constant and non-rp_ arguments pass: helpers that
// forward a name variable are checked at their own Family call.
func checkMetricRef(p *Pass, call *ast.CallExpr, argIdx int) {
	if len(call.Args) <= argIdx {
		return
	}
	name, ok := constString(p.Pkg.Info, call.Args[argIdx])
	if !ok || !strings.HasPrefix(name, "rp_") {
		return
	}
	if _, registered := p.Cfg.Metrics[name]; !registered {
		p.Reportf(call.Args[argIdx].Pos(), "metric family %q is not registered in internal/registry", name)
	}
}

// checkExemplarRef enforces that HistogramExemplars call sites target
// families declared exemplar-bearing in the registry. The catalog's
// Exemplars flag is the documented contract for which series carry
// trace IDs; attaching them elsewhere drifts the scrape surface from
// the catalog without any runtime failure.
func checkExemplarRef(p *Pass, call *ast.CallExpr) {
	if len(call.Args) < 1 {
		return
	}
	name, ok := constString(p.Pkg.Info, call.Args[0])
	if !ok || !strings.HasPrefix(name, "rp_") {
		return
	}
	m, registered := p.Cfg.Metrics[name]
	if !registered {
		p.Reportf(call.Args[0].Pos(), "metric family %q is not registered in internal/registry", name)
		return
	}
	if !m.Exemplars {
		p.Reportf(call.Args[0].Pos(), "family %q carries exemplars at this call site but is not registered with Exemplars: true in internal/registry", name)
	}
}
