package registry

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	if problems := Validate(); len(problems) != 0 {
		t.Fatalf("registry invalid:\n%s", strings.Join(problems, "\n"))
	}
}

func TestLookupMetric(t *testing.T) {
	m, ok := LookupMetric(MetricRequestsTotal)
	if !ok {
		t.Fatalf("LookupMetric(%q) not found", MetricRequestsTotal)
	}
	if m.Type != "counter" || m.Help == "" {
		t.Errorf("unexpected catalog entry: %+v", m)
	}
	if _, ok := LookupMetric("rp_no_such_family"); ok {
		t.Error("LookupMetric found a family that does not exist")
	}
}

func TestNamingConventions(t *testing.T) {
	for _, name := range MetricNames() {
		if !strings.HasPrefix(name, "rp_") {
			t.Errorf("metric %q does not carry the rp_ namespace", name)
		}
	}
	for _, p := range FaultPoints() {
		if !strings.Contains(p, "/") {
			t.Errorf("fault point %q is not package/site-shaped", p)
		}
	}
	if len(TraceStages()) == 0 {
		t.Error("no trace stages registered")
	}
}

func TestLockOrderShape(t *testing.T) {
	order := LockOrder()
	if len(order) == 0 {
		t.Fatal("no lock classes registered")
	}
	for _, class := range order {
		// Classes are "pkg.Type.field" or "pkg.var": dotted, no
		// pointer/paren syntax.
		if strings.Count(class, ".") < 1 || strings.ContainsAny(class, "(*) ") {
			t.Errorf("lock class %q is not pkg.Type.field / pkg.var shaped", class)
		}
	}
	// The empirically-validated critical edges: the job manager's
	// mutex must rank before the WAL's and the recording's (dispatch
	// appends to the WAL and attaches spans while holding it).
	rank := make(map[string]int, len(order))
	for i, class := range order {
		rank[class] = i
	}
	for _, edge := range [][2]string{
		{LockJobsManager, LockWALLog},
		{LockJobsManager, LockTraceRecording},
	} {
		ri, iok := rank[edge[0]]
		rj, jok := rank[edge[1]]
		if !iok || !jok {
			t.Fatalf("edge %v references unranked classes", edge)
		}
		if ri >= rj {
			t.Errorf("%s must rank before %s (observed nesting in jobs dispatch)", edge[0], edge[1])
		}
	}
}
