package engine

import (
	"fmt"
	"sort"
	"strings"

	"dswp/internal/workloads"
)

// resolve maps a request onto a workload builder and the cache key its
// compiled pipeline lives under. The key captures everything that changes
// the compile: the workload and its parameters, and every transform
// config field a request can set. Unknown names fail with
// *UnknownWorkloadError, and an unknown mode with *UnknownModeError,
// before the request is admitted.
func resolve(req Request) (func() *workloads.Program, string, error) {
	switch req.Mode {
	case "", "supervised", "concurrent", "sequential":
	default:
		return nil, "", &UnknownModeError{Name: req.Mode}
	}
	var build func() *workloads.Program
	ident := req.Workload
	switch req.Workload {
	case "list-traversal":
		n := req.N
		if n <= 0 {
			n = 1024
		}
		ident = fmt.Sprintf("list-traversal[n=%d]", n)
		build = func() *workloads.Program { return workloads.ListTraversal(n) }
	case "list-of-lists":
		outer, inner := req.Outer, req.Inner
		if outer <= 0 {
			outer = 64
		}
		if inner <= 0 {
			inner = 8
		}
		ident = fmt.Sprintf("list-of-lists[outer=%d,inner=%d]", outer, inner)
		o, i := outer, inner
		build = func() *workloads.Program { return workloads.ListOfLists(o, i) }
	default:
		for _, b := range builtins() {
			if b.Name == req.Workload {
				build = b.Build
				break
			}
		}
	}
	if build == nil {
		return nil, "", &UnknownWorkloadError{Name: req.Workload}
	}

	threads := req.Threads
	if threads <= 0 {
		threads = 2
	}
	key := fmt.Sprintf("%s|t=%d|pack=%t|master=%t|consmem=%t|rep=%t|w=%d",
		ident, threads, req.PackFlows, req.MasterLoop, req.ConservativeMemory,
		req.Replicate, req.ReplicaWidth)
	return build, key, nil
}

// identOf is the workload ident a resolve key starts with: the workload
// and its parameters, without the transform config.
func identOf(key string) string {
	ident, _, _ := strings.Cut(key, "|")
	return ident
}

func builtins() []workloads.Builder {
	out := append(workloads.Table1Suite(), workloads.CaseStudies()...)
	return append(out, workloads.ReplicationSuite()...)
}

// Workloads lists every servable workload name, sorted — the two
// parametric list kernels plus the Table 1 suite and §5 case studies.
func Workloads() []string {
	names := []string{"list-traversal", "list-of-lists"}
	for _, b := range builtins() {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	return names
}
