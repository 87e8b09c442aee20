// Package schemes is the registry tying every reclamation scheme to its
// benchmark name, so the harness, tests, examples — and the Domain's live
// scheme switch, which rebuilds schemes at runtime — can instantiate any
// of them uniformly.
package schemes

import (
	"fmt"

	"wfe/internal/core"
	"wfe/internal/ebr"
	"wfe/internal/hp"
	"wfe/internal/leak"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

// A Factory constructs one reclamation scheme over an arena. Factories are
// total: configuration errors are the constructors' to panic on, name
// resolution errors are Lookup's.
type Factory func(*mem.Arena, reclaim.Config) reclaim.Scheme

// registry maps every legend name — plus the -slow ablation variants,
// which pin ForceSlowPath before construction — to its factory.
var registry = map[string]Factory{
	"WFE": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return core.New(a, cfg) },
	"WFE-slow": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme {
		// ablation A2: every GetProtected takes the slow path
		cfg.ForceSlowPath = true
		return core.New(a, cfg)
	},
	"HE":     func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return core.NewHE(a, cfg) },
	"HP":     func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return hp.New(a, cfg) },
	"EBR":    func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return ebr.New(a, cfg) },
	"2GEIBR": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return core.NewIBR(a, cfg) },
	// extension: the paper's §2.4 remark — wait-free 2GEIBR
	"WFE-IBR": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return core.NewWFEIBR(a, cfg) },
	"WFE-IBR-slow": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme {
		cfg.ForceSlowPath = true
		return core.NewWFEIBR(a, cfg)
	},
	"Leak": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return leak.New(a, cfg) },
}

// Names lists the schemes in the paper's legend order.
func Names() []string {
	return []string{"WFE", "HE", "HP", "EBR", "2GEIBR", "Leak"}
}

// Lookup resolves a scheme name to its factory without constructing
// anything — the validation half of New, for callers (the live scheme
// switch) that must fail fast before committing to a swap.
func Lookup(name string) (Factory, bool) {
	f, ok := registry[name]
	return f, ok
}

// New instantiates the named scheme over the given arena.
func New(name string, arena *mem.Arena, cfg reclaim.Config) (reclaim.Scheme, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("schemes: unknown scheme %q", name)
	}
	return f(arena, cfg), nil
}
