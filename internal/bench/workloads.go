package bench

import (
	"fmt"
	"strings"

	"wfe"
)

// DSNames lists the structures BuildPublicKV builds, in figure order.
var DSNames = []string{"wfqueue", "turnqueue", "list", "hashmap", "tree"}

// PublicKV adapts one shipped public structure to the workload drivers:
// the figure runner and the root package's BenchmarkFig*. Every call goes
// through the structure's Guarded method on the caller's guard. Queues
// ignore the key on Remove and panic on Get/Put; keys double as values
// everywhere. The writes return the structure's error:
// wfe.ErrArenaExhausted when the arena stays full.
type PublicKV interface {
	Insert(g *wfe.Guard[uint64], k uint64) (bool, error)
	Remove(g *wfe.Guard[uint64], k uint64) bool
	Get(g *wfe.Guard[uint64], k uint64) bool
	Put(g *wfe.Guard[uint64], k uint64) error
	Len() int
}

// guardedQueue is the method set WFQueue and TurnQueue share.
type guardedQueue interface {
	TryEnqueueGuarded(g *wfe.Guard[uint64], v uint64) error
	DequeueGuarded(g *wfe.Guard[uint64]) (uint64, bool)
	Len() int
}

type pubQueue struct{ q guardedQueue }

func (p pubQueue) Insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	return true, p.q.TryEnqueueGuarded(g, k)
}
func (p pubQueue) Remove(g *wfe.Guard[uint64], k uint64) bool {
	_, ok := p.q.DequeueGuarded(g)
	return ok
}
func (p pubQueue) Get(*wfe.Guard[uint64], uint64) bool  { panic("bench: queues have no get") }
func (p pubQueue) Put(*wfe.Guard[uint64], uint64) error { panic("bench: queues have no put") }
func (p pubQueue) Len() int                             { return p.q.Len() }

type pubHashMap struct{ m *wfe.HashMap[uint64] }

func (p pubHashMap) Insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	return p.m.TryInsertGuarded(g, k, k)
}
func (p pubHashMap) Remove(g *wfe.Guard[uint64], k uint64) bool { return p.m.DeleteGuarded(g, k) }
func (p pubHashMap) Get(g *wfe.Guard[uint64], k uint64) bool {
	_, ok := p.m.GetGuarded(g, k)
	return ok
}
func (p pubHashMap) Put(g *wfe.Guard[uint64], k uint64) error { return p.m.TryPutGuarded(g, k, k) }
func (p pubHashMap) Len() int                                 { return p.m.Len() }

type pubTree struct{ t *wfe.Tree[uint64] }

func (p pubTree) Insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	return p.t.TryInsertGuarded(g, k, k)
}
func (p pubTree) Remove(g *wfe.Guard[uint64], k uint64) bool { return p.t.DeleteGuarded(g, k) }
func (p pubTree) Get(g *wfe.Guard[uint64], k uint64) bool {
	_, ok := p.t.GetGuarded(g, k)
	return ok
}
func (p pubTree) Put(g *wfe.Guard[uint64], k uint64) error { return p.t.TryPutGuarded(g, k, k) }
func (p pubTree) Len() int                                 { return p.t.Len() }

// BuildPublicKV instantiates one public structure on the Domain: the
// paper's Figure 5 queues (wfqueue, turnqueue), its sorted linked list as
// a one-bucket HashMap (list), a HashMap of keyRange buckets (hashmap) and
// the Natarajan–Mittal Tree (tree).
func BuildPublicKV(name string, d *wfe.Domain[uint64], keyRange uint64) PublicKV {
	switch name {
	case "wfqueue":
		return pubQueue{wfe.NewWFQueue[uint64](d)}
	case "turnqueue":
		return pubQueue{wfe.NewTurnQueue[uint64](d)}
	case "list":
		return pubHashMap{wfe.NewHashMap[uint64](d, 1)}
	case "hashmap":
		return pubHashMap{wfe.NewHashMap[uint64](d, int(keyRange))}
	case "tree":
		return pubTree{wfe.NewTree[uint64](d)}
	}
	panic("bench: unknown data structure " + name)
}

// IsQueue reports whether the structure only supports insert/remove.
func IsQueue(name string) bool { return name == "wfqueue" || name == "turnqueue" }

// ParseScheme maps a scheme's legend name to its kind, accepting the
// forced-slow-path variants "WFE-slow" and "WFE-IBR-slow" (the paper's §5
// stress validation) as their base scheme with forceSlow set.
func ParseScheme(name string) (kind wfe.SchemeKind, forceSlow bool, err error) {
	base, forceSlow := strings.CutSuffix(name, "-slow")
	if forceSlow && base != "WFE" && base != "WFE-IBR" {
		return 0, false, fmt.Errorf("bench: scheme %q has no forced-slow variant", base)
	}
	kind, err = wfe.ParseScheme(base)
	return kind, forceSlow, err
}

// MaxTurnGuards is the CRTurn claim word's tid capacity: TurnQueue domains
// must keep MaxGuards below 255, so sweeps clamp their thread counts.
const MaxTurnGuards = 254
