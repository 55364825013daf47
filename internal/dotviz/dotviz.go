// Package dotviz renders append-memory executions as Graphviz DOT:
// blocks as boxes (Byzantine authors red), parent references as edges
// (the DAG's selected-parent edge bold), and the decision prefix — the
// first k blocks of the chain or of the DAG ordering — in bold outline.
// Used by cmd/amdot; kept as a library so rendering is testable and
// reusable from experiments.
package dotviz

import (
	"fmt"
	"strings"

	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
)

// Options configures a rendering.
type Options struct {
	// IsByzantine marks authors to colour red; nil means nobody.
	IsByzantine func(appendmem.NodeID) bool
	// K bounds the bolded decision prefix; 0 means no prefix highlighting.
	K int
}

func (o Options) byz(id appendmem.NodeID) bool {
	return o.IsByzantine != nil && o.IsByzantine(id)
}

// Chain renders view as a blockchain: Parents[0] edges only, decision
// prefix = first K blocks of the first-arrived longest chain.
func Chain(view appendmem.View, o Options) string {
	prefix := map[appendmem.MsgID]bool{}
	if o.K > 0 {
		ids := chain.Build(view).SelectedChain(chain.FirstTieBreaker{})
		if len(ids) > o.K {
			ids = ids[:o.K]
		}
		for _, id := range ids {
			prefix[id] = true
		}
	}
	return render(view, o, prefix, false)
}

// Dag renders view as a BlockDAG: all parent edges, the selected-parent
// edge emphasized, decision prefix = first K blocks of the GHOST ordering.
func Dag(view appendmem.View, o Options) string {
	prefix := map[appendmem.MsgID]bool{}
	if o.K > 0 {
		d := dag.Build(view)
		order := d.Linearize(d.GhostPivot())
		if len(order) > o.K {
			order = order[:o.K]
		}
		for _, id := range order {
			prefix[id] = true
		}
	}
	return render(view, o, prefix, true)
}

func render(view appendmem.View, o Options, prefix map[appendmem.MsgID]bool, allParents bool) string {
	var b strings.Builder
	b.WriteString("digraph appendmemory {\n  rankdir=BT;\n  node [shape=box, fontsize=9];\n")
	b.WriteString("  genesis [label=\"∅\", shape=ellipse];\n")
	for _, msg := range view.Messages() {
		color := "black"
		if o.byz(msg.Author) {
			color = "red"
		}
		style := "solid"
		if prefix[msg.ID] {
			style = "bold"
		}
		fmt.Fprintf(&b, "  m%d [label=\"%d: v%d %+d\", color=%s, style=%s];\n",
			msg.ID, msg.ID, msg.Author, msg.Value, color, style)
		if len(msg.Parents) == 0 {
			fmt.Fprintf(&b, "  m%d -> genesis;\n", msg.ID)
			continue
		}
		parents := msg.Parents
		if !allParents {
			parents = parents[:1]
		}
		for i, p := range parents {
			target := "genesis"
			if p != appendmem.None {
				target = fmt.Sprintf("m%d", p)
			}
			attr := ""
			if allParents && i == 0 {
				attr = " [penwidth=2]"
			}
			fmt.Fprintf(&b, "  m%d -> %s%s;\n", msg.ID, target, attr)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
