package cdfg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The .cdfg text format is line oriented:
//
//	# comment (also ; comments)
//	graph <name>
//	node <name> <op>
//	edge <from-name> <to-name>
//
// Tokens are whitespace separated. The "graph" line is optional and may
// appear at most once, before any node. Nodes must be declared before they
// are referenced by an edge.

// Parse reads a graph in the .cdfg text format. The parsed graph is
// validated before being returned.
func Parse(r io.Reader) (*Graph, error) {
	g := New("")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	sawGraph := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("cdfg: line %d: want \"graph <name>\", got %q", lineNo, line)
			}
			if sawGraph {
				return nil, fmt.Errorf("cdfg: line %d: duplicate graph directive", lineNo)
			}
			if g.N() > 0 {
				return nil, fmt.Errorf("cdfg: line %d: graph directive must precede nodes", lineNo)
			}
			g.Name = fields[1]
			sawGraph = true
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("cdfg: line %d: want \"node <name> <op>\", got %q", lineNo, line)
			}
			op, err := ParseOp(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cdfg: line %d: %w", lineNo, err)
			}
			if _, err := g.AddNode(fields[1], op); err != nil {
				return nil, fmt.Errorf("cdfg: line %d: %w", lineNo, err)
			}
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("cdfg: line %d: want \"edge <from> <to>\", got %q", lineNo, line)
			}
			u, ok := g.byName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: edge references %w %q", lineNo, ErrUnknownNode, fields[1])
			}
			v, ok := g.byName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: edge references %w %q", lineNo, ErrUnknownNode, fields[2])
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("cdfg: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("cdfg: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cdfg: reading input: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Graph, error) { return Parse(strings.NewReader(s)) }

// Write serializes the graph in the .cdfg text format. The output parses
// back to an identical graph: same names, operations and edges, node IDs
// preserved because nodes are emitted in ID order, and each node's Preds
// order — the operand order Eval and the datapath's multiplexer ports read
// — preserved because edges are emitted in destination order, following
// Preds.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if g.Name != "" {
		fmt.Fprintf(bw, "graph %s\n", g.Name)
	}
	for _, n := range g.nodes {
		fmt.Fprintf(bw, "node %s %s\n", n.Name, n.Op)
	}
	for _, n := range g.nodes {
		for _, u := range g.preds[n.ID] {
			fmt.Fprintf(bw, "edge %s %s\n", g.nodes[u].Name, n.Name)
		}
	}
	return bw.Flush()
}

// Text returns the .cdfg serialization as a string.
func (g *Graph) Text() string {
	var sb strings.Builder
	_ = g.Write(&sb)
	return sb.String()
}

// Dot renders the graph in Graphviz DOT format. Nodes are labelled
// "name\nop"; transfer nodes are drawn as plain boxes, computations as
// ellipses. An optional rank function may assign nodes to time steps
// (e.g. a schedule); pass nil for no ranking.
func (g *Graph) Dot(rank func(NodeID) (step int, ok bool)) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", dotName(g.Name))
	sb.WriteString("  rankdir=TB;\n")
	for _, n := range g.nodes {
		shape := "ellipse"
		if n.Op.IsTransfer() {
			shape = "box"
		}
		fmt.Fprintf(&sb, "  %q [label=%q, shape=%s];\n", n.Name, fmt.Sprintf("%s\n%s", n.Name, n.Op), shape)
	}
	for _, n := range g.nodes {
		for _, u := range g.preds[n.ID] {
			fmt.Fprintf(&sb, "  %q -> %q;\n", g.nodes[u].Name, n.Name)
		}
	}
	if rank != nil {
		bySteps := make(map[int][]string)
		var steps []int
		for _, n := range g.nodes {
			if s, ok := rank(n.ID); ok {
				if _, seen := bySteps[s]; !seen {
					steps = append(steps, s)
				}
				bySteps[s] = append(bySteps[s], n.Name)
			}
		}
		sort.Ints(steps)
		for _, s := range steps {
			sb.WriteString("  { rank=same;")
			for _, name := range bySteps[s] {
				fmt.Fprintf(&sb, " %q;", name)
			}
			sb.WriteString(" }\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func dotName(s string) string {
	if s == "" {
		return "cdfg"
	}
	return s
}
