package cdfg

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a node within one Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1 in insertion order.
type NodeID int

// None is the sentinel "no node" value.
const None NodeID = -1

// Node is one operation instance in a data-flow graph.
type Node struct {
	ID   NodeID // dense identifier within the owning graph
	Name string // unique human-readable name, e.g. "u7" or "mul3"
	Op   Op     // the operation the node performs
}

// Graph is a directed acyclic data-flow graph. The zero value is an empty
// graph ready for use. Graphs are not safe for concurrent mutation.
type Graph struct {
	// Name labels the graph, e.g. the benchmark name "hal".
	Name string

	nodes  []Node
	succs  [][]NodeID
	preds  [][]NodeID
	byName map[string]NodeID
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]NodeID)}
}

// ErrDuplicateName is wrapped by AddNode when a node name is reused.
var ErrDuplicateName = errors.New("duplicate node name")

// ErrCycle is wrapped by Validate and TopoOrder when the graph contains a
// directed cycle.
var ErrCycle = errors.New("graph contains a cycle")

// ErrSelfLoop is wrapped by AddEdge when both endpoints are the same node.
var ErrSelfLoop = errors.New("self-loop edge")

// ErrDuplicateEdge is wrapped by AddEdge when the edge already exists.
var ErrDuplicateEdge = errors.New("duplicate edge")

// ErrUnknownNode is wrapped by the text and JSON parsers when an edge
// references a node that was never declared.
var ErrUnknownNode = errors.New("unknown node")

// AddNode appends a node with the given unique name and operation and
// returns its identifier.
func (g *Graph) AddNode(name string, op Op) (NodeID, error) {
	if !op.Valid() {
		return None, fmt.Errorf("cdfg: AddNode(%q): invalid operation", name)
	}
	if name == "" {
		return None, fmt.Errorf("cdfg: AddNode: empty node name")
	}
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
	}
	if _, dup := g.byName[name]; dup {
		return None, fmt.Errorf("cdfg: AddNode(%q): %w", name, ErrDuplicateName)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Op: op})
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	g.byName[name] = id
	return id, nil
}

// MustAddNode is AddNode for statically-known-good construction (benchmark
// graphs); it panics on error.
func (g *Graph) MustAddNode(name string, op Op) NodeID {
	id, err := g.AddNode(name, op)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge records a data dependency from node u to node v (v consumes the
// value produced by u). Parallel edges are rejected; self-loops are
// rejected. Cycle detection is deferred to Validate/TopoOrder.
func (g *Graph) AddEdge(u, v NodeID) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("cdfg: AddEdge(%d,%d): node id out of range [0,%d)", u, v, len(g.nodes))
	}
	if u == v {
		return fmt.Errorf("cdfg: AddEdge: node %q: %w", g.nodes[u].Name, ErrSelfLoop)
	}
	for _, w := range g.succs[u] {
		if w == v {
			return fmt.Errorf("cdfg: AddEdge: %q -> %q: %w", g.nodes[u].Name, g.nodes[v].Name, ErrDuplicateEdge)
		}
	}
	g.succs[u] = append(g.succs[u], v)
	g.preds[v] = append(g.preds[v], u)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.nodes) }

// E returns the number of edges.
func (g *Graph) E() int {
	n := 0
	for _, s := range g.succs {
		n += len(s)
	}
	return n
}

// Node returns the node with the given identifier. It panics if id is out
// of range (programmer error: IDs are only minted by AddNode).
func (g *Graph) Node(id NodeID) Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("cdfg: Node(%d): out of range [0,%d)", id, len(g.nodes)))
	}
	return g.nodes[id]
}

// Lookup returns the node with the given name.
func (g *Graph) Lookup(name string) (Node, bool) {
	id, ok := g.byName[name]
	if !ok {
		return Node{}, false
	}
	return g.nodes[id], true
}

// Succs returns the successors (consumers) of id. The returned slice is
// owned by the graph and must not be mutated.
func (g *Graph) Succs(id NodeID) []NodeID { return g.succs[id] }

// Preds returns the predecessors (producers) of id. The returned slice is
// owned by the graph and must not be mutated.
func (g *Graph) Preds(id NodeID) []NodeID { return g.preds[id] }

// Nodes returns all nodes in ID order. The slice is freshly allocated.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodesOf returns the IDs of all nodes performing op, in ID order.
func (g *Graph) NodesOf(op Op) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Op == op {
			out = append(out, n.ID)
		}
	}
	return out
}

// Sources returns nodes with no predecessors, in ID order.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.preds[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Sinks returns nodes with no successors, in ID order.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.succs[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	c.nodes = make([]Node, len(g.nodes))
	copy(c.nodes, g.nodes)
	c.succs = make([][]NodeID, len(g.succs))
	c.preds = make([][]NodeID, len(g.preds))
	for i := range g.succs {
		c.succs[i] = append([]NodeID(nil), g.succs[i]...)
		c.preds[i] = append([]NodeID(nil), g.preds[i]...)
	}
	for k, v := range g.byName {
		c.byName[k] = v
	}
	return c
}

// Reverse returns a new graph with every edge direction flipped. Node IDs,
// names and operations are preserved. Reversal maps Input nodes to Input
// and Output to Output (the operation labels are not swapped): the reversed
// graph is a scheduling artifact, not a semantic data-flow graph, and is
// used to derive ALAP-style schedules by running ASAP-style passes on it.
func (g *Graph) Reverse() *Graph {
	r := New(g.Name + ".rev")
	r.nodes = make([]Node, len(g.nodes))
	copy(r.nodes, g.nodes)
	r.succs = make([][]NodeID, len(g.succs))
	r.preds = make([][]NodeID, len(g.preds))
	for i := range g.succs {
		r.succs[i] = append([]NodeID(nil), g.preds[i]...)
		r.preds[i] = append([]NodeID(nil), g.succs[i]...)
	}
	for k, v := range g.byName {
		r.byName[k] = v
	}
	return r
}

// OpCounts returns the number of nodes per operation.
func (g *Graph) OpCounts() map[Op]int {
	m := make(map[Op]int)
	for _, n := range g.nodes {
		m[n.Op]++
	}
	return m
}

// Validate checks structural well-formedness: the graph is a DAG, node
// fan-ins respect each operation's arity bounds, Input nodes have no
// predecessors, and Output nodes have no successors. It returns the first
// violation found (with all violations joined when several exist).
func (g *Graph) Validate() error {
	var errs []error
	if _, err := g.TopoOrder(); err != nil {
		errs = append(errs, err)
	}
	for _, n := range g.nodes {
		in := len(g.preds[n.ID])
		if in > n.Op.MaxFanIn() {
			errs = append(errs, fmt.Errorf("cdfg: node %q (%s): fan-in %d exceeds maximum %d", n.Name, n.Op, in, n.Op.MaxFanIn()))
		}
		if in < n.Op.MinFanIn() {
			errs = append(errs, fmt.Errorf("cdfg: node %q (%s): fan-in %d below minimum %d", n.Name, n.Op, in, n.Op.MinFanIn()))
		}
		if n.Op == Output && len(g.succs[n.ID]) > 0 {
			errs = append(errs, fmt.Errorf("cdfg: output node %q has successors", n.Name))
		}
	}
	return errors.Join(errs...)
}

// TopoOrder returns the node IDs in a deterministic topological order
// (Kahn's algorithm with a smallest-ID-first tie-break). It returns an
// error wrapping ErrCycle if the graph is not acyclic.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for i := range g.nodes {
		indeg[i] = len(g.preds[i])
	}
	// ready is kept sorted ascending; smallest ID is popped first so the
	// order is deterministic and independent of insertion history.
	var ready []NodeID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, v := range g.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				i := sort.Search(len(ready), func(k int) bool { return ready[k] >= v })
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = v
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cdfg: graph %q: %w", g.Name, ErrCycle)
	}
	return order, nil
}

// CriticalPath returns the length of the longest path through the graph,
// where each node contributes delay(node) cycles, along with one longest
// path (as node IDs, source to sink). For an empty graph it returns (0, nil).
// delay must return a value >= 1 for every node; values < 1 are treated
// as 1.
func (g *Graph) CriticalPath(delay func(Node) int) (int, []NodeID) {
	order, err := g.TopoOrder()
	if err != nil || len(order) == 0 {
		return 0, nil
	}
	dist := make([]int, g.N())
	from := make([]NodeID, g.N())
	for i := range from {
		from[i] = None
	}
	best, bestEnd := 0, None
	for _, u := range order {
		d := delay(g.nodes[u])
		if d < 1 {
			d = 1
		}
		end := dist[u] + d
		if end > best {
			best, bestEnd = end, u
		}
		for _, v := range g.succs[u] {
			if end > dist[v] {
				dist[v] = end
				from[v] = u
			}
		}
	}
	var path []NodeID
	for u := bestEnd; u != None; u = from[u] {
		path = append(path, u)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path
}

// Reachability computes the transitive closure as a bitset matrix:
// result[u] has bit v set iff there is a directed path of one or more edges
// from u to v. It returns an error wrapping ErrCycle on cyclic graphs.
func (g *Graph) Reachability() (Bitmat, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return Bitmat{}, err
	}
	m := NewBitmat(g.N())
	// Process in reverse topological order so each node's successors'
	// closures are already complete.
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range g.succs[u] {
			m.Set(int(u), int(v))
			m.OrRow(int(u), int(v))
		}
	}
	return m, nil
}

// Bitmat is a square bit matrix used for reachability queries.
type Bitmat struct {
	n    int
	w    int // words per row
	bits []uint64
}

// NewBitmat returns an n x n all-zero bit matrix.
func NewBitmat(n int) Bitmat {
	w := (n + 63) / 64
	return Bitmat{n: n, w: w, bits: make([]uint64, n*w)}
}

// N returns the matrix dimension.
func (m Bitmat) N() int { return m.n }

// Set sets bit (r, c).
func (m Bitmat) Set(r, c int) { m.bits[r*m.w+c/64] |= 1 << uint(c%64) }

// Get reports bit (r, c).
func (m Bitmat) Get(r, c int) bool { return m.bits[r*m.w+c/64]&(1<<uint(c%64)) != 0 }

// Row returns row r as its backing words: bit c%64 of word c/64 is
// (r, c). The slice aliases the matrix; bits at c >= N() are zero.
func (m Bitmat) Row(r int) []uint64 { return m.bits[r*m.w : r*m.w+m.w] }

// OrRow ORs row src into row dst (dst |= src).
func (m Bitmat) OrRow(dst, src int) {
	d, s := m.Row(dst), m.Row(src)
	for i := range d {
		d[i] |= s[i]
	}
}

// String returns a short human-readable summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("cdfg %q: %d nodes, %d edges", g.Name, g.N(), g.E())
}
