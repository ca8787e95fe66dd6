// Package bind constructs the datapath implied by a scheduled, allocated
// and bound data-flow graph: value lifetime analysis, left-edge register
// allocation, multiplexer sizing, and the area cost model combining
// functional units, registers and interconnect.
//
// The paper's objective is minimum area "using least interconnect"; the
// area coefficients for registers and multiplexer inputs are not published
// in the two-page paper, so CostModel exposes them with documented
// defaults chosen to keep interconnect secondary to functional-unit area
// (as in the original Table 1 scale).
package bind

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// CostModel holds the area coefficients of the datapath cost function.
type CostModel struct {
	// RegisterArea is the area of one storage register.
	RegisterArea float64
	// MuxInputArea is the area per multiplexer input beyond the first on
	// any functional-unit or register input port.
	MuxInputArea float64
}

// DefaultCostModel returns the coefficients used by the experiments:
// registers cost 12 area units and each extra multiplexer input 4 — small
// against the 87..339 functional units of Table 1, matching the paper's
// "least interconnect" secondary objective.
func DefaultCostModel() CostModel {
	return CostModel{RegisterArea: 12, MuxInputArea: 4}
}

// FU is one allocated functional-unit instance with the operations bound
// to it.
type FU struct {
	// Module is the library module of this instance.
	Module *library.Module
	// Ops are the operations sharing the instance, in ID order.
	Ops []cdfg.NodeID
}

// Lifetime is the register-relevant live interval of the value produced by
// a node: [Birth, LastUse] in cycles, inclusive. Birth is the producer's
// end cycle; LastUse is the latest consumer start cycle.
type Lifetime struct {
	Producer cdfg.NodeID
	Birth    int
	LastUse  int
}

// Overlaps reports whether two lifetimes cannot share a register.
func (a Lifetime) Overlaps(b Lifetime) bool {
	return a.Birth <= b.LastUse && b.Birth <= a.LastUse
}

// Lifetimes computes the live interval of every value that must be stored:
// one per node that has at least one consumer, in producer order. Output
// nodes produce no storable value (they transfer off-chip).
func Lifetimes(g *cdfg.Graph, s *sched.Schedule) []Lifetime {
	return appendLifetimes(nil, g, s)
}

func appendLifetimes(out []Lifetime, g *cdfg.Graph, s *sched.Schedule) []Lifetime {
	for i := 0; i < g.N(); i++ {
		id := cdfg.NodeID(i)
		succs := g.Succs(id)
		if len(succs) == 0 || g.Node(id).Op == cdfg.Output {
			continue
		}
		last := 0
		for _, v := range succs {
			if s.Start[v] > last {
				last = s.Start[v]
			}
		}
		out = append(out, Lifetime{Producer: id, Birth: s.End(id), LastUse: last})
	}
	return out
}

// Register is one allocated register with the values (producer node IDs)
// stored in it over time.
type Register struct {
	Values []cdfg.NodeID
}

// LeftEdge allocates registers for the given lifetimes with the classical
// left-edge algorithm: intervals sorted by birth (ties by producer) are
// packed greedily into the lowest-index register whose current occupant
// has expired. The number of registers returned equals the maximum number
// of simultaneously live values (optimal for interval graphs).
func LeftEdge(lifetimes []Lifetime) []Register {
	var sc Scratch
	sc.lts = append(sc.lts, lifetimes...)
	slices.SortStableFunc(sc.lts, func(a, b Lifetime) int { return cmp.Compare(a.Producer, b.Producer) })
	sc.leftEdge()
	return sc.registers()
}

// MaxOverlap returns the maximum number of simultaneously live values —
// the lower bound on register count (clique number of the interval graph).
func MaxOverlap(lifetimes []Lifetime) int {
	best := 0
	for _, a := range lifetimes {
		n := 0
		for _, b := range lifetimes {
			if a.Birth >= b.Birth && a.Birth <= b.LastUse {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// Datapath is the fully bound datapath: functional units, registers and
// multiplexer statistics, with its area breakdown.
type Datapath struct {
	FUs       []FU
	Registers []Register
	// FUMuxInputs is the total number of multiplexer inputs in front of
	// functional-unit operand ports (an FU port fed from k distinct
	// registers needs a k-input mux; k-1 inputs are counted as cost).
	FUMuxInputs int
	// RegMuxInputs is the analogous count for register write ports.
	RegMuxInputs int
	// Area breakdown.
	FUArea, RegArea, MuxArea float64
}

// TotalArea returns the complete datapath area.
func (d *Datapath) TotalArea() float64 { return d.FUArea + d.RegArea + d.MuxArea }

// ErrBinding indicates an inconsistent node-to-FU binding.
var ErrBinding = errors.New("inconsistent binding")

// Build assembles the datapath for a schedule and an FU binding. fuOf maps
// each node to an index into fus. It verifies that the binding is
// consistent: every node maps to an instance whose module implements its
// operation, and operations sharing an instance never overlap in time.
func Build(g *cdfg.Graph, s *sched.Schedule, fus []FU, fuOf []int, cm CostModel) (*Datapath, error) {
	var sc Scratch
	if _, err := sc.Eval(g, s, fus, fuOf, cm); err != nil {
		return nil, err
	}
	return sc.Datapath(fus), nil
}

// Scratch holds the working buffers of datapath construction. Eval runs
// every check and cost computation of Build without materializing the
// datapath, so a Scratch reused across evaluations of graphs of bounded
// size allocates nothing once its buffers have grown (a failed check still
// allocates its error). The zero value is ready to use. Not safe for
// concurrent use.
type Scratch struct {
	order  []cdfg.NodeID // one instance's ops in start order
	lts    []Lifetime    // stored values in producer order
	sorted []Lifetime    // lts in (birth, producer) order
	count  []int         // counting-sort buckets, one per birth cycle
	// Left-edge result: reg[k] is the register of sorted[k]; each
	// register's values form a list head[r] -> next[k] -> ... -> -1 in
	// allocation order; last[r] is the last cycle register r is occupied.
	reg, next  []int
	head, tail []int
	last       []int
	regOf      []int // producer node -> register, -1 when not stored
	stamp      []int // distinct-source marks, one generation per count
	gen        int

	fuMux, regMux int
	fuArea        float64
	cm            CostModel
}

// Eval checks the binding of fus/fuOf against the schedule exactly as
// Build does and returns the total area of the datapath Build would
// return. After a successful Eval, Datapath materializes that datapath.
func (sc *Scratch) Eval(g *cdfg.Graph, s *sched.Schedule, fus []FU, fuOf []int, cm CostModel) (float64, error) {
	n := g.N()
	if len(fuOf) != n {
		return 0, fmt.Errorf("bind: fuOf has %d entries for %d nodes: %w", len(fuOf), n, ErrBinding)
	}
	for i := 0; i < n; i++ {
		fi := fuOf[i]
		if fi < 0 || fi >= len(fus) {
			return 0, fmt.Errorf("bind: node %q bound to FU %d of %d: %w", g.Node(cdfg.NodeID(i)).Name, fi, len(fus), ErrBinding)
		}
		if op := g.Node(cdfg.NodeID(i)).Op; !fus[fi].Module.Implements(op) {
			return 0, fmt.Errorf("bind: node %q (%s) bound to module %q: %w", g.Node(cdfg.NodeID(i)).Name, op, fus[fi].Module.Name, ErrBinding)
		}
	}
	// No time overlap within an instance.
	for fi, fu := range fus {
		ops := append(sc.order[:0], fu.Ops...)
		sc.order = ops
		slices.SortFunc(ops, func(a, b cdfg.NodeID) int {
			if c := cmp.Compare(s.Start[a], s.Start[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for k := 1; k < len(ops); k++ {
			prev, cur := ops[k-1], ops[k]
			if s.Start[cur] < s.End(prev) {
				return 0, fmt.Errorf("bind: FU %d (%s): ops %q and %q overlap in time: %w",
					fi, fu.Module.Name, g.Node(prev).Name, g.Node(cur).Name, ErrBinding)
			}
		}
		for _, op := range fu.Ops {
			if fuOf[op] != fi {
				return 0, fmt.Errorf("bind: FU %d lists op %q but fuOf disagrees: %w", fi, g.Node(op).Name, ErrBinding)
			}
		}
	}

	sc.lts = appendLifetimes(slices.Grow(sc.lts[:0], n), g, s)
	sc.leftEdge()
	nregs := len(sc.head)
	sc.regOf = fill(sc.regOf, n, -1)
	for k, lt := range sc.sorted {
		sc.regOf[lt.Producer] = sc.reg[k]
	}
	sc.stamp = fill(sc.stamp, max(nregs, len(fus)), 0)

	// FU operand multiplexers: for each instance and operand position, the
	// number of distinct source registers across its bound operations.
	sc.fuMux, sc.regMux = 0, 0
	for _, fu := range fus {
		maxPorts := 0
		for _, op := range fu.Ops {
			maxPorts = max(maxPorts, len(g.Preds(op)))
		}
		for port := 0; port < maxPorts; port++ {
			sc.gen++
			sources := 0
			for _, op := range fu.Ops {
				preds := g.Preds(op)
				if port >= len(preds) {
					continue
				}
				if r := sc.regOf[preds[port]]; r >= 0 && sc.stamp[r] != sc.gen {
					sc.stamp[r] = sc.gen
					sources++
				}
			}
			if sources > 1 {
				sc.fuMux += sources - 1
			}
		}
	}
	// Register write multiplexers: distinct producing FUs per register.
	for r := 0; r < nregs; r++ {
		sc.gen++
		writers := 0
		for k := sc.head[r]; k >= 0; k = sc.next[k] {
			if f := fuOf[sc.sorted[k].Producer]; sc.stamp[f] != sc.gen {
				sc.stamp[f] = sc.gen
				writers++
			}
		}
		if writers > 1 {
			sc.regMux += writers - 1
		}
	}

	sc.fuArea = 0
	for _, fu := range fus {
		sc.fuArea += fu.Module.Area
	}
	sc.cm = cm
	d := Datapath{FUArea: sc.fuArea, RegArea: sc.regArea(), MuxArea: sc.muxArea()}
	return d.TotalArea(), nil
}

// Datapath materializes the datapath of the last successful Eval. fus must
// list the evaluated instances (the same slice or a copy of it); the
// result references fus but none of the scratch buffers.
func (sc *Scratch) Datapath(fus []FU) *Datapath {
	return &Datapath{
		FUs:          fus,
		Registers:    sc.registers(),
		FUMuxInputs:  sc.fuMux,
		RegMuxInputs: sc.regMux,
		FUArea:       sc.fuArea,
		RegArea:      sc.regArea(),
		MuxArea:      sc.muxArea(),
	}
}

func (sc *Scratch) regArea() float64 { return float64(len(sc.head)) * sc.cm.RegisterArea }

func (sc *Scratch) muxArea() float64 {
	return float64(sc.fuMux+sc.regMux) * sc.cm.MuxInputArea
}

// leftEdge runs the left-edge allocation over sc.lts, which must be in
// producer order: a stable counting sort on birth yields the (birth,
// producer) order, and each value goes to the lowest-index register whose
// occupant expired before its birth.
func (sc *Scratch) leftEdge() {
	sc.sortByBirth()
	sc.reg = fill(sc.reg, len(sc.sorted), 0)
	sc.next = fill(sc.next, len(sc.sorted), -1)
	nv := len(sc.sorted) // an upper bound on the register count
	sc.head, sc.tail, sc.last = slices.Grow(sc.head[:0], nv), slices.Grow(sc.tail[:0], nv), slices.Grow(sc.last[:0], nv)
	for k, lt := range sc.sorted {
		r := 0
		for r < len(sc.head) && sc.last[r] >= lt.Birth {
			r++
		}
		if r == len(sc.head) {
			sc.head = append(sc.head, k)
			sc.tail = append(sc.tail, k)
			sc.last = append(sc.last, lt.LastUse)
		} else {
			sc.next[sc.tail[r]] = k
			sc.tail[r] = k
			sc.last[r] = lt.LastUse
		}
		sc.reg[k] = r
	}
}

// sortByBirth fills sc.sorted with sc.lts stably sorted by birth, by a
// counting sort with one bucket per cycle of the birth range. Lifetimes of
// a schedule are born within its length, so there are at most as many
// buckets as the schedule has cycles. slices.SortStableFunc in its place
// lowers scale-mix throughput by about 10%.
func (sc *Scratch) sortByBirth() {
	sc.sorted = append(sc.sorted[:0], sc.lts...)
	if len(sc.lts) == 0 {
		return
	}
	lo, hi := sc.lts[0].Birth, sc.lts[0].Birth
	for _, lt := range sc.lts {
		lo, hi = min(lo, lt.Birth), max(hi, lt.Birth)
	}
	sc.count = fill(sc.count, hi-lo+2, 0)
	for _, lt := range sc.lts {
		sc.count[lt.Birth-lo+1]++
	}
	for b := 1; b < len(sc.count); b++ {
		sc.count[b] += sc.count[b-1]
	}
	for _, lt := range sc.lts {
		sc.sorted[sc.count[lt.Birth-lo]] = lt
		sc.count[lt.Birth-lo]++
	}
}

// registers materializes the left-edge allocation.
func (sc *Scratch) registers() []Register {
	if len(sc.head) == 0 {
		return nil
	}
	regs := make([]Register, len(sc.head))
	vals := make([]cdfg.NodeID, 0, len(sc.sorted))
	for r := range regs {
		from := len(vals)
		for k := sc.head[r]; k >= 0; k = sc.next[k] {
			vals = append(vals, sc.sorted[k].Producer)
		}
		regs[r].Values = vals[from:len(vals):len(vals)]
	}
	return regs
}

// fill returns buf resized to n entries, all set to v, reusing its
// storage when large enough.
func fill(buf []int, n, v int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// Report renders a human-readable datapath summary.
func (d *Datapath) Report(g *cdfg.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "functional units (%d):\n", len(d.FUs))
	for i, fu := range d.FUs {
		names := make([]string, len(fu.Ops))
		for j, op := range fu.Ops {
			names[j] = g.Node(op).Name
		}
		fmt.Fprintf(&sb, "  FU%-3d %-12s area %6.1f  ops: %s\n", i, fu.Module.Name, fu.Module.Area, strings.Join(names, " "))
	}
	fmt.Fprintf(&sb, "registers: %d, fu-mux inputs: %d, reg-mux inputs: %d\n",
		len(d.Registers), d.FUMuxInputs, d.RegMuxInputs)
	fmt.Fprintf(&sb, "area: FU %.1f + registers %.1f + interconnect %.1f = %.1f\n",
		d.FUArea, d.RegArea, d.MuxArea, d.TotalArea())
	return sb.String()
}
