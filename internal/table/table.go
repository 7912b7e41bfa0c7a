// Package table renders protocol controllers as paper-style tables: one
// row per state, one column per event (with guard qualifiers), cells like
// "send Data to req and dir/S", "-/IMAD_S", "hit" or "stall".
package table

import (
	"fmt"
	"sort"
	"strings"

	"protogen/internal/ir"
)

// Options tune rendering. Guarded variants of an event always get
// columns of their own.
type Options struct {
	ShowStale bool // include generator-added stale handling rows
	MaxCell   int  // wrap width per cell (0 = unlimited)
}

// Render produces the ASCII table of one machine.
func Render(m *ir.Machine, o Options) string {
	cols := columns(m, o)
	rows := [][]string{headerRow(cols)}
	for _, s := range m.Order {
		st := m.State(s)
		name := string(s)
		if len(st.Aliases) > 0 {
			al := make([]string, len(st.Aliases))
			for i, a := range st.Aliases {
				al[i] = string(a)
			}
			name += " =" + strings.Join(al, "=")
		}
		row := []string{name}
		for _, c := range cols {
			row = append(row, cell(m, s, c, o))
		}
		rows = append(rows, row)
	}
	return layout(rows, o)
}

// column is one table column: an event plus optional guard qualifier.
type column struct {
	ev    ir.Event
	label string // column-level guard label ("" = unqualified)
}

func (c column) title() string {
	if c.label == "" {
		return c.ev.Label()
	}
	return fmt.Sprintf("%s (%s)", c.ev.Label(), shorten(c.label))
}

// shorten compacts common guard labels the way the paper's headers do.
func shorten(l string) string {
	l = strings.ReplaceAll(l, "acksReceived + 1 == acksExpected", "last")
	l = strings.ReplaceAll(l, "acksReceived + 1 != acksExpected", "not last")
	l = strings.ReplaceAll(l, "acks == 0", "ack=0")
	l = strings.ReplaceAll(l, "acks > 0", "ack>0")
	return l
}

func columns(m *ir.Machine, o Options) []column {
	seen := map[string]bool{}
	var out []column
	add := func(c column) {
		k := c.ev.String() + "|" + c.label
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	for _, ev := range m.Events() {
		labels := map[string]bool{}
		var ordered []string
		for _, t := range m.Trans {
			if t.Ev != ev {
				continue
			}
			if t.Stale && !o.ShowStale {
				continue
			}
			l := shorten(t.GuardLabel)
			if !labels[l] {
				labels[l] = true
				ordered = append(ordered, l)
			}
		}
		sort.Strings(ordered)
		for _, l := range ordered {
			add(column{ev: ev, label: l})
		}
	}
	return out
}

func headerRow(cols []column) []string {
	out := []string{"State"}
	for _, c := range cols {
		out = append(out, c.title())
	}
	return out
}

// cell renders all transitions matching (state, column).
func cell(m *ir.Machine, s ir.StateName, c column, o Options) string {
	var parts []string
	for _, t := range m.Trans {
		if t.From != s || t.Ev != c.ev {
			continue
		}
		if t.Stale && !o.ShowStale {
			continue
		}
		if shorten(t.GuardLabel) != c.label {
			continue
		}
		parts = append(parts, renderTransition(m, t, c))
	}
	return strings.Join(parts, " | ")
}

// renderTransition produces the paper-style cell text, expanding deferred
// flushes and hiding bookkeeping actions.
func renderTransition(m *ir.Machine, t ir.Transition, c column) string {
	if t.Stall {
		return "stall"
	}
	st := m.State(t.From)
	var acts []string
	for _, a := range t.Actions {
		switch a.Op {
		case ir.ASend:
			acts = append(acts, sendText(a))
		case ir.AHit:
			acts = append(acts, "hit")
		case ir.ASet:
			if a.Expr != nil && a.Expr.Kind == ir.EBinop && a.Expr.Op == ir.OpAdd {
				acts = append(acts, "ack++")
			}
		case ir.ADefer:
			// invisible, like the paper's "-" cells
		case ir.AFlush:
			for _, f := range st.Defers {
				for _, da := range m.DeferredActions[f] {
					if da.Op == ir.ASend {
						acts = append(acts, sendText(da))
					}
				}
			}
		}
	}
	body := strings.Join(acts, "; ")
	if body == "" {
		body = "-"
	}
	if t.Next == t.From {
		return body
	}
	return fmt.Sprintf("%s/%s", body, t.Next)
}

func sendText(a ir.Action) string {
	dst := map[ir.DstKind]string{
		ir.DstDir: "Dir", ir.DstMsgSrc: "Req", ir.DstMsgReq: "Req",
		ir.DstOwner: "Owner", ir.DstSharers: "Sharers", ir.DstDeferred: "Req",
	}[a.Dst]
	name := strings.ReplaceAll(string(a.Msg), "_", "-")
	if a.Dst == ir.DstSharers {
		return fmt.Sprintf("send %s to Sharers", name)
	}
	return fmt.Sprintf("send %s to %s", name, dst)
}

// layout renders the grid with per-column widths and wrapping.
func layout(rows [][]string, o Options) string {
	maxCell := o.MaxCell
	if maxCell == 0 {
		maxCell = 28
	}
	ncol := 0
	for _, r := range rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	wrapped := make([][][]string, len(rows))
	for i, r := range rows {
		wrapped[i] = make([][]string, ncol)
		for j := 0; j < ncol; j++ {
			v := ""
			if j < len(r) {
				v = r[j]
			}
			lines := wrap(v, maxCell)
			wrapped[i][j] = lines
			for _, l := range lines {
				if len(l) > widths[j] {
					widths[j] = len(l)
				}
			}
		}
	}
	var b strings.Builder
	sep := func() {
		for j := 0; j < ncol; j++ {
			b.WriteString("+" + strings.Repeat("-", widths[j]+2))
		}
		b.WriteString("+\n")
	}
	sep()
	for i, r := range wrapped {
		h := 1
		for _, lines := range r {
			if len(lines) > h {
				h = len(lines)
			}
		}
		for li := 0; li < h; li++ {
			for j := 0; j < ncol; j++ {
				v := ""
				if li < len(r[j]) {
					v = r[j][li]
				}
				fmt.Fprintf(&b, "| %-*s ", widths[j], v)
			}
			b.WriteString("|\n")
		}
		sep()
		if i == 0 {
			// header separator already drawn
			continue
		}
	}
	return b.String()
}

func wrap(s string, w int) []string {
	if len(s) <= w {
		return []string{s}
	}
	words := strings.Fields(s)
	var out []string
	cur := ""
	for _, wd := range words {
		if cur == "" {
			cur = wd
		} else if len(cur)+1+len(wd) <= w {
			cur += " " + wd
		} else {
			out = append(out, cur)
			cur = wd
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// RenderSpecTables renders the atomic SSP as two paper-style tables
// (Tables I and II): one row per stable state, one column per access or
// incoming message.
func RenderSpecTables(spec *ir.Spec) (cache, dir string) {
	return renderSpecMachine(spec, spec.Cache), renderSpecMachine(spec, spec.Dir)
}

func renderSpecMachine(spec *ir.Spec, m *ir.MachineSpec) string {
	// Column order: accesses then messages, in first-use order.
	var cols []ir.Event
	seen := map[string]bool{}
	for _, t := range m.Txns {
		k := t.Trigger.String()
		if !seen[k] {
			seen[k] = true
			cols = append(cols, t.Trigger)
		}
	}
	sort.SliceStable(cols, func(i, j int) bool {
		if (cols[i].Kind == ir.EvAccess) != (cols[j].Kind == ir.EvAccess) {
			return cols[i].Kind == ir.EvAccess
		}
		return false
	})
	rows := [][]string{{"State"}}
	for _, c := range cols {
		rows[0] = append(rows[0], c.Label())
	}
	for _, st := range m.Stable {
		row := []string{string(st.Name)}
		for _, c := range cols {
			t := m.FindTxn(st.Name, c)
			if t == nil {
				// Sender-constrained processes share a trigger.
				for _, tt := range m.Txns {
					if tt.Start == st.Name && tt.Trigger == c {
						t = tt
						break
					}
				}
			}
			row = append(row, specCell(m, st.Name, c))
		}
		rows = append(rows, row)
	}
	return layout(rows, Options{MaxCell: 30})
}

func specCell(m *ir.MachineSpec, s ir.StateName, ev ir.Event) string {
	var parts []string
	for _, t := range m.Txns {
		if t.Start != s || t.Trigger != ev {
			continue
		}
		var acts []string
		if t.Hit {
			acts = append(acts, "hit")
		}
		for _, a := range t.InitActions {
			if a.Op == ir.ASend {
				acts = append(acts, sendText(a))
			}
		}
		body := strings.Join(acts, "; ")
		if body == "" {
			body = "-"
		}
		fin := t.Final
		if t.Await != nil {
			fs := t.Finals()
			names := make([]string, len(fs))
			for i, f := range fs {
				names[i] = string(f)
			}
			body += ", await / " + strings.Join(names, " or ")
			if t.Src != ir.SrcAny {
				body = "(" + t.Src.String() + ") " + body
			}
			parts = append(parts, body)
			continue
		}
		if t.Src != ir.SrcAny {
			body = "(" + t.Src.String() + ") " + body
		}
		if fin != s && fin != "" {
			body += "/" + string(fin)
		}
		parts = append(parts, body)
	}
	return strings.Join(parts, " | ")
}
