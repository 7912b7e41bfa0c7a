package engine

// AppendRulesByMatch is AppendRules without the enabledness tables: it
// asks matchEv about every (cache, access) pair and every deliverable
// message, in AppendRules' order. It is the oracle the tables are held to
// (rules_diff_test.go).
func (s *System) AppendRulesByMatch(buf []Rule) []Rule {
	for i, c := range s.Caches {
		for _, a := range c.L.accesses {
			if s.accessEnabled(c, a) {
				buf = append(buf, Rule{Kind: RuleAccess, Cache: i, Access: a})
			}
		}
	}
	n := s.Net
	queue, pos := -1, 0
	for i := range n.msgs {
		m := &n.msgs[i]
		if q := n.QueueOf(m); q != queue {
			queue, pos = q, 0
		} else {
			pos++
		}
		c := s.ctrlAt(m.Dst)
		if (pos == 0 || !n.Ordered) && deliverMatched(c, c.L.msgEvent(m), m) {
			buf = append(buf, Rule{Kind: RuleDeliver, Del: Deliverable{Queue: queue, Pos: pos, Msg: *m}})
		}
	}
	return buf
}

// AppendDenseKey appends s's key under perm (nil: identity) with the
// network section in the layout keys had up to fac9266: on an ordered
// network, one length prefix per (class, src, dst) queue in renumbered
// coordinate order, empties included, and no terminator. It is the
// reference the live section is held to (bytes_pinned_test.go); its
// minimum over all permutations is the old Canonical.
func (e *Encoder) AppendDenseKey(b []byte, s *System, perm []int) []byte {
	if perm == nil {
		for _, c := range s.Caches {
			b = e.encodeCtrl(b, c, nil)
		}
	} else {
		e.setInv(perm)
		for j := range perm {
			b = e.encodeCtrl(b, s.Caches[e.inv[j]], perm)
		}
	}
	b = e.encodeCtrl(b, s.Dir, perm)
	b = putInt(b, s.LastWrite)
	n := s.Net
	if !n.Ordered {
		return e.encodeNet(b, n, perm)
	}
	coord := func(m *Msg) int {
		return (m.Class*n.Nodes+permID(perm, m.Src))*n.Nodes + permID(perm, m.Dst)
	}
	for q := 0; q < NumClasses*n.Nodes*n.Nodes; q++ {
		count := 0
		for i := range n.msgs {
			if coord(&n.msgs[i]) == q {
				count++
			}
		}
		b = putInt(b, count)
		for i := range n.msgs {
			if coord(&n.msgs[i]) == q {
				b = e.appendMsg(b, &n.msgs[i], perm)
			}
		}
	}
	return b
}
