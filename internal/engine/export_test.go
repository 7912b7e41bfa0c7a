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
