package ir

import (
	"strings"
	"testing"
)

func minimalSpec() *Spec {
	return &Spec{
		Name:    "T",
		Ordered: true,
		Msgs: []MsgDecl{
			{Type: "GetX", Class: ClassRequest},
			{Type: "Data", Class: ClassResponse},
		},
		Cache: &MachineSpec{
			Name: "cache", Kind: KindCache, Init: "I",
			Stable: []StableDecl{{Name: "I"}, {Name: "M"}},
		},
		Dir: &MachineSpec{
			Name: "directory", Kind: KindDirectory, Init: "I",
			Stable: []StableDecl{{Name: "I"}},
		},
	}
}

// TestValidateRequestClass: a transaction's request must be a
// request-class message — random spec mutation can produce transactions
// whose "request" is a response, which the generator must never see.
func TestValidateRequestClass(t *testing.T) {
	s := minimalSpec()
	s.Cache.Txns = []*Transaction{{
		ID: "I:store", Start: "I", Trigger: AccessEvent(AccessStore),
		Request: "Data",
		Await:   &Await{ID: "a", Cases: []*Case{{Msg: "Data", Kind: CaseBreak, Final: "M"}}},
	}}
	err := ValidateSpec(s)
	if err == nil || !strings.Contains(err.Error(), "as its request") {
		t.Errorf("response-class request not rejected: %v", err)
	}
	s.Cache.Txns[0].Request = "GetX"
	if err := ValidateSpec(s); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestValidateRejectsMalformed: the malformed shapes random generation
// can produce all come back as errors, never panics.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"missing machine", func(s *Spec) { s.Dir = nil }},
		{"undeclared init", func(s *Spec) { s.Cache.Init = "Q" }},
		{"duplicate stable", func(s *Spec) {
			s.Cache.Stable = append(s.Cache.Stable, StableDecl{Name: "I"})
		}},
		{"duplicate message", func(s *Spec) {
			s.Msgs = append(s.Msgs, MsgDecl{Type: "Data", Class: ClassForward})
		}},
		{"undeclared trigger", func(s *Spec) {
			s.Cache.Txns = []*Transaction{{ID: "x", Start: "I", Trigger: MsgEvent("Nope"), Final: "I"}}
		}},
		{"empty await", func(s *Spec) {
			s.Cache.Txns = []*Transaction{{
				ID: "x", Start: "I", Trigger: AccessEvent(AccessLoad),
				Request: "GetX", Await: &Await{ID: "a"},
			}}
		}},
		{"break to undeclared state", func(s *Spec) {
			s.Cache.Txns = []*Transaction{{
				ID: "x", Start: "I", Trigger: AccessEvent(AccessLoad),
				Request: "GetX",
				Await:   &Await{ID: "a", Cases: []*Case{{Msg: "Data", Kind: CaseBreak, Final: "Zed"}}},
			}}
		}},
		{"undeclared guard variable", func(s *Spec) {
			s.Cache.Txns = []*Transaction{{
				ID: "x", Start: "I", Trigger: AccessEvent(AccessLoad),
				Request: "GetX",
				Await: &Await{ID: "a", Cases: []*Case{{
					Msg: "Data", Kind: CaseBreak, Final: "M",
					Guard: Binop(OpEq, Var("ghost"), Const(0)),
				}}},
			}}
		}},
	}
	for _, c := range cases {
		s := minimalSpec()
		c.mutate(s)
		if err := ValidateSpec(s); err == nil {
			t.Errorf("%s: not rejected", c.name)
		}
	}
}

// TestValidateRejectsAccessNamedMessage: Event.String(), Transition.Key()
// and the engine's event index key on the bare name, so a message called
// like a core access would share that access's event.
func TestValidateRejectsAccessNamedMessage(t *testing.T) {
	for _, name := range []MsgType{"load", "store", "repl", "acq", "none"} {
		s := minimalSpec()
		s.Msgs = append(s.Msgs, MsgDecl{Type: name, Class: ClassResponse})
		err := ValidateSpec(s)
		if CodeOf(err) != CodeDupMsg || !strings.Contains(err.Error(), "message "+string(name)+" ") ||
			!strings.Contains(err.Error(), "core access") {
			t.Errorf("message %s: err = %v, want a %s naming the clash", name, err, CodeDupMsg)
		}
	}
	s := minimalSpec()
	s.Msgs = append(s.Msgs, MsgDecl{Type: "Load", Class: ClassResponse})
	if err := ValidateSpec(s); err != nil {
		t.Errorf("message Load rejected: %v", err)
	}
}
