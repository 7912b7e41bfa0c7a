package protogen_test

import (
	"context"
	"strings"
	"testing"

	"protogen"
)

// customSI is a minimal two-state protocol (Shared/Invalid, no writes)
// written by a hypothetical downstream user: caches take read-only copies
// and the directory invalidates nobody (reads never conflict). It
// exercises the generator on an SSP outside the built-in suite.
const customSI = `
protocol SI;
network ordered;

message request GetS;
message request put PutS;
message forward Put_Ack;
message response Data;

machine cache {
  states I S;
  init I;
  data block;
}

machine directory {
  states I S;
  init I;
  data block;
  idset sharers;
}

architecture cache {
  process (I, load) {
    send GetS to dir;
    await {
      when Data {
        copydata;
        state = S;
      }
    }
  }
  process (S, load) { hit; }
  process (S, repl) {
    send PutS to dir;
    await {
      when Put_Ack { state = I; }
    }
  }
}

architecture directory {
  process (I, GetS) {
    send Data to src with data;
    sharers.add(src);
    state = S;
  }
  process (S, GetS) {
    send Data to src with data;
    sharers.add(src);
  }
  process (S, PutS) {
    send Put_Ack to src;
    sharers.del(src);
  }
}
`

// TestCustomProtocol: a user-authored SSP goes through the whole pipeline:
// generation, table rendering, Murphi emission, model checking and
// simulation.
func TestCustomProtocol(t *testing.T) {
	p, err := protogen.GenerateSource(customSI, protogen.NonStalling())
	if err != nil {
		t.Fatal(err)
	}
	// Read-only protocol: just I, S, ISD, SIA, plus the stale-completion
	// state if any Case-1 demotion exists (there are no forwards, so none).
	s, tr, _ := p.Cache.Counts()
	if s != 4 {
		t.Errorf("cache states = %d (%v), want 4", s, p.Cache.Order)
	}
	if tr == 0 {
		t.Errorf("no transitions generated")
	}
	if out := protogen.RenderTable(p.Cache, protogen.TableOptions{}); !strings.Contains(out, "ISD") {
		t.Errorf("table missing ISD")
	}
	if src := protogen.EmitMurphi(p, protogen.DefaultMurphiOptions()); !strings.Contains(src, "cache_ISD") {
		t.Errorf("murphi missing ISD")
	}
	eng := protogen.NewEngine()
	cfg := protogen.QuickVerifyConfig()
	res, err := eng.Verify(context.Background(), protogen.VerifyJob{Protocol: p, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("custom protocol failed verification: %v", res.Violations[0])
	}
	st, err := eng.Simulate(context.Background(), protogen.SimulateJob{
		Protocol: p,
		Config:   protogen.SimConfig{Caches: 3, Steps: 5000, Seed: 3, Workload: protogen.StandardWorkloads()[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SCViolations != 0 {
		t.Errorf("SC violations in a read-only protocol")
	}
}

// TestCustomProtocolBadSSP: common authoring mistakes produce positioned,
// actionable errors rather than bad protocols.
func TestCustomProtocolBadSSP(t *testing.T) {
	cases := []struct {
		name, from, to, want string
	}{
		{
			"undeclared message",
			"send GetS to dir;", "send GetX to dir;",
			"undeclared",
		},
		{
			"unknown state",
			"state = S;\n      }", "state = Q;\n      }",
			"undeclared state",
		},
		{
			"missing put ack",
			"send Put_Ack to src;", "sharers.del(src);",
			"never acknowledged",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(customSI, tc.from, tc.to, 1)
			if src == customSI {
				t.Fatalf("substitution %q failed", tc.from)
			}
			_, err := protogen.GenerateSource(src, protogen.NonStalling())
			if err == nil {
				t.Fatalf("expected an error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
