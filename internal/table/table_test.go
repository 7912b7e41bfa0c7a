package table

import (
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/protocols"
)

func renderMSI(t *testing.T, o Options) string {
	t.Helper()
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	return Render(p.Cache, o)
}

func TestRenderTableVIShape(t *testing.T) {
	out := renderMSI(t, Options{})
	for _, want := range []string{
		"IMADS", "IMADSI", "ISDI", "IMAS =SMAS",
		"send Inv-Ack to Req", "send Data to Req", "stall", "hit",
		"Inv_Ack (last)", "Data (ack=0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	if strings.Contains(out, "stale") {
		t.Errorf("stale handling must be hidden by default")
	}
}

func TestRenderShowStale(t *testing.T) {
	withStale := renderMSI(t, Options{ShowStale: true})
	without := renderMSI(t, Options{})
	// The table is fixed-width, so compare cell occurrences, not length:
	// stale invalidation acks appear in far more rows when shown.
	cWith := strings.Count(withStale, "send Inv-Ack to Req")
	cWithout := strings.Count(without, "send Inv-Ack to Req")
	if cWith <= cWithout {
		t.Errorf("ShowStale must add Inv-Ack cells: %d vs %d", cWith, cWithout)
	}
}

func TestRenderFlushExpansion(t *testing.T) {
	out := renderMSI(t, Options{MaxCell: 200})
	// IMADS's completion must show the flushed Data sends, like the paper's
	// "send Data to Req and Dir/S".
	if !strings.Contains(out, "send Data to Req; send Data to Dir/S") &&
		!strings.Contains(out, "send Data to Req; send Data to") {
		t.Errorf("deferred flush must render as data sends:\n%s", out)
	}
}

func TestRenderSpecTables(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	cache, dir := RenderSpecTables(spec)
	for _, want := range []string{"Load", "Store", "Replacement", "Fwd_GetS", "Inv"} {
		if !strings.Contains(cache, want) {
			t.Errorf("Table I missing column %q", want)
		}
	}
	for _, want := range []string{"GetS", "GetM", "PutS", "PutM"} {
		if !strings.Contains(dir, want) {
			t.Errorf("Table II missing column %q", want)
		}
	}
	if !strings.Contains(cache, "hit") {
		t.Errorf("Table I must show hits")
	}
	if !strings.Contains(dir, "from owner") {
		t.Errorf("Table II must show the owner constraint")
	}
}

func TestWrap(t *testing.T) {
	lines := wrap("send Data to Req and Dir then something long", 15)
	if len(lines) < 2 {
		t.Errorf("long cell must wrap, got %v", lines)
	}
	for _, l := range lines {
		if len(l) > 20 {
			t.Errorf("wrapped line too long: %q", l)
		}
	}
	if got := wrap("", 10); len(got) != 1 || got[0] != "" {
		t.Errorf("empty wrap = %v", got)
	}
}
