package protocols

// Entry describes one SSP known to the registry: a built-in from the
// paper's suite, a fuzz family exemplar, or a corpus reproducer (the
// last two are listed by fuzz.Entries).
type Entry struct {
	Name   string
	Source string
	// Paper ties this SSP to the evaluation section it appears in; for
	// fuzz entries it describes their provenance instead.
	Paper string
}

// All lists every built-in SSP in the order the paper evaluates them.
// The package holds only sources (no parser dependency); parse them with
// dsl.Parse or the root protogen package.
var All = []Entry{
	{Name: "MSI", Source: MSI, Paper: "Tables I/II, Table VI, §VI-A/B"},
	{Name: "MESI", Source: MESI, Paper: "§VI-A/B"},
	{Name: "MOSI", Source: MOSI, Paper: "Tables III/IV, §VI-A/B"},
	{Name: "MSI_Upgrade", Source: MSIUpgrade, Paper: "§V-D1 (Upgrade reinterpretation)"},
	{Name: "MSI_Unordered", Source: MSIUnordered, Paper: "§VI-C"},
	{Name: "TSO_CC", Source: TSOCC, Paper: "§VI-D"},
}

// Lookup returns a built-in SSP by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
