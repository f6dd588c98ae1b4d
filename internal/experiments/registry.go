package experiments

import "fmt"

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID matches the paper artifact: "table1", "fig4", ... "table2".
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment at the given fidelity and seed.
	Run func(Fidelity, uint64) (*Table, error)
}

// Experiments returns every table and figure runner, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Storage cost (Table 1)", Run: Table1Storage},
		{ID: "fig4", Title: "Lookup cost vs. target answer size (Figure 4)", Run: Fig4LookupCost},
		{ID: "fig6", Title: "Coverage vs. total storage (Figure 6)", Run: Fig6Coverage},
		{ID: "fig7", Title: "Fault tolerance vs. target answer size (Figure 7)", Run: Fig7FaultTolerance},
		{ID: "fig9", Title: "Unfairness vs. total storage (Figure 9)", Run: Fig9Unfairness},
		{ID: "fig12", Title: "Fixed-x cushion vs. failure rate (Figure 12)", Run: Fig12Cushion},
		{ID: "fig13", Title: "RandomServer unfairness deterioration (Figure 13)", Run: Fig13Deterioration},
		{ID: "fig14", Title: "Update overhead Fixed vs. Hash (Figure 14)", Run: Fig14UpdateOverhead},
		{ID: "table2", Title: "Strategy star summary (Table 2)", Run: Table2Summary},
	}
}

// Find returns the experiment with the given ID, searching the paper
// artifacts and the extension experiments.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range ExtensionExperiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
