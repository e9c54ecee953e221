package expt

// Spec names one experiment and how to produce it.
type Spec struct {
	ID   string
	Name string
	Run  func(seed int64) (*Table, error)
}

// All lists every experiment in DESIGN.md §4 order. Seeds are offset per
// experiment so tables are independent yet reproducible.
func All() []Spec {
	return []Spec{
		{"E1", "table1", func(seed int64) (*Table, error) {
			cfg := DefaultTable1Config()
			cfg.Seed = seed
			return Table1(cfg)
		}},
		{"E2", "tradeoff", func(seed int64) (*Table, error) {
			cfg := DefaultTradeoffConfig()
			cfg.Seed = seed
			return TradeoffSweep(cfg)
		}},
		{"E2b", "space-vs-m", func(seed int64) (*Table, error) {
			return SpaceVsM(32, 8, []int{1000, 2000, 4000, 8000}, seed)
		}},
		{"E3", "reporting", func(seed int64) (*Table, error) {
			cfg := DefaultTradeoffConfig()
			cfg.Alphas = []float64{4, 8}
			cfg.Seed = seed
			return Reporting(cfg)
		}},
		{"E4", "lowerbound", func(seed int64) (*Table, error) {
			cfg := DefaultLowerBoundConfig()
			cfg.Seed = seed
			return LowerBound(cfg)
		}},
		{"E5", "universe-reduction", func(seed int64) (*Table, error) {
			return UniverseReduction(400, seed), nil
		}},
		{"E9", "set-sampling", func(seed int64) (*Table, error) {
			return SetSampling(seed)
		}},
		{"E10", "element-sampling", func(seed int64) (*Table, error) {
			return ElementSampling(seed), nil
		}},
		{"E11", "heavy-hitters", func(seed int64) (*Table, error) {
			return HeavyHittersAccuracy(seed), nil
		}},
		{"E12", "contributing", func(seed int64) (*Table, error) {
			return ContributingAccuracy(seed), nil
		}},
		{"E13", "l0", func(seed int64) (*Table, error) {
			return L0Accuracy(seed), nil
		}},
		{"E14", "params", func(seed int64) (*Table, error) {
			return ParamsTable()
		}},
		{"E15", "dispatch", func(seed int64) (*Table, error) {
			return OracleDispatch(seed)
		}},
		{"E16", "space-composition", func(seed int64) (*Table, error) {
			return SpaceComposition(seed)
		}},
		{"E17", "arrival-orders", func(seed int64) (*Table, error) {
			return ArrivalOrderInvariance(seed)
		}},
		{"E18", "holdout-ablation", func(seed int64) (*Table, error) {
			return HoldoutAblation(seed)
		}},
		{"E19", "noise-gate-ablation", func(seed int64) (*Table, error) {
			return NoiseGateAblation(seed)
		}},
		{"E20", "distinct-backend", func(seed int64) (*Table, error) {
			return DistinctBackendAblation(seed)
		}},
		{"E21", "boosting", func(seed int64) (*Table, error) {
			return RepetitionBoosting(seed)
		}},
		{"E22", "distributed", func(seed int64) (*Table, error) {
			return DistributedMerge(seed)
		}},
		{"E23", "wire-ingest", func(seed int64) (*Table, error) {
			return WireIngest(seed)
		}},
	}
}
