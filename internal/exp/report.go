package exp

// Experiment is a registry entry: one regenerated table or figure.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	// Run executes the experiment with its default parameters and returns
	// the rendered table plus the qualitative verification outcome.
	Run func() (table string, verify error)
}

// All returns the registry in experiment order. Every entry corresponds to
// a row of the experiment index in DESIGN.md §3.
func All() []Experiment {
	return []Experiment{
		{
			ID: "e1", Title: "Throughput vs number of replicas", PaperRef: "§11.1 (scalability)",
			Run: func() (string, error) {
				r := RunE1(DefaultE1Params())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e2", Title: "Latency vs strict-operation fraction", PaperRef: "§11.1 (consistency/performance trade-off)",
			Run: func() (string, error) {
				r := RunE2(DefaultE2Params())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e3", Title: "Response-time bounds δ(x)", PaperRef: "Theorem 9.3",
			Run: func() (string, error) {
				r := RunE3(DefaultE3Params())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e4", Title: "Done-everywhere (stabilization) bound", PaperRef: "Lemma 9.2",
			Run: func() (string, error) {
				r := RunE4(DefaultE4Params())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e5", Title: "Recovery after a fault window", PaperRef: "Theorem 9.4",
			Run: func() (string, error) {
				r := RunE5(DefaultE5Params())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e6", Title: "Memoization ablation", PaperRef: "§10.1 (Fig. 10)",
			Run: func() (string, error) {
				r := RunE6(DefaultAblationParams())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e7", Title: "Commutativity-mode ablation", PaperRef: "§10.3 (Fig. 11)",
			Run: func() (string, error) {
				r := RunE7(DefaultAblationParams())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e8", Title: "Incremental-gossip ablation", PaperRef: "§10.4",
			Run: func() (string, error) {
				r := RunE8(DefaultAblationParams())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e9", Title: "Baseline comparison", PaperRef: "§1.1, Corollary 5.9",
			Run: func() (string, error) {
				r := RunE9(DefaultE9Params())
				return r.Table(), r.Verify()
			},
		},
		{
			ID: "e10", Title: "Sharded keyspace throughput", PaperRef: "DESIGN.md §4 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultShardedParams()
				r := RunSharded(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e11", Title: "Online resharding under load", PaperRef: "DESIGN.md §7 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultResizeExpParams()
				r := RunResizeExp(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e12", Title: "Batched hot path over TCP loopback", PaperRef: "DESIGN.md §8 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultBatchingParams()
				r := RunBatching(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e13", Title: "Shard-per-core runtime scaling", PaperRef: "DESIGN.md §9 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultCoreScalingParams()
				r := RunCoreScaling(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e14", Title: "Durable group-commit write path", PaperRef: "DESIGN.md §10 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultDurableParams()
				r := RunDurable(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e15", Title: "Hostile-network load lab (open-loop latency tail)", PaperRef: "DESIGN.md §11 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultLoadLabParams()
				r := RunLoadLab(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e16", Title: "Wire compression & one batch size under step load", PaperRef: "DESIGN.md §12 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultStepLoadParams()
				r := RunStepLoad(p)
				return r.Table(), r.Verify(p)
			},
		},
		{
			ID: "e17", Title: "Shard placement across a growing fleet", PaperRef: "DESIGN.md §13 (beyond the paper)",
			Run: func() (string, error) {
				p := DefaultFleetParams()
				r := RunFleet(p)
				return r.Table(), r.Verify(p)
			},
		},
	}
}

// ByID returns the experiment with the given id, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
