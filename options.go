package mincore

// Option configures New. Functional options are the primary constructor
// surface:
//
//	cs, err := mincore.New(points, mincore.WithSeed(42), mincore.WithWorkers(8))
//
// The Options struct itself satisfies Option by replacing the whole
// accumulated configuration, so the legacy form New(points, Options{...})
// keeps working; WithOptions is the explicit adapter for code that
// already builds a struct. When mixing styles, apply the whole-struct
// form first — it overwrites every field set by options before it.
type Option interface {
	apply(*Options)
}

// apply makes the Options struct itself usable as an Option: it replaces
// the accumulated configuration wholesale.
func (o Options) apply(dst *Options) { *dst = o }

// WithOptions replaces the whole configuration with o — the adapter for
// callers migrating from New(points, Options{...}).
func WithOptions(o Options) Option { return o }

// optionFunc adapts a field-mutation function to the Option interface.
type optionFunc func(*Options)

func (f optionFunc) apply(o *Options) { f(o) }

// WithSeed sets the seed driving all randomized components
// (perturbation, direction sampling).
func WithSeed(seed int64) Option {
	return optionFunc(func(o *Options) { o.Seed = seed })
}

// WithWorkers sets the degree of parallelism for the hot paths —
// dominance-graph construction, exact and sampled loss evaluation, and
// SCMC's set-system construction: 0 selects GOMAXPROCS, 1 forces
// sequential execution. Coreset outputs (indices and measured loss) are
// bitwise identical for every worker count.
func WithWorkers(n int) Option {
	return optionFunc(func(o *Options) { o.Workers = n })
}

// WithSkipNormalize treats the input as already α-fat in [−1,1]^d and
// skips the affine normalization.
func WithSkipNormalize() Option {
	return optionFunc(func(o *Options) { o.SkipNormalize = true })
}

// WithPerturbScale overrides the general-position perturbation scale
// (negative disables the perturbation entirely).
func WithPerturbScale(scale float64) Option {
	return optionFunc(func(o *Options) { o.PerturbScale = scale })
}

// WithIPDGSamples overrides the direction-sample count for the
// approximate IPDG in d > 3 (0 = default, 64·ξ).
func WithIPDGSamples(n int) Option {
	return optionFunc(func(o *Options) { o.IPDGSamples = n })
}

// WithMaxRetries bounds the re-seeded perturbation retries the repair
// pipeline makes per fallback-chain entry: 0 selects the default of 1,
// negative disables retries entirely.
func WithMaxRetries(n int) Option {
	return optionFunc(func(o *Options) { o.MaxRetries = n })
}

// WithCertification toggles the verify-and-repair pipeline (on by
// default). With certification off, builds run once and return their
// result with a report even when the measured loss exceeds ε.
func WithCertification(enabled bool) Option {
	return optionFunc(func(o *Options) { o.SkipCertify = !enabled })
}

// WithBuildCache bounds the memoized build cache: successful results are
// kept in an LRU keyed by (algorithm, quantized ε), and concurrent
// identical builds are deduplicated through per-key singleflight.
// n is the entry capacity; n <= 0 disables caching entirely (every call
// builds fresh). Without this option the cache is on with a default
// capacity of 64 entries. Cached results are bitwise identical to fresh
// ones and carry Report.CacheHit = true.
func WithBuildCache(n int) Option {
	return optionFunc(func(o *Options) {
		if n <= 0 {
			o.BuildCache = -1
		} else {
			o.BuildCache = n
		}
	})
}
