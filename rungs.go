package spotfi

import "spotfi/internal/admit"

// BuildLadder constructs one Localizer per degradation rung, cheapest
// last, all sharing base's metrics and quality monitor. modes bounds how
// many rungs are built (1 full MUSIC only, 2 adds the ESPRIT fast path,
// 3 adds the coarse fallback grid). Each rung's ModeLabel is the
// admit.Mode name it serves, so fixes and traces say which rung produced
// them.
//
// This is the single source of rung construction: spotfi-server builds
// its serving ladder here, and flight-recorder replay rebuilds the same
// ladder from a bundle's recorded config — the two must agree or replay
// stops being bit-exact.
func BuildLadder(base Config, aps []AP, modes int) ([]*Localizer, error) {
	configs := []func(Config) Config{
		func(c Config) Config {
			c.ModeLabel = admit.ModeFull.String()
			return c
		},
		func(c Config) Config {
			c.ModeLabel = admit.ModeFastPath.String()
			c.FastPath = true
			return c
		},
		func(c Config) Config {
			c.ModeLabel = admit.ModeCoarse.String()
			c.FastPath = true
			// On top of the fast path, the MUSIC fallback sweeps a grid
			// with twice the AoA and ToF steps: about 4× fewer cells per
			// hard burst.
			c.Music.CoarseGridFactor *= 2
			return c
		},
	}
	if modes < 1 {
		modes = 1
	}
	if modes < len(configs) {
		configs = configs[:modes]
	}
	locs := make([]*Localizer, 0, len(configs))
	for _, mk := range configs {
		loc, err := New(mk(base), aps)
		if err != nil {
			return nil, err
		}
		locs = append(locs, loc)
	}
	return locs, nil
}
