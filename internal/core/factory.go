package core

import (
	"fmt"

	"rsu/internal/rng"
)

// StreamSeed derives the RNG seed of parallel sampler stream i from a base
// seed by SplitMix64 mixing. Each (seed, stream) pair maps to the same seed
// no matter how many workers run, which is what keeps parallel solves
// deterministic for a fixed worker count, and the avalanche mixing keeps the
// streams statistically independent even for adjacent base seeds.
func StreamSeed(seed uint64, stream int) uint64 {
	return rng.NewSplitMix64(seed ^ (0x9e3779b97f4a7c15 * (uint64(stream) + 1))).Uint64()
}

// StreamFactory adapts a sampler constructor into the per-worker factory the
// checkerboard-parallel solver needs: stream i receives its own xoshiro256**
// source seeded with StreamSeed(seed, i). build is invoked once per stream.
//
// Every *Unit it builds without a ConverterCache gets the factory's own
// small one, so the streams of a solve, which the driver sets to one
// temperature per sweep, build that sweep's conversion table once between
// them instead of once each. Cached tables are read-only, so every draw is
// unchanged.
func StreamFactory(seed uint64, build func(src rng.Source) LabelSampler) func(stream int) LabelSampler {
	cc := NewConverterCache(streamConverters)
	return func(stream int) LabelSampler {
		s := build(rng.NewXoshiro256(StreamSeed(seed, stream)))
		if u, ok := s.(*Unit); ok && u.convCache == nil {
			u.SetConverterCache(cc)
		}
		return s
	}
}

// streamConverters is the capacity of a StreamFactory's ConverterCache: the
// streams of a solve share one temperature at a time.
const streamConverters = 4

// SamplerBuilder maps the sampler name the command-line drivers share
// ("software" | "new" | "prev") to a constructor over an RNG source, ready
// to hand to StreamFactory.
func SamplerBuilder(kind string) (func(src rng.Source) LabelSampler, error) {
	return CachedSamplerBuilder(kind, nil)
}

// CachedSamplerBuilder is SamplerBuilder with a shared ConverterCache
// attached to the hardware units, so every worker of every job at the same
// design point resolves its per-sweep conversion tables from one memo
// instead of rebuilding them. A nil cache (or the "software" sampler, which
// has no conversion stage) degrades to the plain builder.
func CachedSamplerBuilder(kind string, cc *ConverterCache) (func(src rng.Source) LabelSampler, error) {
	unit := func(cfg Config) func(src rng.Source) LabelSampler {
		return func(src rng.Source) LabelSampler {
			u := MustUnit(cfg, src, true)
			if cc != nil {
				u.SetConverterCache(cc)
			}
			return u
		}
	}
	switch kind {
	case "software":
		return func(src rng.Source) LabelSampler { return NewSoftwareSampler(src) }, nil
	case "new":
		return unit(NewRSUG()), nil
	case "prev":
		return unit(PrevRSUG()), nil
	default:
		return nil, fmt.Errorf("core: unknown sampler %q (want software | new | prev)", kind)
	}
}
