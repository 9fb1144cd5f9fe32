package serve

import (
	"rsu/internal/core"
	"rsu/internal/lru"
	"rsu/internal/mrf"
)

// ArtifactCache is the shared-artifact layer of the service: concurrent
// jobs at the same design point resolve their read-only precomputation here
// instead of rebuilding it per request.
//
// Three artifact kinds are cached:
//   - pairwise smoothness LUTs (mrf.PairLUT), keyed by app + smoothness
//     model + label domain — the Labels² half of mrf.Tables that does not
//     depend on the input image;
//   - synthetic datasets, keyed by app + dataset name + scale (+ segment
//     count) — deterministic by construction, so sharing is exact;
//   - energy-to-lambda conversion tables, keyed by (design point,
//     realization, temperature) inside core.ConverterCache — annealing
//     schedules are deterministic, so jobs at one design point replay the
//     same temperature ladder.
type ArtifactCache struct {
	pairs    *lru.Cache[string, *mrf.PairLUT]
	datasets *lru.Cache[string, any]
	conv     *core.ConverterCache
}

// CacheConfig sizes the artifact cache; zero fields select the defaults.
type CacheConfig struct {
	// PairCapacity bounds the pairwise-LUT LRU (default 64 design points).
	PairCapacity int
	// DatasetCapacity bounds the dataset LRU (default 32 scenes).
	DatasetCapacity int
	// ConverterCapacity bounds the conversion-table cache
	// (default core.DefaultConverterCapacity).
	ConverterCapacity int
}

// NewArtifactCache builds the cache.
func NewArtifactCache(cfg CacheConfig) *ArtifactCache {
	pc, dc := cfg.PairCapacity, cfg.DatasetCapacity
	if pc <= 0 {
		pc = 64
	}
	if dc <= 0 {
		dc = 32
	}
	return &ArtifactCache{
		pairs:    lru.New[string, *mrf.PairLUT](pc),
		datasets: lru.New[string, any](dc),
		conv:     core.NewConverterCache(cfg.ConverterCapacity),
	}
}

// Converter exposes the conversion-table cache for sampler construction.
func (a *ArtifactCache) Converter() *core.ConverterCache { return a.conv }

// pairLUT memoizes the pairwise LUT for key, building it from the problem
// on a miss. Returns whether the lookup was a hit.
func (a *ArtifactCache) pairLUT(key string, prob *mrf.Problem) (*mrf.PairLUT, bool, error) {
	return a.pairs.Get(key, func() (*mrf.PairLUT, error) {
		return prob.BuildPairLUT(), nil
	})
}

// CacheStats is a point-in-time snapshot of every cache layer's counters.
type CacheStats struct {
	PairEntries    int    `json:"pair_entries"`
	PairHits       uint64 `json:"pair_hits"`
	PairMisses     uint64 `json:"pair_misses"`
	DatasetEntries int    `json:"dataset_entries"`
	DatasetHits    uint64 `json:"dataset_hits"`
	DatasetMisses  uint64 `json:"dataset_misses"`
	ConvEntries    int    `json:"conv_entries"`
	ConvHits       uint64 `json:"conv_hits"`
	ConvMisses     uint64 `json:"conv_misses"`
}

// PairHitRate returns pairwise-LUT hits / lookups (0 when no lookups yet).
func (s CacheStats) PairHitRate() float64 {
	total := s.PairHits + s.PairMisses
	if total == 0 {
		return 0
	}
	return float64(s.PairHits) / float64(total)
}

// Stats snapshots all cache counters.
func (a *ArtifactCache) Stats() CacheStats {
	p, d, c := a.pairs.Stats(), a.datasets.Stats(), a.conv.Stats()
	return CacheStats{
		PairEntries: p.Entries, PairHits: p.Hits, PairMisses: p.Misses,
		DatasetEntries: d.Entries, DatasetHits: d.Hits, DatasetMisses: d.Misses,
		ConvEntries: c.Entries, ConvHits: c.Hits, ConvMisses: c.Misses,
	}
}
