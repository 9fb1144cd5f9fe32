package core

import "rsu/internal/lru"

// converterKey identifies one memoizable energy-to-lambda conversion table:
// the full design point (Config is a comparable value type) plus the
// realization and the annealing temperature the table was derived for.
type converterKey struct {
	cfg    Config
	useLUT bool
	T      float64
}

// ConverterCache memoizes energy-to-lambda converters (the previous design's
// 256-entry LUT or the new design's boundary registers) per (design point,
// realization, temperature). Converters are read-only after construction, so
// one cached table can back any number of concurrent Units — the serving
// layer's analogue of many RSU columns sharing one temperature-update bus.
// Annealing schedules are deterministic, so every job at a given design
// point replays the same temperature ladder and hits the same entries.
//
// The cache is a strict LRU (lru.Cache) and safe for concurrent use: racing
// first callers of one key share a single build.
type ConverterCache struct {
	lru *lru.Cache[converterKey, Converter]
}

// DefaultConverterCapacity comfortably holds a 500-sweep annealing ladder at
// a couple of simultaneous design points.
const DefaultConverterCapacity = 2048

// NewConverterCache returns a cache bounded to capacity entries
// (DefaultConverterCapacity when capacity <= 0).
func NewConverterCache(capacity int) *ConverterCache {
	if capacity <= 0 {
		capacity = DefaultConverterCapacity
	}
	return &ConverterCache{lru: lru.New[converterKey, Converter](capacity)}
}

// Get returns the converter for (cfg, useLUT, T), building and caching it on
// a miss. cfg must use quantized energies and integer lambda codes
// (EnergyBits > 0 and LambdaBits > 0) — the only configurations that have a
// conversion table at all.
func (c *ConverterCache) Get(cfg Config, useLUT bool, T float64) Converter {
	conv, _, _ := c.lru.Get(converterKey{cfg: cfg, useLUT: useLUT, T: T}, func() (Converter, error) {
		if useLUT {
			return NewLUTConverter(cfg, T), nil
		}
		return NewBoundaryConverter(cfg, T), nil
	})
	return conv
}

// ConverterCacheStats is a point-in-time snapshot of the cache counters.
type ConverterCacheStats = lru.Stats

// Stats returns the current entry count and hit/miss counters.
func (c *ConverterCache) Stats() ConverterCacheStats { return c.lru.Stats() }
