package core

import (
	"testing"

	"rsu/internal/rng"
)

// TestConverterCacheEquivalence: a cached converter must emit exactly the
// codes a freshly built one emits, for both realizations across the full
// quantized-energy range and several ladder temperatures.
func TestConverterCacheEquivalence(t *testing.T) {
	cc := NewConverterCache(64)
	for _, cfg := range []Config{NewRSUG(), PrevRSUG()} {
		maxEcode := (1 << cfg.EnergyBits) - 1
		for _, useLUT := range []bool{true, false} {
			for _, T := range []float64{4.0, 2.0, 1.0, 0.25} {
				var want Converter
				if useLUT {
					want = NewLUTConverter(cfg, T)
				} else {
					want = NewBoundaryConverter(cfg, T)
				}
				got := cc.Get(cfg, useLUT, T)
				for e := 0; e <= maxEcode; e++ {
					if g, w := got.Code(e), want.Code(e); g != w {
						t.Fatalf("%s useLUT=%v T=%g ecode %d: cached code %d, fresh %d",
							cfg.Name, useLUT, T, e, g, w)
					}
				}
			}
		}
	}
	st := cc.Stats()
	if st.Misses != 16 || st.Hits != 0 || st.Entries != 16 {
		t.Fatalf("stats after 16 distinct keys = %+v, want 16 misses / 0 hits / 16 entries", st)
	}
	cc.Get(NewRSUG(), true, 2.0)
	if st := cc.Stats(); st.Hits != 1 {
		t.Fatalf("repeat Get recorded %d hits, want 1", st.Hits)
	}
}

// TestConverterCacheEviction: the LRU must hold at most its capacity and
// evict the least recently used key.
func TestConverterCacheEviction(t *testing.T) {
	cfg := NewRSUG()
	cc := NewConverterCache(2)
	cc.Get(cfg, true, 1.0) // miss
	cc.Get(cfg, true, 2.0) // miss
	cc.Get(cfg, true, 1.0) // hit; 2.0 becomes LRU
	cc.Get(cfg, true, 3.0) // miss; evicts 2.0
	cc.Get(cfg, true, 2.0) // miss again (was evicted)
	st := cc.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
	if st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 4 misses / 1 hit", st)
	}
}

// TestCachedUnitSamplesMatch: end-to-end, a Unit with the cache attached must
// emit the exact sample stream of an uncached Unit over a temperature ladder,
// for both the new and the previous design point.
func TestCachedUnitSamplesMatch(t *testing.T) {
	cc := NewConverterCache(64)
	for _, cfg := range []Config{NewRSUG(), PrevRSUG()} {
		plain := MustUnit(cfg, rng.NewXoshiro256(7), true)
		cached := MustUnit(cfg, rng.NewXoshiro256(7), true)
		cached.SetConverterCache(cc)

		energies := []float64{0, 1.5, 3, 7.25, 12, 16}
		for _, T := range []float64{4, 2, 1, 0.5} {
			MustSetTemperature(plain, T)
			MustSetTemperature(cached, T)
			for i := 0; i < 64; i++ {
				a := MustSample(plain, energies, 0)
				b := MustSample(cached, energies, 0)
				if a != b {
					t.Fatalf("%s T=%g draw %d: cached unit sampled %d, plain %d", cfg.Name, T, i, b, a)
				}
			}
		}
	}
	if st := cc.Stats(); st.Misses == 0 {
		t.Fatalf("cache recorded no activity: %+v", st)
	}
}

// TestStreamFactorySharesConverters: the units a StreamFactory builds
// without a ConverterCache share the factory's own, so a temperature that
// every stream sets builds one conversion table between them, and they
// draw exactly what units without the cache draw. A unit built with its
// own cache keeps it.
func TestStreamFactorySharesConverters(t *testing.T) {
	factory := StreamFactory(7, func(src rng.Source) LabelSampler { return MustUnit(NewRSUG(), src, true) })
	a, b := factory(0).(*Unit), factory(1).(*Unit)
	if a.convCache == nil || a.convCache != b.convCache {
		t.Fatalf("streams hold converter caches %p and %p, want one shared cache", a.convCache, b.convCache)
	}
	plain := func(stream int) *Unit {
		return MustUnit(NewRSUG(), rng.NewXoshiro256(StreamSeed(7, stream)), true)
	}
	c, d := plain(0), plain(1)
	energies := []float64{3, 0, 7, 1, 40, 2, 9, 5}
	for k, T := range []float64{8, 4, 4, 2, 1, 0.5} {
		for _, u := range []*Unit{a, b, c, d} {
			MustSetTemperature(u, T)
		}
		if a.conv != b.conv {
			t.Fatalf("sweep %d: the streams built separate conversion tables", k)
		}
		for i := 0; i < 50; i++ {
			for _, pair := range [][2]*Unit{{a, c}, {b, d}} {
				got, err := pair[0].Sample(energies, i%len(energies))
				if err != nil {
					t.Fatal(err)
				}
				want, _ := pair[1].Sample(energies, i%len(energies))
				if got != want {
					t.Fatalf("sweep %d draw %d: cached unit drew %d, plain unit %d", k, i, got, want)
				}
			}
		}
	}
	if a.Stats() != c.Stats() || b.Stats() != d.Stats() {
		t.Fatalf("stats differ: %+v %+v against %+v %+v", a.Stats(), b.Stats(), c.Stats(), d.Stats())
	}

	own := NewConverterCache(8)
	kept := StreamFactory(7, func(src rng.Source) LabelSampler {
		u := MustUnit(NewRSUG(), src, true)
		u.SetConverterCache(own)
		return u
	})(0).(*Unit)
	if kept.convCache != own {
		t.Fatal("StreamFactory replaced a unit's own converter cache")
	}
}
