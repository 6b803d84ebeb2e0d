package attack

import (
	"slices"
	"sync"
	"testing"

	"openhire/internal/iot"
	"openhire/internal/netsim"
	"openhire/internal/telescope"
)

// TestShareInfectedMatchesDerive is the differential test for sharing one
// derived infected set between Sources instances: the sharing instance sees
// exactly what a fresh DeriveInfected on a new Sources with the same seed
// gives — the same addresses in the same order and the same target mix for
// each. While the comparison runs, a darknet generator reads the set
// through the owning instance and pool builds mutate the sharing one, as a
// serve month does (run under -race).
func TestShareInfectedMatchesDerive(t *testing.T) {
	u := iot.NewUniverse(iot.UniverseConfig{
		Seed: 3, Prefix: netsim.MustParsePrefix("90.0.0.0/16"), DensityBoost: 200,
	})
	owner := NewSources(2, u, nil, nil)
	shared := NewSources(2, u, nil, nil)
	shared.ShareInfected(owner)
	fresh := NewSources(2, u, nil, nil).DeriveInfected()
	if len(fresh) == 0 {
		t.Fatal("no infected devices derived")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewDarknetGenerator(DarknetConfig{
			Seed: 4, Telescope: telescope.New(netsim.MustParsePrefix("44.0.0.0/8"), nil),
			Sources: owner, Scale: 1.0 / 200000, Days: 1, Workers: 2,
		}).Run()
	}()
	shared.BuildMaliciousPool(8, shared.DeriveInfected())
	got := shared.DeriveInfected()
	if !slices.Equal(got, fresh) {
		t.Errorf("shared infected set (%d) differs from a fresh derivation (%d)", len(got), len(fresh))
	}
	ref := NewSources(2, u, nil, nil)
	ref.DeriveInfected()
	for _, ip := range fresh {
		want, wok := ref.InfectedTargetsFor(ip)
		have, hok := shared.InfectedTargetsFor(ip)
		if want != have || wok != hok {
			t.Errorf("%v: shared targets %+v (%v), fresh %+v (%v)", ip, have, hok, want, wok)
		}
	}
	wg.Wait()
}
