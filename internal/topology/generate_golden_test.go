package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// graphDigest hashes everything a generator decides: every node's
// adjacency list in order (neighbor id and the PRR's exact bits) and every
// position's bits. Two graphs share a digest only if they are
// byte-identical, not merely set-equal.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	for u := range g.adj {
		put(uint64(len(g.adj[u])))
		for _, l := range g.adj[u] {
			put(uint64(l.To))
			put(math.Float64bits(l.PRR))
		}
	}
	put(uint64(len(g.Pos)))
	for _, p := range g.Pos {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGolden pins the generators' output to digests recorded
// from the quadratic-scan, full-PRR link builder that preceded the
// single spatial-hash path and the SNR cut. Any change to enumeration
// order, RNG keying or PRR arithmetic shows up here as a digest mismatch,
// so the rewrite is checked against the old code's output rather than
// against itself.
func TestGeneratorGolden(t *testing.T) {
	mustGO := func(cfg GreenOrbsConfig, seed uint64) func() *Graph {
		return func() *Graph {
			g, err := GenerateGreenOrbs(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	mustRGG := func(radio RadioModel) func() *Graph {
		return func() *Graph {
			g, err := RandomGeometric(600, 200, 200, radio, 0.10, 5)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name  string
		long  bool // skipped under -short
		build func() *Graph
		want  string
	}{
		{"greenorbs-1", false, func() *Graph { return GreenOrbs(1) }, "82d7c67a8e0c05839d1b37a26f18551e1797fdbfa036d8f4e09dbeedc5ba42e8"},
		{"greenorbs-2", false, func() *Graph { return GreenOrbs(2) }, "593980d5483e9d2195a932f6fd8ae64203b55746084871e4b99674a0b6ae0fd4"},
		{"greenorbs-3", false, func() *Graph { return GreenOrbs(3) }, "a04627af94417ce15196244d11f65a4872d4552078ec38343de041744e587133"},
		{"testbed-1", false, func() *Graph { return Testbed(1) }, "b6c8ea4cc78b39741a302497ef58f6115fef9d52a8c6769fce34e4674eb9b43e"},
		{"scaled-2000", false, mustGO(ScaledGreenOrbsConfig(2000), 1), "13c6fae24ed3d80ddecc97136f7bfbaba7b092ea71c42277ba19e65a26108c24"},
		{"scaled-10000", false, mustGO(ScaledGreenOrbsConfig(10000), 1), "6a0cf8a78a0532f9cf072fb3096cdf88c4fb7b857ce9e583ca080f787107e34c"},
		{"rgg-600-forest", false, mustRGG(ForestRadio()), "3d2a601eee0f2793b6c29b7d89d5d3321f9fa9f1c346d5ad5cd8a7a0f79c90fd"},
		{"rgg-600-openfield", false, mustRGG(OpenFieldRadio()), "35f212be8058a1375701df6ffcace16cf8aa3820c90f78ab0a7af8bc2c30c577"},
		{"scaled-100000", true, mustGO(ScaledGreenOrbsConfig(100000), 1), "5ffa3147a54eaf7f50e6635240180b1d29f40ea1d8c92cfd08f9e9c7d937e4ff"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("100k-node build skipped in -short mode")
			}
			if got := graphDigest(tc.build()); got != tc.want {
				t.Fatalf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
