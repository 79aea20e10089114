package compress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// pinCorpus is a fixed set of inputs for the encoder pins below: the shapes
// of payloads(), the 4 KiB head an adaptive encode probes first, 24,000-byte
// vectors (a 3,000-element float64 vector, what a spilled Krylov basis
// vector is) and a block past the LZ stage's 64 KiB window.
func pinCorpus() [][]byte {
	named := payloads()
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	var corpus [][]byte
	for _, name := range names {
		corpus = append(corpus, named[name])
	}
	for _, name := range names {
		if p := named[name]; len(p) >= adaptiveProbeLen {
			corpus = append(corpus, p[:adaptiveProbeLen])
		}
	}
	rng := rand.New(rand.NewSource(28))
	vector := func(f func(i int) float64) []byte {
		out := make([]byte, 3000*8)
		for i := 0; i < 3000; i++ {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f(i)))
		}
		return out
	}
	corpus = append(corpus,
		vector(func(int) float64 { return rng.NormFloat64() / 54 }),
		vector(func(i int) float64 { return math.Round(4096*math.Sin(float64(i)/300)) / 4096 }),
		vector(func(i int) float64 { return float64(i % 17) }),
	)
	long := make([]byte, 200<<10)
	for i := range long {
		long[i] = byte(i/3) ^ byte(rng.Intn(2))
	}
	return append(corpus, long)
}

// TestEncodersPinned holds FloatShuffle.Encode and AppendFrameAdaptive to the
// bytes they wrote before the LZ stage's hash table changed representation:
// a frame on scratch, in a staged block or on the wire is read by builds on
// either side of such a change, and bit-identity of every benchmark oracle
// rests on the encoders' output too.
func TestEncodersPinned(t *testing.T) {
	const (
		wantShuffle  = "37fe7e81fc0b6dbf7d081172e6fddda087f6fcf17744d8aa5598480edc7ec98a"
		wantAdaptive = "233567da3181c9aca60de1f5a70ed5824f4f5249abbbd0078d44f55545e174eb"
	)
	shuf, adapt := sha256.New(), sha256.New()
	for _, p := range pinCorpus() {
		shuf.Write(FloatShuffle{}.Encode(nil, p))
		frame, _ := AppendFrameAdaptive(nil, Default(), p)
		adapt.Write(frame)
	}
	if got := hex.EncodeToString(shuf.Sum(nil)); got != wantShuffle {
		t.Errorf("FloatShuffle.Encode over the corpus: sha256 %s, want %s", got, wantShuffle)
	}
	if got := hex.EncodeToString(adapt.Sum(nil)); got != wantAdaptive {
		t.Errorf("AppendFrameAdaptive over the corpus: sha256 %s, want %s", got, wantAdaptive)
	}
}
