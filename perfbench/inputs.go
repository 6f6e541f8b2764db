package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"

	"robustperiod/internal/synthetic"
)

// labeled is one generated series with the periods it was built from.
type labeled struct {
	X     []float64
	Truth []int
}

// noiseSetting spans the paper's Tables 1–2 mild and severe regimes.
type noiseSetting struct{ sigma2, eta float64 }

var noiseSettings = []noiseSetting{
	{0.1, 0.01}, // mild
	{0.5, 0.05}, // moderate
	{1.0, 0.10}, // severe
}

// longSizes are the detect-long series lengths with the number of
// series of each. The counts are fixed so the cost mix is the same for
// every seed; they fall with N because a detect costs about 3× more
// per doubling of N, so each size takes a similar share of a pass.
var longSizes = []struct{ n, count int }{{2048, 24}, {4096, 8}, {8192, 8}}

// genLong builds the detect-long corpus. As in the paper's Tables 1–2
// the structure is fixed — sizes, aperiodic share, period counts,
// the periods themselves and the noise regimes — and the seed draws
// the amplitudes, phases, trends, noise, outliers and the order.
func genLong(seed int64) []labeled {
	rng := rand.New(rand.NewSource(seed))
	var out []labeled
	for _, sz := range longSizes {
		n := sz.n
		j := 0
		for i := 0; i < sz.count; i++ {
			if i%5 == 4 { // 20% aperiodic
				out = append(out, genSeries(rng, n, nil, noiseSettings[i%3]))
				continue
			}
			periods := gridPeriods(j, sz.count-(sz.count+1)/5, 1+j%3, 12, n/8)
			out = append(out, genSeries(rng, n, periods, noiseSettings[(j/3)%3]))
			j++
		}
	}
	return interleave(rng, out)
}

// interleave orders the corpus in shuffled blocks that each hold every
// size in the corpus's proportions (3:1:1), so any prefix of a pass
// carries the same cost mix.
func interleave(rng *rand.Rand, corpus []labeled) []labeled {
	bySize := map[int][]labeled{}
	for _, s := range corpus {
		bySize[len(s.X)] = append(bySize[len(s.X)], s)
	}
	for _, v := range bySize {
		rng.Shuffle(len(v), func(a, b int) { v[a], v[b] = v[b], v[a] })
	}
	unit := longSizes[len(longSizes)-1].count
	var out []labeled
	for b := 0; b < unit; b++ {
		start := len(out)
		for _, sz := range longSizes {
			per := sz.count / unit
			out = append(out, bySize[sz.n][b*per:(b+1)*per]...)
		}
		blk := out[start:]
		rng.Shuffle(len(blk), func(a, c int) { blk[a], blk[c] = blk[c], blk[a] })
	}
	return out
}

// monitoringWindows are series lengths of common monitoring windows:
// a week hourly, a day at 5 minutes, two weeks hourly, a week at
// 15 minutes and a week at 10 minutes.
var monitoringWindows = []int{168, 288, 336, 672, 1008}

// deck deals stratified draws: each of n cards once per shuffled
// round, so every run holds each category in its exact proportion and
// only the order depends on the seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n)}
	for i := range d.cards {
		d.cards[i] = i
	}
	d.pos = n
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// stratum returns a uniform draw from the card's slice of [0, 1).
func (d *deck) stratum() float64 {
	c := d.next()
	return (float64(c) + d.rng.Float64()) / float64(len(d.cards))
}

// shortGen draws the service workloads' series: N in [nLo, nHi] (30%
// one of the monitoring windows that fits), 20% aperiodic, otherwise
// one (60%) or two (40%) periods between 6 and N/6, with noise between
// the mild and the moderate regime. As in detect-long, the structure of
// the k-th series — its N, periods and noise regime — is the same for
// every seed: it comes from a fixed stream (shapeSeed), dealt from
// decks. The seed draws amplitudes, phases, trends, noise and outliers.
// With the structure seeded too, serve-open's latency p50 moved by 19%
// between seeds, because each seed's ~600 distinct series had a
// different size and period mix.
type shortGen struct {
	rng, shape                     *rand.Rand
	nLo, nHi                       int
	windows                        []int
	size, window, which, aperiodic *deck
	twoPeriods, sigma2, eta        *deck
}

// shapeSeed seeds the stream of the service series' structure.
const shapeSeed = 1

func newShortGen(rng *rand.Rand, nLo, nHi int) *shortGen {
	shape := rand.New(rand.NewSource(shapeSeed))
	g := &shortGen{rng: rng, shape: shape, nLo: nLo, nHi: nHi}
	for _, w := range monitoringWindows {
		if w >= nLo && w <= nHi {
			g.windows = append(g.windows, w)
		}
	}
	g.size, g.window, g.aperiodic = newDeck(shape, 8), newDeck(shape, 10), newDeck(shape, 5)
	g.which = newDeck(shape, len(g.windows))
	g.twoPeriods, g.sigma2, g.eta = newDeck(shape, 5), newDeck(shape, 4), newDeck(shape, 4)
	return g
}

func (g *shortGen) next() labeled {
	n := g.nLo + int(g.size.stratum()*float64(g.nHi-g.nLo+1))
	if g.window.next() < 3 && len(g.windows) > 0 {
		n = g.windows[g.which.next()]
	}
	ns := noiseSetting{0.05 + 0.45*g.sigma2.stratum(), 0.03 * g.eta.stratum()}
	if g.aperiodic.next() == 0 {
		return genSeries(g.rng, n, nil, ns)
	}
	k := 1
	if g.twoPeriods.next() < 2 {
		k = 2
	}
	return genSeries(g.rng, n, pickPeriods(g.shape, k, 6, n/6), ns)
}

// gridPeriods returns the k periods of periodic slot j of m: the first
// on a scrambled log-spaced grid over [lo, hi/3^(k-1)], each next one
// three times the previous, so they fall in different wavelet octaves.
func gridPeriods(j, m, k, lo, hi int) []int {
	top := float64(hi) / math.Pow(3, float64(k-1))
	frac := (float64((j*7)%m) + 0.5) / float64(m)
	p := float64(lo) * math.Pow(top/float64(lo), frac)
	out := make([]int, k)
	for i := range out {
		out[i] = int(math.Round(p))
		p *= 3
	}
	return out
}

// pickPeriods draws k integer periods log-uniformly in [lo, hi], each
// at least 2.5 times the next smaller one so they fall in different
// wavelet octaves. It returns fewer when the range cannot hold k.
func pickPeriods(rng *rand.Rand, k, lo, hi int) []int {
	for ; k > 0; k-- {
		if float64(hi) < float64(lo)*math.Pow(2.5, float64(k-1)) {
			continue
		}
		for attempt := 0; attempt < 1000; attempt++ {
			ps := make([]int, k)
			for i := range ps {
				ps[i] = int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64())))
			}
			sort.Ints(ps)
			ok := true
			for i := 1; i < k; i++ {
				if float64(ps[i]) < 2.5*float64(ps[i-1]) {
					ok = false
				}
			}
			if ok {
				return ps
			}
		}
	}
	return []int{lo}
}

// genSeries renders one series with the paper's generator: sine waves
// at the given periods, a triangle and a linear trend, Gaussian noise
// and outlier spikes. Values are rounded to 1e-4 so their JSON text is
// short.
func genSeries(rng *rand.Rand, n int, periods []int, ns noiseSetting) labeled {
	comps := make([]synthetic.Component, len(periods))
	for i, p := range periods {
		comps[i] = synthetic.Component{
			Shape:     synthetic.Sine,
			Period:    float64(p),
			Amplitude: 0.8 + 0.6*rng.Float64(),
			Phase:     rng.Float64() * 2 * math.Pi,
		}
	}
	x := synthetic.Generate(synthetic.Config{
		N:                n,
		Components:       comps,
		TrendTriangleAmp: 10 * rng.Float64(),
		TrendLinearSlope: 4 * (rng.Float64() - 0.5),
		NoiseSigma2:      ns.sigma2,
		OutlierRate:      ns.eta,
		OutlierMag:       10,
		Seed:             rng.Int63(),
	})
	for i, v := range x {
		x[i] = math.Round(v*1e4) / 1e4
	}
	return labeled{X: x, Truth: append([]int(nil), periods...)}
}

// inputDigest fingerprints generated inputs: every series' values and
// truth, plus whatever schedule words the workload adds, so two runs
// can be shown to have measured the same inputs.
func inputDigest(series []labeled, schedule []int64) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range series {
		word(uint64(len(s.X)))
		for _, v := range s.X {
			word(math.Float64bits(v))
		}
		word(uint64(len(s.Truth)))
		for _, p := range s.Truth {
			word(uint64(p))
		}
	}
	for _, v := range schedule {
		word(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// f1 accumulates period matches against ground truth at ±2%.
type f1 struct{ tp, fp, fn int }

func (a *f1) add(truth, got []int) {
	used := make([]bool, len(got))
	for _, t := range truth {
		hit := false
		for i, g := range got {
			if !used[i] && math.Abs(float64(g-t)) <= 0.02*float64(t) {
				used[i], hit = true, true
				break
			}
		}
		if hit {
			a.tp++
		} else {
			a.fn++
		}
	}
	for _, u := range used {
		if !u {
			a.fp++
		}
	}
}

func (a f1) value() float64 {
	d := 2*a.tp + a.fp + a.fn
	if d == 0 {
		return 1
	}
	return float64(2*a.tp) / float64(d)
}

func samePeriods(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
