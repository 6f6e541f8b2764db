// Package wavelet implements the wavelet substrate of RobustPeriod:
// Daubechies filter banks, the maximal overlap discrete wavelet
// transform (MODWT) and its inverse, the classical decimated DWT (used
// by the Wavelet-Fisher baseline), and the robust unbiased wavelet
// variance of Eq. 4 of the paper.
//
// Conventions follow Percival & Walden, "Wavelet Methods for Time
// Series Analysis" (2000): g is the scaling (low-pass) filter with
// Σg_l = √2 and Σg_l² = 1; the wavelet (high-pass) filter is the
// quadrature mirror h_l = (−1)^l g_{L−1−l}. MODWT filters are
// g̃ = g/√2, h̃ = h/√2.
package wavelet

import (
	"fmt"
	"strings"
)

// Kind names a Daubechies filter by its width L (number of taps).
type Kind int

// Supported Daubechies filters. DaubN has N taps and N/2 vanishing
// moments; Haar is Daub2. The LA (least-asymmetric, "symlet") variants
// trade extremal phase for near-linear phase — Percival & Walden's
// recommended family for aligning wavelet coefficients with events in
// time; they are encoded as the negative of their tap count.
const (
	Haar   Kind = 2
	Daub4  Kind = 4
	Daub6  Kind = 6
	Daub8  Kind = 8
	Daub10 Kind = 10
	Daub12 Kind = 12
	Daub16 Kind = 16
	Daub20 Kind = 20
	LA8    Kind = -8
	LA16   Kind = -16
)

// String returns the conventional name of the filter.
func (k Kind) String() string {
	if k == Haar {
		return "haar"
	}
	if k < 0 {
		return fmt.Sprintf("la%d", -int(k))
	}
	return fmt.Sprintf("db%d", int(k)/2)
}

// Kinds returns every supported filter family, shortest filter first.
// It is the single source of truth for name parsing and for help text
// listing the accepted wavelets.
func Kinds() []Kind {
	return []Kind{Haar, Daub4, Daub6, Daub8, Daub10, Daub12, Daub16, Daub20, LA8, LA16}
}

// KindNames returns the canonical names of Kinds(), in order.
func KindNames() []string {
	ks := Kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return names
}

// ParseKind maps a conventional filter name — exactly the strings
// Kind.String produces ("haar", "db2" … "db10", "la8", "la16"), plus
// the alias "db1" for Haar — back to its Kind. Matching is
// case-insensitive; an unknown name is an error naming the accepted
// set, never a silent default.
func ParseKind(name string) (Kind, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	if s == "db1" {
		s = "haar"
	}
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("wavelet: unknown filter %q (accepted: %s)",
		name, strings.Join(KindNames(), ", "))
}

// scaling filter coefficients (low-pass, Σ=√2, Σ²=1), indexed by Kind.
var scalingCoeffs = map[Kind][]float64{
	Haar: {
		0.7071067811865475, 0.7071067811865475,
	},
	Daub4: {
		0.4829629131445341, 0.8365163037378077,
		0.2241438680420134, -0.1294095225512603,
	},
	Daub6: {
		0.3326705529500827, 0.8068915093110928,
		0.4598775021184915, -0.1350110200102546,
		-0.0854412738820267, 0.0352262918857096,
	},
	Daub8: {
		0.2303778133074431, 0.7148465705484058,
		0.6308807679358788, -0.0279837694166834,
		-0.1870348117179132, 0.0308413818353661,
		0.0328830116666778, -0.0105974017850021,
	},
	Daub10: {
		0.1601023979741930, 0.6038292697971898,
		0.7243085284377729, 0.1384281459013204,
		-0.2422948870663824, -0.0322448695846381,
		0.0775714938400459, -0.0062414902127983,
		-0.0125807519990820, 0.0033357252854738,
	},
	Daub12: {
		0.1115407433501094, 0.4946238903984530,
		0.7511339080210954, 0.3152503517091980,
		-0.2262646939654398, -0.1297668675672624,
		0.0975016055873224, 0.0275228655303053,
		-0.0315820393174862, 0.0005538422011614,
		0.0047772575109455, -0.0010773010853085,
	},
	Daub16: {
		0.0544158422431049, 0.3128715909143031,
		0.6756307362972904, 0.5853546836541907,
		-0.0158291052563816, -0.2840155429615702,
		0.0004724845739124, 0.1287474266204837,
		-0.0173693010018083, -0.0440882539307952,
		0.0139810279173995, 0.0087460940474065,
		-0.0048703529934518, -0.0003917403733770,
		0.0006754494064506, -0.0001174767841248,
	},
	LA8: {
		-0.0757657147892733, -0.0296355276459985,
		0.4976186676320155, 0.8037387518059161,
		0.2978577956052774, -0.0992195435768472,
		-0.0126039672620378, 0.0322231006040427,
	},
	LA16: {
		-0.0033824159510061, -0.0005421323317911,
		0.0316950878114930, 0.0076074873249176,
		-0.1432942383508097, -0.0612733590676585,
		0.4813596512583722, 0.7771857517005235,
		0.3644418948353314, -0.0519458381077090,
		-0.0272190299170560, 0.0491371796736075,
		0.0038087520138906, -0.0149522583370482,
		-0.0003029205147214, 0.0018899503327595,
	},
	Daub20: {
		0.0266700579005473, 0.1881768000776347,
		0.5272011889315757, 0.6884590394534363,
		0.2811723436605715, -0.2498464243271598,
		-0.1959462743772862, 0.1273693403357541,
		0.0930573646035547, -0.0713941471663501,
		-0.0294575368218399, 0.0332126740593612,
		0.0036065535669870, -0.0107331754833007,
		0.0013953517469940, 0.0019924052951925,
		-0.0006858566949564, -0.0001164668551285,
		0.0000935886703202, -0.0000132642028945,
	},
}

// Filter bundles the analysis filter pair of one Daubechies family.
type Filter struct {
	kind Kind
	g    []float64 // scaling (low-pass)
	h    []float64 // wavelet (high-pass), QMF of g
}

// NewFilter returns the filter bank for k, or an error for an
// unsupported width.
func NewFilter(k Kind) (*Filter, error) {
	g, ok := scalingCoeffs[k]
	if !ok {
		return nil, fmt.Errorf("wavelet: unsupported filter %d (Daubechies widths 2,4,6,8,10,12,16,20 or LA8/LA16)", int(k))
	}
	L := len(g)
	h := make([]float64, L)
	for l := 0; l < L; l++ {
		h[l] = g[L-1-l]
		if l%2 == 1 {
			h[l] = -h[l]
		}
	}
	return &Filter{kind: k, g: g, h: h}, nil
}

// Kind returns the filter family identifier.
func (f *Filter) Kind() Kind { return f.kind }

// Len returns the number of taps L of the base filter.
func (f *Filter) Len() int { return len(f.g) }

// Wavelet returns a copy of the wavelet (high-pass) coefficients.
func (f *Filter) Wavelet() []float64 { return append([]float64(nil), f.h...) }

// EquivalentWidth returns L_j = (2^j − 1)(L − 1) + 1, the width of the
// level-j equivalent MODWT filter; the first L_j − 1 coefficients of
// level j are affected by the circular boundary.
func (f *Filter) EquivalentWidth(level int) int {
	return (1<<uint(level)-1)*(f.Len()-1) + 1
}

// sumSq is a small internal helper shared by the transform code.
func sumSq(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}
