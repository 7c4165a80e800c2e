package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/dataset"
)

// reqKind is one request shape a workload sends.
type reqKind int

const (
	kLabelJSON       reqKind = iota // POST /v1/label, JSON out
	kLabelComponents                // POST /v1/label?components=true, JSON out
	kLabelContours                  // POST /v1/label?contours=true, JSON out
	kLabelCCL                       // POST /v1/label, CCL1 label stream out
	kLabelPNG                       // POST /v1/label, PNG label map out
	kStats                          // POST /v1/stats, JSON out
)

// kinds gives each request shape its name, target and Accept header, which
// is also the Content-Type the reply must carry (empty means JSON). No
// target pins ?alg=, so the service default is what gets measured.
var kinds = [...]struct{ name, target, accept string }{
	kLabelJSON:       {"label-json", "/v1/label", ""},
	kLabelComponents: {"label-components", "/v1/label?components=true", ""},
	kLabelContours:   {"label-contours", "/v1/label?contours=true", ""},
	kLabelCCL:        {"label-ccl1", "/v1/label", ctCCL},
	kLabelPNG:        {"label-png", "/v1/label", ctPNG},
	kStats:           {"stats", "/v1/stats", ""},
}

// Media types the benchmark sends and expects.
const (
	ctPBM  = "image/x-portable-bitmap"
	ctPGM  = "image/x-portable-graymap"
	ctPNG  = "image/png"
	ctCCL  = "application/x-ccl"
	ctJSON = "application/json"
)

// input is one distinct request body and what the oracle needs to check
// the answers to it.
type input struct {
	id    int
	w, h  int
	body  []byte
	ctype string
	// bin is the oracle's own binarization of body (1 = object pixel); nil
	// when no request shape of the workload needs it.
	bin []byte
	ref *reference
}

// request is one request of a workload's sequence.
type request struct {
	seq  int
	kind reqKind
	in   *input
}

// workload is a closed-loop traffic mix. gen is deterministic in the seed
// and seq, and safe for concurrent use.
type workload struct {
	name, why string
	clients   int
	setupReps int
	gen       func(seq int) request
	// sample is how many leading requests of the sequence describe the
	// inputs (printInputs).
	sample int
}

// setupSeq is the first sequence number of the set-up requests, far from
// the measured ones so a workload of unique inputs never repeats one.
const setupSeq = 1 << 40

var workloads = map[string]func(seed int64) (*workload, error){
	"big-components": bigComponents,
	"p5-png":         p5PNG,
	"small-mix":      smallMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bigComponents is the paper's large-image case: one client sends 4096²
// land-cover rasters as raw PBM and asks for per-component statistics.
func bigComponents(seed int64) (*workload, error) {
	const side, distinct = 4096, 3
	ins, err := parallelInputs(distinct, func(i int) (*input, error) {
		im := dataset.LandCover(side, side, 32, 0.5, seed*distinct+int64(i))
		in, err := binaryInput(i, side, side, im.Pix)
		if err != nil {
			return nil, err
		}
		in.bin = nil // JSON answers are checked against the reference alone
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "big-components",
		why: "4096² LandCover P4 (2 MiB) to /v1/label?components=true, JSON out, 3 seeds cycled: " +
			"decode, labelling and the stats rescan dominate; no queueing, no raster encode",
		clients:   1,
		setupReps: 3,
		sample:    distinct,
		gen: func(seq int) request {
			return request{seq: seq, kind: kLabelComponents, in: ins[seq%distinct]}
		},
	}, nil
}

// p5PNG sends gray-level P5 inputs that the service binarizes at the
// default level 0.5 and answers with a PNG label map.
func p5PNG(seed int64) (*workload, error) {
	const side, distinct = 1024, 4
	ins, err := parallelInputs(distinct, func(i int) (*input, error) {
		gray := grayField(side, side, uint64(seed)*distinct+uint64(i))
		bin := make([]byte, len(gray))
		for j, v := range gray {
			// im2bw at level 0.5 of maxval 255: v > 127.5.
			if v >= 128 {
				bin[j] = 1
			}
		}
		ref, err := referenceOf(side, side, bin)
		if err != nil {
			return nil, err
		}
		return &input{id: i, w: side, h: side, body: encodeP5(side, side, gray), ctype: ctPGM, bin: bin, ref: ref}, nil
	})
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "p5-png",
		why: "1024² gray P5 binarized at 0.5, PNG label map out, 4 inputs cycled: " +
			"P5 decode and PNG encode dominate, two workers contend, labelling at threads=1, no stats",
		clients:   2,
		setupReps: 7,
		sample:    distinct,
		gen: func(seq int) request {
			return request{seq: seq, kind: kLabelPNG, in: ins[seq%distinct]}
		},
	}, nil
}

// Small-mix inputs are 256² mosaics of 4×4 tiles, each 63² tile a crop of
// one source image, flipped at random, with a one-pixel background gutter
// after every tile. The gutters keep components inside their tile, so an
// input's reference is the union of its tiles' flood-fill references: every
// request gets a new image without a new reference labeling.
const (
	mixSide      = 256
	tileSide     = 63
	tileStride   = tileSide + 1
	tilesPerKind = 64
	sourceSide   = 512
)

// tile is one pre-labelled mosaic piece.
type tile struct {
	bin   []byte
	comps []refComp
	fg    int64
}

// mixRequests is the request-shape cycle of small-mix.
var mixRequests = [4]reqKind{kLabelJSON, kLabelContours, kLabelCCL, kStats}

// smallMix sends unique 256² inputs, round-robin over four image kinds,
// split across four request shapes.
func smallMix(seed int64) (*workload, error) {
	sources := [4]func(s int64) []byte{
		func(s int64) []byte { return dataset.Texture(sourceSide, sourceSide, s).Pix },
		func(s int64) []byte { return dataset.Aerial(sourceSide, sourceSide, s).Pix },
		func(s int64) []byte { return dataset.Misc(sourceSide, sourceSide, s).Pix },
		func(s int64) []byte { return dataset.LandCover(sourceSide, sourceSide, 16, 0.5, s).Pix },
	}
	var tiles [4][]tile
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tiles[k], errs[k] = cutTiles(sources[k](seed*4+int64(k)), uint64(seed)*4+uint64(k))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &workload{
		name: "small-mix",
		why: "unique 256² P4 mosaics of Texture/Aerial/Misc/LandCover tiles, split over /v1/label JSON, " +
			"?contours=true, CCL1 out and /v1/stats: per-request fixed cost dominates",
		clients:   2,
		setupReps: 15,
		sample:    64,
		gen: func(seq int) request {
			return request{seq: seq, kind: mixRequests[(seq+seq/4)%4], in: mosaic(&tiles, seed, seq)}
		},
	}, nil
}

// cutTiles crops tilesPerKind tiles at seeded offsets from one source
// image and labels each with the reference labeler.
func cutTiles(src []byte, seed uint64) ([]tile, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7469_6c65))
	out := make([]tile, tilesPerKind)
	for i := range out {
		x0, y0 := rng.IntN(sourceSide-tileSide+1), rng.IntN(sourceSide-tileSide+1)
		bin := make([]byte, tileSide*tileSide)
		for y := 0; y < tileSide; y++ {
			copy(bin[y*tileSide:(y+1)*tileSide], src[(y0+y)*sourceSide+x0:])
		}
		ref, err := referenceOf(tileSide, tileSide, bin)
		if err != nil {
			return nil, err
		}
		out[i] = tile{bin: bin, comps: ref.comps, fg: ref.fg}
	}
	return out, nil
}

// mosaic builds the unique small-mix input of sequence number seq.
func mosaic(tiles *[4][]tile, seed int64, seq int) *input {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(seq)))
	pool := tiles[seq%4]
	bin := make([]byte, mixSide*mixSide)
	ref := &reference{w: mixSide, h: mixSide}
	for ty := 0; ty < mixSide/tileStride; ty++ {
		for tx := 0; tx < mixSide/tileStride; tx++ {
			t := &pool[rng.IntN(len(pool))]
			flipX, flipY := rng.IntN(2) == 1, rng.IntN(2) == 1
			ox, oy := tx*tileStride, ty*tileStride
			for y := 0; y < tileSide; y++ {
				sy := y
				if flipY {
					sy = tileSide - 1 - y
				}
				row := t.bin[sy*tileSide : (sy+1)*tileSide]
				dst := bin[(oy+y)*mixSide+ox:]
				for x := 0; x < tileSide; x++ {
					sx := x
					if flipX {
						sx = tileSide - 1 - x
					}
					dst[x] = row[sx]
				}
			}
			for _, c := range t.comps {
				ref.comps = append(ref.comps, c.placed(flipX, flipY, ox, oy))
			}
			ref.fg += t.fg
		}
	}
	sortComps(ref.comps)
	return &input{id: seq, w: mixSide, h: mixSide, body: encodeP4(mixSide, mixSide, bin), ctype: ctPBM, bin: bin, ref: ref}
}

// placed is c after an optional flip inside its tile and a move to the
// tile's origin (ox, oy). Flips keep each row's runs, so Runs is unchanged.
func (c refComp) placed(flipX, flipY bool, ox, oy int) refComp {
	const last = tileSide - 1
	if flipX {
		c.MinX, c.MaxX = last-c.MaxX, last-c.MinX
		c.SumX = c.Area*last - c.SumX
	}
	if flipY {
		c.MinY, c.MaxY = last-c.MaxY, last-c.MinY
		c.SumY = c.Area*last - c.SumY
	}
	c.MinX, c.MaxX, c.SumX = c.MinX+ox, c.MaxX+ox, c.SumX+c.Area*int64(ox)
	c.MinY, c.MaxY, c.SumY = c.MinY+oy, c.MaxY+oy, c.SumY+c.Area*int64(oy)
	return c
}

// binaryInput encodes a binary raster as raw PBM and labels it with the
// reference labeler.
func binaryInput(id, w, h int, bin []byte) (*input, error) {
	ref, err := referenceOf(w, h, bin)
	if err != nil {
		return nil, err
	}
	return &input{id: id, w: w, h: h, body: encodeP4(w, h, bin), ctype: ctPBM, bin: bin, ref: ref}, nil
}

// parallelInputs builds n inputs concurrently.
func parallelInputs(n int, mk func(i int) (*input, error)) ([]*input, error) {
	ins := make([]*input, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ins[i], errs[i] = mk(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// encodeP4 writes a binary raster as raw PBM (1 = black = object pixel,
// rows padded to whole bytes, most significant bit first).
func encodeP4(w, h int, bin []byte) []byte {
	hdr := fmt.Sprintf("P4\n%d %d\n", w, h)
	stride := (w + 7) / 8
	out := make([]byte, len(hdr)+stride*h)
	copy(out, hdr)
	px := out[len(hdr):]
	for y := 0; y < h; y++ {
		row := bin[y*w : (y+1)*w]
		dst := px[y*stride : (y+1)*stride]
		for x, v := range row {
			if v != 0 {
				dst[x>>3] |= 0x80 >> (x & 7)
			}
		}
	}
	return out
}

// encodeP5 writes an 8-bit gray raster as raw PGM with maxval 255.
func encodeP5(w, h int, gray []byte) []byte {
	hdr := fmt.Sprintf("P5\n%d %d\n255\n", w, h)
	return append([]byte(hdr), gray...)
}

// grayField is the benchmark's seeded gray-level generator: smooth
// three-octave value noise (coarsest cell 96 px) plus 30% per-pixel noise,
// so the 0.5 threshold cuts large regions with ragged, speckled edges.
func grayField(w, h int, seed uint64) []byte {
	out := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v, amp, norm := 0.0, 1.0, 0.0
			for o, cell := 0, 96.0; o < 3; o, cell = o+1, cell/2 {
				v += amp * lerpNoise(float64(x)/cell, float64(y)/cell, seed+uint64(o))
				norm += amp
				amp /= 2
			}
			g := 0.7*v/norm + 0.3*unit(hash3(seed^0x5eed, uint64(x), uint64(y)))
			out[y*w+x] = byte(math.Min(255, g*256))
		}
	}
	return out
}

// lerpNoise is bilinear value noise with a smoothstep fade.
func lerpNoise(gx, gy float64, seed uint64) float64 {
	ix, iy := math.Floor(gx), math.Floor(gy)
	fx, fy := gx-ix, gy-iy
	fx, fy = fx*fx*(3-2*fx), fy*fy*(3-2*fy)
	x, y := uint64(int64(ix)), uint64(int64(iy))
	v00, v10 := unit(hash3(seed, x, y)), unit(hash3(seed, x+1, y))
	v01, v11 := unit(hash3(seed, x, y+1)), unit(hash3(seed, x+1, y+1))
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// hash3 is a SplitMix64-style hash of (seed, x, y).
func hash3(seed, x, y uint64) uint64 {
	z := seed ^ x*0x9E3779B97F4A7C15 ^ y*0xC2B2AE3D27D4EB4F
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1).
func unit(z uint64) float64 { return float64(z>>11) / (1 << 53) }

// printInputs prints the input properties of the workload's first
// wl.sample requests: size, bytes, foreground density and component count.
func printInputs(w io.Writer, wl *workload, llc string) {
	var mpx, bytes, density, comps float64
	for seq := 0; seq < wl.sample; seq++ {
		in := wl.gen(seq).in
		px := float64(in.w * in.h)
		mpx += px / 1e6
		bytes += float64(len(in.body))
		density += float64(in.ref.fg) / px
		comps += float64(len(in.ref.comps))
	}
	n := float64(wl.sample)
	fmt.Fprintf(w, "inputs: %.4f Mpx/request, %.0f bytes/request, foreground density %.4f, %.1f components/request (means over the first %d requests)\n",
		mpx/n, bytes/n, density/n, comps/n, wl.sample)
	in := wl.gen(0).in
	// The service holds the body, a byte raster and a 4-byte label map per
	// request in flight.
	fmt.Fprintf(w, "inputs: working set per request in flight ≈ %.1f MiB (body + 1-byte raster + 4-byte label map), LLC %s\n",
		float64(len(in.body)+5*in.w*in.h)/(1<<20), llc)
}
