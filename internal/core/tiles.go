package core

import (
	"runtime"
	"sync"

	"repro/internal/binimg"
	"repro/internal/scan"
	"repro/internal/unionfind"
)

// PAREMSP2D is a 2D-decomposition variant of PAREMSP: instead of the
// paper's row-wise chunks, the image is cut into a tilesX x tilesY grid.
// Each tile is scanned independently (pair-row scan clipped to the tile,
// drawing labels from a disjoint range); afterwards every horizontal and
// vertical tile seam is merged with the concurrent union, then sparse
// flatten and parallel relabel run as in PAREMSP.
//
// This is the decomposition ablation DESIGN.md §6 calls for: 2D tiling
// shortens seams relative to full-width rows when the image is much wider
// than tall, at the cost of a column-clipped scan (the row scan streams
// whole cache lines; the tile scan does not). PAREMSP2D(img, 1, threads)
// degenerates to PAREMSP's decomposition.
func PAREMSP2D(img *binimg.Image, tilesX, tilesY, threads int) (*binimg.LabelMap, int) {
	w, h := img.Width, img.Height
	lm := binimg.NewLabelMap(w, h)
	if w == 0 || h == 0 {
		return lm, 0
	}
	if tilesX < 1 {
		tilesX = 1
	}
	if tilesY < 1 {
		tilesY = 1
	}
	if tilesX > w {
		tilesX = w
	}
	// Tile rows must align to row pairs, like PAREMSP's chunks.
	numPairs := (h + 1) / 2
	if tilesY > numPairs {
		tilesY = numPairs
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}

	xBounds := binimg.SplitEven(w, tilesX, 1)
	yBounds := binimg.SplitEven(h, tilesY, 2)

	// Disjoint per-tile label ranges sized for the largest tile.
	maxTileW, maxTileH := 0, 0
	for tx := 0; tx < tilesX; tx++ {
		if tw := xBounds[tx+1] - xBounds[tx]; tw > maxTileW {
			maxTileW = tw
		}
	}
	for ty := 0; ty < tilesY; ty++ {
		if th := yBounds[ty+1] - yBounds[ty]; th > maxTileH {
			maxTileH = th
		}
	}
	stride := Label(scan.MaxProvisionalLabels(maxTileW, maxTileH))
	numTiles := tilesX * tilesY
	p := make([]Label, Label(numTiles)*stride+1)

	// Phase I: scan tiles on a bounded worker pool.
	type tile struct{ tx, ty int }
	tiles := make(chan tile, numTiles)
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			tiles <- tile{tx, ty}
		}
	}
	close(tiles)
	var wg sync.WaitGroup
	workers := threads
	if workers > numTiles {
		workers = numTiles
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tiles {
				offset := Label(t.ty*tilesX+t.tx) * stride
				sink := NewRemSinkShared(p, offset)
				pairRowsTile(img, lm, sink,
					xBounds[t.tx], xBounds[t.tx+1], yBounds[t.ty], yBounds[t.ty+1])
			}
		}()
	}
	wg.Wait()

	// Phase II: seam merges.
	lt := unionfind.NewLockTable(0)
	merge := func(x, y Label) { unionfind.MergeLocked(p, lt, x, y) }
	for _, row := range yBounds[1:tilesY] {
		row := row
		wg.Add(1)
		go func() {
			defer wg.Done()
			mergeBoundaryRow(img, lm, merge, row)
		}()
	}
	for _, col := range xBounds[1:tilesX] {
		col := col
		wg.Add(1)
		go func() {
			defer wg.Done()
			mergeBoundaryCol(img, lm, merge, col)
		}()
	}
	wg.Wait()

	n := unionfind.FlattenSparse(p, Label(len(p)-1))
	unionfind.RelabelBands(lm.L, p, w, threads, nil)
	return lm, int(n)
}

// mergeBoundaryCol unites every foreground pixel of the given tile-start
// column with its foreground neighbors in the column to the left (left,
// up-left, down-left) — the vertical-seam analogue of mergeBoundaryRow.
func mergeBoundaryCol(img *binimg.Image, lm *binimg.LabelMap, merge func(x, y Label), col int) {
	w, h := img.Width, img.Height
	pix := img.Pix
	lab := lm.L
	for y := 0; y < h; y++ {
		i := y*w + col
		if pix[i] == 0 {
			continue
		}
		le := lab[i]
		if pix[i-1] != 0 { // left
			merge(le, lab[i-1])
			continue // the left pixel's own column covers the diagonals
		}
		if y > 0 && pix[i-w-1] != 0 { // up-left
			merge(le, lab[i-w-1])
		}
		if y+1 < h && pix[i+w-1] != 0 { // down-left
			merge(le, lab[i+w-1])
		}
	}
}

// pairRowsTile is scan.PairRows clipped to the column range
// [colStart, colEnd): columns outside the tile are treated as out-of-image,
// exactly as rows above rowStart are.
func pairRowsTile(img *binimg.Image, lm *binimg.LabelMap, sink scan.Sink, colStart, colEnd, rowStart, rowEnd int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	for r := rowStart; r < rowEnd; r += 2 {
		row := r * w
		up := row - w
		down := row + w
		hasUp := r > rowStart
		hasG := r+1 < rowEnd
		for x := colStart; x < colEnd; x++ {
			e := pix[row+x]
			var g uint8
			if hasG {
				g = pix[down+x]
			}
			if e != 0 {
				var a, b, c, d, f uint8
				if hasUp {
					b = pix[up+x]
					if x > colStart {
						a = pix[up+x-1]
					}
					if x+1 < colEnd {
						c = pix[up+x+1]
					}
				}
				if x > colStart {
					d = pix[row+x-1]
					if hasG {
						f = pix[down+x-1]
					}
				}
				var le Label
				if d == 0 {
					switch {
					case b != 0:
						le = lab[up+x]
						if f != 0 {
							le = sink.Merge(le, lab[down+x-1])
						}
					case f != 0:
						le = lab[down+x-1]
						if a != 0 {
							le = sink.Merge(le, lab[up+x-1])
						}
						if c != 0 {
							le = sink.Merge(le, lab[up+x+1])
						}
					case a != 0:
						le = lab[up+x-1]
						if c != 0 {
							le = sink.Merge(le, lab[up+x+1])
						}
					case c != 0:
						le = lab[up+x+1]
					default:
						le = sink.NewLabel()
					}
				} else {
					le = lab[row+x-1]
					if b == 0 && c != 0 {
						le = sink.Merge(le, lab[up+x+1])
					}
				}
				lab[row+x] = le
				if g != 0 {
					lab[down+x] = le
				}
			} else if g != 0 {
				var lg Label
				switch {
				case x > colStart && pix[row+x-1] != 0: // d
					lg = lab[row+x-1]
				case x > colStart && pix[down+x-1] != 0: // f
					lg = lab[down+x-1]
				default:
					lg = sink.NewLabel()
				}
				lab[down+x] = lg
			}
		}
	}
}
