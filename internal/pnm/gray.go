// Gray-preserving and volumetric decoders for the extension workloads: the
// gray-level labeler consumes PGM/PNG rasters without binarization, and the
// 3D labeler consumes a stack of concatenated raw-PGM frames (multi-frame
// P5) as z-slices.

package pnm

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/grayccl"
	"repro/internal/vol3d"
)

// DecodeGrayInto reads a PGM (P2 plain / P5 raw) stream into a caller-
// provided gray image (reshaped with Reset), preserving gray values instead
// of binarizing. Samples are scaled to the full 8-bit range: v*255/maxval,
// so 16-bit graymaps lose precision but keep their relative ordering.
func DecodeGrayInto(r io.Reader, dst *grayccl.Image) error {
	rows, err := newRowReader(bufio.NewReader(r))
	if err != nil {
		return err
	}
	if rows.bytesPer == 0 {
		return fmt.Errorf("pnm: gray decode wants PGM magic P2 or P5, got %q", rows.hdr.Magic)
	}
	return decodeGray(rows, dst, func(v int) uint8 { return uint8(v * 255 / rows.hdr.MaxVal) })
}

// DecodePNGGrayInto reads a PNG stream into a caller-provided gray image
// (reshaped with Reset), taking each pixel's Rec. 601 luminance scaled to
// 8 bits — the gray analogue of DecodePNGInto.
func DecodePNGGrayInto(r io.Reader, dst *grayccl.Image) error {
	rows, err := newPNGRows(r)
	if err != nil {
		return err
	}
	return decodeGray(rows, dst, func(v int) uint8 { return uint8(v >> 8) })
}

// decodeGray reads every row of rows into dst, each sample mapped by scale.
func decodeGray(rows *rowReader, dst *grayccl.Image, scale func(int) uint8) error {
	w, h := rows.hdr.Width, rows.hdr.Height
	dst.Reset(w, h)
	lut := byteLUT(scale)
	for y := 0; y < h; y++ {
		if err := rows.next(); err != nil {
			return err
		}
		mapRow(dst.Pix[y*w:(y+1)*w], rows.row, rows.bytesPer, scale, lut)
	}
	return nil
}

// DecodeVolumeInto reads a multi-frame raw-PGM stream — concatenated P5
// graymaps, one per z-slice, all with identical dimensions — into a caller-
// provided volume (buffer reused when large enough). Each frame is binarized
// with the same im2bw semantics as DecodeInto: luminance fraction strictly
// greater than level becomes an object voxel. The frame count becomes the
// volume's depth; at least one frame is required. The voxel buffer grows
// row by row as frames arrive, so a header alone allocates one row.
func DecodeVolumeInto(r io.Reader, level float64, dst *vol3d.Volume) error {
	br := bufio.NewReader(r)
	w, h, d := 0, 0, 0
	vox := dst.Vox[:0]
	for ; ; d++ {
		rows, err := newRowReader(br)
		if err == errNoImage && d > 0 {
			break
		}
		if err == errNoImage {
			return fmt.Errorf("pnm: volume stream holds no P5 frames")
		}
		if err != nil {
			return fmt.Errorf("%w (frame %d)", err, d)
		}
		hdr := rows.hdr
		if hdr.Magic != "P5" {
			return fmt.Errorf("pnm: volume frames must be raw PGM (P5), frame %d has magic %q", d, hdr.Magic)
		}
		if d == 0 {
			w, h = hdr.Width, hdr.Height
		} else if hdr.Width != w || hdr.Height != h {
			return fmt.Errorf("pnm: frame %d is %dx%d, want %dx%d (all z-slices must share dimensions)", d, hdr.Width, hdr.Height, w, h)
		}
		thresh := int(math.Floor(level * float64(hdr.MaxVal)))
		bit := func(v int) uint8 {
			if v > thresh {
				return 1
			}
			return 0
		}
		lut := byteLUT(bit)
		for y := 0; y < h; y++ {
			if err := rows.next(); err != nil {
				return fmt.Errorf("%w (frame %d)", err, d)
			}
			vox = append(vox, make([]uint8, w)...)
			mapRow(vox[len(vox)-w:], rows.row, rows.bytesPer, bit, lut)
		}
	}
	dst.W, dst.H, dst.D, dst.Vox = w, h, d, vox
	return nil
}

// byteLUT tabulates f over the 256 values of a 1-byte sample for mapRow.
func byteLUT(f func(int) uint8) *[256]uint8 {
	var lut [256]uint8
	for v := range lut {
		lut[v] = f(v)
	}
	return &lut
}

// sampleBytes is the raw-PGM sample width for maxVal: 2 bytes (big-endian)
// above 255, else 1.
func sampleBytes(maxVal int) int {
	if maxVal > 255 {
		return 2
	}
	return 1
}

// EncodeGrayPGM writes a gray image as a raw P5 graymap — the inverse of
// DecodeGrayInto, used by tests and tools to build gray request bodies.
func EncodeGrayPGM(w io.Writer, im *grayccl.Image) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.Width, im.Height)
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}
