// Package binimg provides the binary-image raster type used by every CCL
// algorithm in this repository, plus the label-map raster the algorithms
// produce.
//
// A binary image stores one byte per pixel in row-major order: 0 is a
// background pixel, 1 is an object (foreground) pixel. This mirrors the
// paper's convention ("we consider value of object pixel as 1 and value of
// background pixel as 0") and keeps the scan-phase inner loops branch-cheap:
// neighbor tests compile to a single byte load and compare.
//
// Bitmap is the bit-packed alternative (1 bit per pixel, 64-bit words, rows
// padded to whole words) consumed by the run-based scans: 64 pixels per word
// load, runs extracted with math/bits. Its padding invariant — the tail bits
// of each row's last word are always 0 — is documented on the type.
package binimg

import (
	"fmt"
	"strings"
)

// Image is a binary raster of Width x Height pixels. Pix holds exactly
// Width*Height bytes in row-major order; every byte is 0 or 1.
type Image struct {
	Width  int
	Height int
	Pix    []uint8
}

// New returns a zeroed (all-background) image of the given dimensions.
// It panics if either dimension is negative.
func New(width, height int) *Image {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("binimg: negative dimensions %dx%d", width, height))
	}
	return &Image{Width: width, Height: height, Pix: make([]uint8, width*height)}
}

// Reset reshapes the image to width x height and zeroes every pixel, reusing
// the existing pixel buffer when it has capacity. Long-lived servers reset
// pooled images between requests instead of allocating a raster per request.
// It panics if either dimension is negative.
func (im *Image) Reset(width, height int) {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("binimg: negative dimensions %dx%d", width, height))
	}
	n := width * height
	if cap(im.Pix) < n {
		im.Pix = make([]uint8, n)
	} else {
		im.Pix = im.Pix[:n]
		clear(im.Pix)
	}
	im.Width, im.Height = width, height
}

// FromPix wraps an existing pixel slice without copying. The slice must hold
// exactly width*height bytes, each 0 or 1 (not validated; see Validate).
func FromPix(width, height int, pix []uint8) (*Image, error) {
	if width < 0 || height < 0 {
		return nil, fmt.Errorf("binimg: negative dimensions %dx%d", width, height)
	}
	if len(pix) != width*height {
		return nil, fmt.Errorf("binimg: pixel buffer has %d bytes, want %d", len(pix), width*height)
	}
	return &Image{Width: width, Height: height, Pix: pix}, nil
}

// Validate reports the first pixel whose value is neither 0 nor 1, or nil if
// the raster is a well-formed binary image.
func (im *Image) Validate() error {
	if len(im.Pix) != im.Width*im.Height {
		return fmt.Errorf("binimg: pixel buffer has %d bytes, want %d", len(im.Pix), im.Width*im.Height)
	}
	for i, v := range im.Pix {
		if v > 1 {
			return fmt.Errorf("binimg: pixel (%d,%d) has value %d, want 0 or 1", i%im.Width, i/im.Width, v)
		}
	}
	return nil
}

// At returns the pixel at (x, y). It panics on out-of-range coordinates, like
// a slice index would.
func (im *Image) At(x, y int) uint8 {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		panic(fmt.Sprintf("binimg: At(%d,%d) out of range %dx%d", x, y, im.Width, im.Height))
	}
	return im.Pix[y*im.Width+x]
}

// AtOr returns the pixel at (x, y), or def when (x, y) lies outside the
// image. Border-heavy scan code uses this to treat out-of-image neighbors as
// background.
func (im *Image) AtOr(x, y int, def uint8) uint8 {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		return def
	}
	return im.Pix[y*im.Width+x]
}

// Set writes the pixel at (x, y). It panics on out-of-range coordinates or a
// value other than 0 or 1.
func (im *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		panic(fmt.Sprintf("binimg: Set(%d,%d) out of range %dx%d", x, y, im.Width, im.Height))
	}
	if v > 1 {
		panic(fmt.Sprintf("binimg: Set value %d, want 0 or 1", v))
	}
	im.Pix[y*im.Width+x] = v
}

// InBounds reports whether (x, y) addresses a pixel of the image.
func (im *Image) InBounds(x, y int) bool {
	return x >= 0 && x < im.Width && y >= 0 && y < im.Height
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	pix := make([]uint8, len(im.Pix))
	copy(pix, im.Pix)
	return &Image{Width: im.Width, Height: im.Height, Pix: pix}
}

// Fill sets every pixel to v (0 or 1).
func (im *Image) Fill(v uint8) {
	if v > 1 {
		panic(fmt.Sprintf("binimg: Fill value %d, want 0 or 1", v))
	}
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// ForegroundCount returns the number of object pixels.
func (im *Image) ForegroundCount() int {
	n := 0
	for _, v := range im.Pix {
		if v != 0 {
			n++
		}
	}
	return n
}

// Density returns the fraction of pixels that are foreground, in [0, 1].
// An empty image has density 0.
func (im *Image) Density() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	return float64(im.ForegroundCount()) / float64(len(im.Pix))
}

// SizeBytes returns the in-memory size of the raster in bytes (one byte per
// pixel). The paper reports dataset sizes in MB of binary raster; this is the
// matching quantity.
func (im *Image) SizeBytes() int { return len(im.Pix) }

// Invert flips every pixel in place: background becomes foreground and vice
// versa.
func (im *Image) Invert() {
	for i, v := range im.Pix {
		im.Pix[i] = 1 - v
	}
}

// Equal reports whether two images have identical dimensions and pixels.
func (im *Image) Equal(other *Image) bool {
	if im.Width != other.Width || im.Height != other.Height {
		return false
	}
	for i, v := range im.Pix {
		if v != other.Pix[i] {
			return false
		}
	}
	return true
}

// SubImage returns a deep copy of the rectangle [x0,x0+w) x [y0,y0+h).
// It panics if the rectangle is not fully contained in the image.
func (im *Image) SubImage(x0, y0, w, h int) *Image {
	if x0 < 0 || y0 < 0 || w < 0 || h < 0 || x0+w > im.Width || y0+h > im.Height {
		panic(fmt.Sprintf("binimg: SubImage(%d,%d,%d,%d) out of range %dx%d", x0, y0, w, h, im.Width, im.Height))
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w:(y+1)*w], im.Pix[(y0+y)*im.Width+x0:(y0+y)*im.Width+x0+w])
	}
	return out
}

// Pad returns a copy of the image with a border of n background pixels added
// on every side.
func (im *Image) Pad(n int) *Image {
	if n < 0 {
		panic("binimg: negative padding")
	}
	out := New(im.Width+2*n, im.Height+2*n)
	for y := 0; y < im.Height; y++ {
		copy(out.Pix[(y+n)*out.Width+n:(y+n)*out.Width+n+im.Width], im.Pix[y*im.Width:(y+1)*im.Width])
	}
	return out
}

// Transpose returns a new image with x and y swapped.
func (im *Image) Transpose() *Image {
	out := New(im.Height, im.Width)
	for y := 0; y < im.Height; y++ {
		row := im.Pix[y*im.Width : (y+1)*im.Width]
		for x, v := range row {
			out.Pix[x*out.Width+y] = v
		}
	}
	return out
}

// FlipH returns a new image mirrored left-to-right.
func (im *Image) FlipH() *Image {
	out := New(im.Width, im.Height)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			out.Pix[y*im.Width+(im.Width-1-x)] = im.Pix[y*im.Width+x]
		}
	}
	return out
}

// FlipV returns a new image mirrored top-to-bottom.
func (im *Image) FlipV() *Image {
	out := New(im.Width, im.Height)
	for y := 0; y < im.Height; y++ {
		copy(out.Pix[(im.Height-1-y)*im.Width:(im.Height-y)*im.Width], im.Pix[y*im.Width:(y+1)*im.Width])
	}
	return out
}

// FromGray binarizes a grayscale raster (one byte per pixel, 0..255) with the
// semantics of MATLAB's im2bw: luminance strictly greater than level*255
// becomes foreground (1), everything else background (0). The paper binarizes
// all datasets with level 0.5.
func FromGray(width, height int, gray []uint8, level float64) (*Image, error) {
	if len(gray) != width*height {
		return nil, fmt.Errorf("binimg: gray buffer has %d bytes, want %d", len(gray), width*height)
	}
	thresh := level * 255
	out := New(width, height)
	for i, v := range gray {
		if float64(v) > thresh {
			out.Pix[i] = 1
		}
	}
	return out, nil
}

// Parse builds an image from an ASCII art string: '#' and '1' are foreground,
// '.', '0' and ' ' are background; rows are separated by newlines. Leading
// and trailing blank lines are ignored; all rows must have the same width.
// This is the test suite's raster literal syntax.
func Parse(art string) (*Image, error) {
	lines := strings.Split(art, "\n")
	// Trim leading/trailing blank lines.
	for len(lines) > 0 && strings.TrimSpace(lines[0]) == "" {
		lines = lines[1:]
	}
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return New(0, 0), nil
	}
	width := len(strings.TrimSpace(lines[0]))
	im := New(width, len(lines))
	for y, line := range lines {
		line = strings.TrimSpace(line)
		if len(line) != width {
			return nil, fmt.Errorf("binimg: row %d has width %d, want %d", y, len(line), width)
		}
		for x, c := range line {
			switch c {
			case '#', '1':
				im.Pix[y*width+x] = 1
			case '.', '0', ' ':
				// background
			default:
				return nil, fmt.Errorf("binimg: row %d has invalid rune %q", y, c)
			}
		}
	}
	return im, nil
}

// MustParse is Parse but panics on error; intended for test fixtures.
func MustParse(art string) *Image {
	im, err := Parse(art)
	if err != nil {
		panic(err)
	}
	return im
}

// String renders the image as ASCII art with '#' for foreground and '.' for
// background, one row per line.
func (im *Image) String() string {
	var b strings.Builder
	b.Grow((im.Width + 1) * im.Height)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			if im.Pix[y*im.Width+x] != 0 {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		if y != im.Height-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SplitEven divides [0, n) into k chunks for the parallel labelers and
// returns the k+1 chunk bounds. The ⌈n/step⌉ whole steps (row pairs for
// step 2) are dealt out as evenly as possible, the leading chunks taking
// one extra step each when they do not divide evenly; every bound is a
// multiple of step except the final n. With k greater than the number of
// steps the trailing chunks are empty.
func SplitEven(n, k, step int) []int {
	units := (n + step - 1) / step
	bounds := make([]int, k+1)
	base, rem := units/k, units%k
	u := 0
	for c := 0; c < k; c++ {
		bounds[c] = min(u*step, n)
		u += base
		if c < rem {
			u++
		}
	}
	bounds[k] = n
	return bounds
}
