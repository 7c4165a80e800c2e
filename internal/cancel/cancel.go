// Package cancel is the cooperative-cancellation poll shared by every
// labeller and its companion passes (scan, relabel, contour tracing, band
// streaming). The long row loops poll a context's done channel once per
// block of PollRows rows and abort with Err: the poll is allocation-free and,
// when the context can never be canceled (a nil ctx, or one whose Done is
// nil), costs one predicted branch per block.
package cancel

import "context"

// PollRows is how many raster rows a cancelable loop processes between
// polls. 64 rows amortizes the poll to well under the cost of one row.
const PollRows = 64

// Done returns ctx's done channel; nil (never cancels) for a nil ctx.
func Done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Err returns ctx's error once its done channel closed, defaulting to
// context.Canceled for a nil ctx or a closed channel with no recorded error.
func Err(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// Stopped reports whether done is closed without blocking; a nil done never
// stops.
func Stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
