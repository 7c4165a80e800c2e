package unionfind

// Flatten resolves the equivalence array p in place and assigns consecutive
// final labels 1..n to the set representatives. This is Algorithm 3 of the
// paper ("FLATTEN"): a single forward sweep that works because REM unions
// preserve p[i] <= i, so when the sweep reaches i, p[p[i]] already holds the
// final label of i's representative.
//
// p[0] is the background slot and must stay 0; the sweep covers labels
// 1..count inclusive. It returns the number of distinct final labels n.
func Flatten(p []Label, count Label) Label {
	return FlattenRange(p, 1, count, 1) - 1
}

// FlattenRange is Flatten over the labels lo..hi of a label space made of
// disjoint created ranges, swept range by range in increasing order: every
// label below lo must already be final, and the representatives found here
// are numbered k, k+1, .... It returns the next unused final label. Every
// slot of lo..hi must have been created (an empty range has hi = lo-1), so
// unlike FlattenSparse the array needs no zeroing.
func FlattenRange(p []Label, lo, hi, k Label) Label {
	for i := lo; i <= hi; i++ {
		if p[i] < i {
			p[i] = p[p[i]]
		} else {
			p[i] = k
			k++
		}
	}
	return k
}

// FlattenSparse is Flatten for the parallel algorithm's sparse label space:
// provisional labels are drawn from disjoint per-chunk ranges, so most slots
// of p were never created. Slots never created hold 0 (and slot i==0 itself
// is background); they are skipped so that final labels remain consecutive.
//
// A created slot always satisfies 1 <= p[i] <= i, so p[i] == 0 is an
// unambiguous "never created" marker.
func FlattenSparse(p []Label, count Label) Label {
	var k Label = 1
	for i := Label(1); i <= count; i++ {
		switch {
		case p[i] == 0:
			// label i was never assigned by any chunk's scan
		case p[i] < i:
			p[i] = p[p[i]]
		default:
			p[i] = k
			k++
		}
	}
	return k - 1
}
