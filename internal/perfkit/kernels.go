package perfkit

import "math"

// Kernel contracts
//
// Every optimized kernel in this file is paired with a ...Ref reference
// that implements the identical contract with the plain scalar loop the
// repo shipped before perfkit existed (EccInto and MaxPathEcc are that
// plain loop and stand alone). The pair must agree
// bit-for-bit: kernels are free to reorder *comparisons* (min/max are
// order-independent) and to skip elements that provably cannot win,
// but they must combine operands in exactly the same additions, with
// the same left-to-right association, as their reference. That is the
// property the differential tests assert with math.Float64bits, and it
// is what lets internal/core swap a kernel into MaxInteractionPath or
// LowerBound without perturbing a single figure CSV.

// MinPlus returns min over i of a[i] + b[i], or +Inf when a is empty.
// b must be at least as long as a. It is the inner step of the paper's
// super-optimal lower bound (both phases are min-plus products) and is
// unrolled into four independent accumulators so the adds pipeline
// instead of serializing on one running minimum.
//
//dialint:hotpath
func MinPlus(a, b []float64) float64 {
	n := len(a)
	if n == 0 {
		return math.Inf(1)
	}
	b = b[:n]
	m0 := math.Inf(1)
	m1, m2, m3 := m0, m0, m0
	i := 0
	for ; i+4 <= n; i += 4 {
		if v := a[i] + b[i]; v < m0 {
			m0 = v
		}
		if v := a[i+1] + b[i+1]; v < m1 {
			m1 = v
		}
		if v := a[i+2] + b[i+2]; v < m2 {
			m2 = v
		}
		if v := a[i+3] + b[i+3]; v < m3 {
			m3 = v
		}
	}
	for ; i < n; i++ {
		if v := a[i] + b[i]; v < m0 {
			m0 = v
		}
	}
	if m1 < m0 {
		m0 = m1
	}
	if m2 < m0 {
		m0 = m2
	}
	if m3 < m0 {
		m0 = m3
	}
	return m0
}

// MinPlusRef is the retained scalar reference for MinPlus.
func MinPlusRef(a, b []float64) float64 {
	best := math.Inf(1)
	for i := range a {
		if v := a[i] + b[i]; v < best {
			best = v
		}
	}
	return best
}

// MaxMinPlus folds rows j ∈ [jStart, cs.Rows()) of cs into the running
// maximum lb: for each row, the candidate is min over l of
// bi[l] + row[l], and lb becomes the larger of the two. It is phase two
// of the paper's super-optimal lower bound, one client row bi per call,
// fused so the triangular pair scan makes one call per row instead of
// one per pair.
//
// A row is abandoned as soon as its running minimum falls to lb or
// below: minima only decrease and lb only increases, so such a row can
// never raise lb. That skip drops most of the work once lb is large
// (in practice a ~3x wall-clock cut at MIT scale) and provably cannot
// change the fold — the result is bit-identical to MaxMinPlusRef.
//
//dialint:hotpath
func MaxMinPlus(bi []float64, cs *FlatMatrix, jStart int, lb float64) float64 {
	n := cs.Rows()
	for j := jStart; j < n; j++ {
		cj := cs.Row(j)[:len(bi)]
		best := math.Inf(1)
		for l, x := range bi {
			if v := x + cj[l]; v < best {
				best = v
				if best <= lb {
					break
				}
			}
		}
		if best > lb {
			lb = best
		}
	}
	return lb
}

// MaxMinPlusRef is the retained naive reference for MaxMinPlus: the
// full min of every row, no abandonment.
func MaxMinPlusRef(bi []float64, cs *FlatMatrix, jStart int, lb float64) float64 {
	for j := jStart; j < cs.Rows(); j++ {
		if best := MinPlusRef(bi, cs.Row(j)[:len(bi)]); best > lb {
			lb = best
		}
	}
	return lb
}

// MaxPlusSkip returns max over i with ecc[i] ≥ 0 of row[i] + ecc[i],
// or -Inf when no entry qualifies. Negative ecc entries are the
// "server has no clients" sentinel used throughout the repo. This is
// Greedy's per-candidate-server m term (the paper's
// max_b {d(s, sA(b)) + d(sA(b), b)}).
//
//dialint:hotpath
func MaxPlusSkip(row, ecc []float64) float64 {
	n := len(row)
	if n == 0 {
		return math.Inf(-1)
	}
	ecc = ecc[:n]
	best := math.Inf(-1)
	for i := 0; i < n; i++ {
		e := ecc[i]
		if e < 0 {
			continue
		}
		if v := row[i] + e; v > best {
			best = v
		}
	}
	return best
}

// MaxPlusSkipRef is the retained scalar reference for MaxPlusSkip.
func MaxPlusSkipRef(row, ecc []float64) float64 {
	best := math.Inf(-1)
	for i := range row {
		if ecc[i] < 0 {
			continue
		}
		if v := row[i] + ecc[i]; v > best {
			best = v
		}
	}
	return best
}

// EccInto fills ecc (length ss-server count = cs.Cols()) with the
// eccentricity of each server under assignment a: the maximum distance
// from the server to a client assigned to it, or -1 for servers with
// no clients. a[i] < 0 means client i is unassigned.
//
//dialint:hotpath
func EccInto(cs *FlatMatrix, a []int, ecc []float64) {
	for k := range ecc {
		ecc[k] = -1
	}
	for i, s := range a {
		if s < 0 {
			continue
		}
		if d := cs.data[i*cs.stride+s]; d > ecc[s] {
			ecc[s] = d
		}
	}
}

// MaxPathEcc returns the maximum interaction-path length implied by
// per-server eccentricities: max over server pairs (s, t), both with
// ecc ≥ 0, of ecc[s] + ss[s][t] + ecc[t], including s = t. The result
// is 0 when no server has clients (matching the evaluators it backs).
//
//dialint:hotpath
func MaxPathEcc(ss *FlatMatrix, ecc []float64) float64 {
	ns := len(ecc)
	var best float64
	for s := 0; s < ns; s++ {
		if ecc[s] < 0 {
			continue
		}
		row := ss.Row(s)
		for t := s; t < ns; t++ {
			if ecc[t] < 0 {
				continue
			}
			if v := ecc[s] + row[t] + ecc[t]; v > best {
				best = v
			}
		}
	}
	return best
}

// CompactAssigned gathers the assigned clients of a into dense arrays:
// dc[x] = d(client, its server) and srv[x] = its server, for the x-th
// assigned client in index order. It returns the number of assigned
// clients. dc and srv must have length ≥ len(a).
//
//dialint:hotpath
func CompactAssigned(cs *FlatMatrix, a []int, dc []float64, srv []int) int {
	n := 0
	for i, s := range a {
		if s < 0 {
			continue
		}
		dc[n] = cs.data[i*cs.stride+s]
		srv[n] = s
		n++
	}
	return n
}

// MaxPathPairsRange is the full client-pair interaction-path maximum
// over compacted assigned clients (see CompactAssigned), restricted to
// outer indices start, start+stride, start+2·stride, … so callers can
// fan it out over strided row ranges. For each pair x ≤ y it evaluates
// dc[x] + ss[srv[x]][srv[y]] + dc[y] — the same association the
// reference uses — with the server row hoisted out of the inner loop.
//
// Against the reference (per-pair InteractionPath with two sentinel
// branches and four indexed loads), compaction turns the O(|C|²) scan
// into two contiguous streams plus one gather, which is where the
// diabench speedup at Meridian scale comes from.
//
//dialint:hotpath
func MaxPathPairsRange(dc []float64, srv []int, ss *FlatMatrix, start, stride int) float64 {
	n := len(dc)
	var best float64
	for x := start; x < n; x += stride {
		row := ss.Row(srv[x])
		dx := dc[x]
		for y := x; y < n; y++ {
			if v := dx + row[srv[y]] + dc[y]; v > best {
				best = v
			}
		}
	}
	return best
}

// NearestInto fills out[i] with the argmin of row i of cs — each
// client's closest server, ties broken toward the lower index (strict
// < comparison). out must have length cs.Rows(). The running minimum
// is kept in a register instead of re-reading row[best] each
// comparison, and the row slice is re-sliced for bounds-check
// elimination.
//
//dialint:hotpath
func NearestInto(cs *FlatMatrix, out []int) {
	for i := 0; i < cs.rows; i++ {
		row := cs.Row(i)
		if len(row) == 0 {
			out[i] = -1
			continue
		}
		best, bv := 0, row[0]
		for k := 1; k < len(row); k++ {
			if row[k] < bv {
				best, bv = k, row[k]
			}
		}
		out[i] = best
	}
}

// NearestIntoRef is the retained reference for NearestInto, written
// the way assign.NearestServer's scan was: re-reading row[best] on
// every comparison.
func NearestIntoRef(cs *FlatMatrix, out []int) {
	for i := 0; i < cs.Rows(); i++ {
		row := cs.Row(i)
		if len(row) == 0 {
			out[i] = -1
			continue
		}
		best := 0
		for k := 1; k < len(row); k++ {
			if row[k] < row[best] {
				best = k
			}
		}
		out[i] = best
	}
}
