package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"bestpeer/internal/workload"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of samples by the
// nearest-rank rule, together with the sample count so every reported
// timing can state how many observations stand behind it. An empty
// input yields (0, 0).
func percentile(samples []float64, q float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n
}

// median is percentile(samples, 0.5) without the count.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// The measured window is cut into whole seconds. Every rate and timing
// is first taken second by second and then read at the favourable
// quartile over the seconds: the third quartile of the per-second
// completion counts, the first quartile of the per-second latency
// percentiles and of the per-second CPU per query. On the shared 2-core
// machines this runs on, a neighbour slows the process to about half
// speed for stretches of seconds; a statistic over the whole window
// absorbs however many such stretches a run happened to catch (measured
// run-to-run spread 10–13 %), the favourable quartile reads the seconds
// that ran undisturbed as long as a quarter of them did (2–6 %). A
// regression in the program moves every second, so it still shows.

// seconds is how many whole-second slices the window has; a window
// shorter than a second is one slice.
func seconds(window time.Duration) int {
	if n := int(window / time.Second); n > 0 {
		return n
	}
	return 1
}

// sliceOf is the slice an offset from the window start falls in, or -1
// when it lies outside the whole seconds of the window.
func sliceOf(ref, window time.Duration) int {
	if ref < 0 || ref >= window {
		return -1
	}
	if s := int(ref / time.Second); s < seconds(window) {
		return s
	}
	return -1 // the trailing partial second is not a slice
}

// perSecondCounts is how many of the offsets fall in each slice, scaled
// to a rate per second.
func perSecondCounts(done []time.Duration, window time.Duration) []float64 {
	counts := make([]float64, seconds(window))
	for _, d := range done {
		if s := sliceOf(d, window); s >= 0 {
			counts[s]++
		}
	}
	if window < time.Second {
		counts[0] /= window.Seconds()
	}
	return counts
}

// bySlice groups values by the slice their offset falls in.
func bySlice(refs []time.Duration, values []float64, window time.Duration) [][]float64 {
	out := make([][]float64, seconds(window))
	for i, ref := range refs {
		if s := sliceOf(ref, window); s >= 0 {
			out[s] = append(out[s], values[i])
		}
	}
	return out
}

// favourable reads per-slice values at the quartile on their good side:
// the first quartile when lower is better, the third when higher is.
func favourable(perSlice []float64, better string) float64 {
	q := 0.25
	if better == "higher" {
		q = 0.75
	}
	v, _ := percentile(perSlice, q)
	return v
}

// steadyPercentile is the q-quantile of values taken slice by slice and
// read at the favourable (first) quartile over the slices that saw any
// sample; the count is the number of samples behind it.
func steadyPercentile(slices [][]float64, q float64) (float64, int) {
	var perSlice []float64
	n := 0
	for _, s := range slices {
		if len(s) == 0 {
			continue
		}
		v, _ := percentile(s, q)
		perSlice = append(perSlice, v)
		n += len(s)
	}
	return favourable(perSlice, "lower"), n
}

// schedule is an open-loop arrival plan: request i is due at
// start + i×interval regardless of how earlier requests fared, so a
// stall shows up as lateness and as latency of the requests queued
// behind it instead of silently lowering the offered load.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, perSecond float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// due returns when request i should be issued.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// lateBy is how far behind its due time a request actually started
// (never negative: an early wake-up counts as on time).
func lateBy(due, started time.Time) time.Duration {
	if d := started.Sub(due); d > 0 {
		return d
	}
	return 0
}

// waitUntil blocks until t or until stop closes; it reports false when
// stopped first.
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// zipfBlock is how many queries one block of the zipf-cache sequence
// holds: ten seconds of load at the offered rate.
const zipfBlock = 500

// zipfSequence draws n keywords from the Zipf law that
// workload.Spec.ZipfQueries samples — P(rank k) ∝ (1+k)^-skew over the
// vocabulary — but by systematic sampling: each block of zipfBlock
// queries takes the law's quantiles at evenly spaced points with one
// random phase, then shuffles them. Every block therefore holds each
// keyword within one of its expected count, whatever the seed; the seed
// decides the order. Independent draws made the share of repeated
// keywords itself a random variable, and with it every per-query cost on
// zipf-cache (6–7 % run-to-run spread over seeds).
func zipfSequence(spec *workload.Spec, seed int64, n int) []string {
	cdf := make([]float64, spec.Vocabulary)
	total := 0.0
	for k := range cdf {
		total += math.Pow(1+float64(k), -zipfSkew)
		cdf[k] = total
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n+zipfBlock)
	for len(out) < n {
		phase := rng.Float64()
		block := make([]string, zipfBlock)
		k := 0
		for i := range block {
			u := (float64(i) + phase) / zipfBlock * total
			for k < len(cdf)-1 && cdf[k] < u {
				k++
			}
			block[i] = spec.Keyword(k)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}
