package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// ChurnOp is one membership transition in a churn trace.
type ChurnOp uint8

// Churn operations. A graceful leave announces itself (Depart messages,
// LIGLO deregistration); a crash just stops — neighbors discover it
// through failure detection.
const (
	OpJoin ChurnOp = iota
	OpLeave
	OpCrash
)

// String names the operation.
func (o ChurnOp) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpCrash:
		return "crash"
	}
	return "op?"
}

// ChurnEvent is one node's membership transition at a point in simulated
// time.
type ChurnEvent struct {
	At   time.Duration
	Node int
	Op   ChurnOp
}

// ChurnTrace is a time-ordered membership schedule, the input both the
// churn simulation and the live soak replay. Traces produced by the
// generators below are deterministic functions of their seed.
type ChurnTrace []ChurnEvent

// Merge combines traces into one time-ordered trace. Ordering among
// simultaneous events is by (time, node, op) so merged traces stay
// deterministic regardless of input order.
func Merge(traces ...ChurnTrace) ChurnTrace {
	var out ChurnTrace
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// expDuration draws an exponentially distributed duration with the given
// mean — the classic memoryless session-time model observed in deployed
// peer-to-peer systems.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(-float64(mean) * math.Log(1-rng.Float64()))
}

// ExponentialSessions generates continuous churn for n nodes over the
// horizon: each node alternates exponentially distributed online sessions
// (mean meanSession) and offline gaps (mean meanDowntime). Each session
// ends in a graceful leave with probability gracefulFrac, otherwise a
// crash. Nodes start online (no initial join events); the first
// transition is each node's first session end. Deterministic by seed.
func ExponentialSessions(n int, horizon, meanSession, meanDowntime time.Duration, gracefulFrac float64, seed int64) ChurnTrace {
	rng := rand.New(rand.NewSource(seed))
	var out ChurnTrace
	for node := 0; node < n; node++ {
		t := expDuration(rng, meanSession)
		for t < horizon {
			op := OpCrash
			if rng.Float64() < gracefulFrac {
				op = OpLeave
			}
			out = append(out, ChurnEvent{At: t, Node: node, Op: op})
			t += expDuration(rng, meanDowntime)
			if t >= horizon {
				break
			}
			out = append(out, ChurnEvent{At: t, Node: node, Op: OpJoin})
			t += expDuration(rng, meanSession)
		}
	}
	return Merge(out)
}

// CorrelatedFailureBurst crashes frac of the nodes in [0, n) at the same
// instant — a rack loss or partition, the hardest repair case because
// every survivor starts repairing at once. Victims are a deterministic
// pseudo-random subset by seed.
func CorrelatedFailureBurst(n int, frac float64, at time.Duration, seed int64) ChurnTrace {
	if frac <= 0 {
		return nil
	}
	if frac > 1 {
		frac = 1
	}
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(n)[:int(float64(n)*frac)]
	out := make(ChurnTrace, 0, len(victims))
	for _, v := range victims {
		out = append(out, ChurnEvent{At: at, Node: v, Op: OpCrash})
	}
	return Merge(out)
}
