package loadgen

import (
	"fmt"
	"time"
)

// TokenBucket is a deterministic rate limiter over the virtual clock:
// time is a plain time.Duration offset, refill is computed
// arithmetically, and admission instants are exact — so a fixed seed
// and rate produce an identical event-admission schedule on every run,
// which is what makes replay latency percentiles reproducible.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Duration
}

// NewTokenBucket returns a bucket admitting rate events/sec with the
// given burst capacity, born full.
func NewTokenBucket(rate float64, burst int) (*TokenBucket, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: token bucket rate %v, need > 0", rate)
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}, nil
}

// refillAt returns the token level at virtual instant t without
// mutating state.
func (b *TokenBucket) refillAt(t time.Duration) float64 {
	if t <= b.last {
		return b.tokens
	}
	tokens := b.tokens + b.rate*(t-b.last).Seconds()
	if tokens > b.burst {
		tokens = b.burst
	}
	return tokens
}

// When peeks the earliest virtual instant ≥ now at which one token is
// available, without consuming it. The driver uses it to timestamp an
// event's admission exactly, then commits with Take.
func (b *TokenBucket) When(now time.Duration) time.Duration {
	if now < b.last {
		now = b.last
	}
	have := b.refillAt(now)
	if have >= 1 {
		return now
	}
	// Round the wait UP to the next nanosecond: truncation would land the
	// admission fractionally early, letting the token level drift negative
	// and the long-run admitted rate creep above the configured rate.
	need := (1 - have) / b.rate * float64(time.Second)
	wait := time.Duration(need)
	if float64(wait) < need {
		wait++
	}
	return now + wait
}

// Take consumes one token at virtual instant t. Callers pass a t from
// When, whose rounded-up wait guarantees the token has fully refilled by
// then, so the level stays non-negative (modulo float-evaluation dust).
func (b *TokenBucket) Take(t time.Duration) {
	b.tokens = b.refillAt(t) - 1
	if t > b.last {
		b.last = t
	}
}
