package fault

import "snacc/internal/sim"

// LinkRule describes one network-level fault source on a simulated link: a
// partition window that drops frames, or a degradation window that delays
// them. Rules are consulted per received frame at one receive site; a rule
// matches while the simulation clock is inside [From, Until) (Until 0 =
// forever) and then fires every Nth match, with probability Probability per
// match, or — when neither is set — on every match, bounded by Count total
// fires.
type LinkRule struct {
	// Name labels the rule in stats and logs.
	Name string
	// Drop discards the matched frame; otherwise the frame is delivered
	// Delay late.
	Drop bool
	// Delay is the extra delivery latency for a non-drop rule.
	Delay sim.Time
	// From/Until bound the active window on the simulation clock,
	// inclusive-exclusive. Until 0 leaves the rule active forever.
	From, Until sim.Time
	// Nth fires on every Nth matching frame (1 = every match). When 0,
	// Probability decides; when both are 0 the rule fires on every match.
	Nth int64
	// Probability fires each matching frame with this chance, drawn from
	// the injector's seeded PRNG.
	Probability float64
	// Count caps total fires; 0 is unbounded.
	Count int64

	seen, fired int64
}

// Seen returns how many frames fell inside the rule's window.
func (r *LinkRule) Seen() int64 { return r.seen }

// Fired returns how many frames the rule dropped or delayed.
func (r *LinkRule) Fired() int64 { return r.fired }

// LinkFate is the verdict for one received frame.
type LinkFate struct {
	// Drop discards the frame as if the cable ate it.
	Drop bool
	// Delay postpones processing of the frame (0 when the frame passed).
	Delay sim.Time
}

// LinkInjector evaluates LinkRules against one receive site of a simulated
// link; its PRNG and counters are consumed in event order. Model a
// bidirectional partition with one injector per direction, each owned by
// the receiving side.
type LinkInjector struct {
	rng     *sim.Rand
	rules   []*LinkRule
	dropped int64
	delayed int64
}

// NewLinkInjector builds an injector whose probabilistic decisions replay
// exactly for a given seed.
func NewLinkInjector(seed uint64) *LinkInjector {
	if seed == 0 {
		seed = 1
	}
	return &LinkInjector{rng: sim.NewRand(seed)}
}

// Add registers a rule — rules are evaluated in registration order and the
// first rule that fires wins — and returns the stored copy for stats
// inspection.
func (li *LinkInjector) Add(r LinkRule) *LinkRule {
	rp := &r
	li.rules = append(li.rules, rp)
	return rp
}

// FrameFate decides what happens to one frame received at simulation time
// now. A nil injector passes everything.
func (li *LinkInjector) FrameFate(now sim.Time) LinkFate {
	if li == nil {
		return LinkFate{}
	}
	for _, r := range li.rules {
		if now < r.From || (r.Until > 0 && now >= r.Until) {
			continue
		}
		r.seen++
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		hit := false
		switch {
		case r.Nth > 0:
			hit = r.seen%r.Nth == 0
		case r.Probability > 0:
			hit = li.rng.Float64() < r.Probability
		default:
			hit = true
		}
		if !hit {
			continue
		}
		r.fired++
		if r.Drop {
			li.dropped++
			return LinkFate{Drop: true}
		}
		li.delayed++
		return LinkFate{Delay: r.Delay}
	}
	return LinkFate{}
}

// Dropped returns the total frames discarded.
func (li *LinkInjector) Dropped() int64 {
	if li == nil {
		return 0
	}
	return li.dropped
}

// Delayed returns the total frames delivered late.
func (li *LinkInjector) Delayed() int64 {
	if li == nil {
		return 0
	}
	return li.delayed
}
