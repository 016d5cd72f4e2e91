package sim

// Completion is the self-stop contract of a windowed run that ends once a
// known number of terminal outcomes — finished flows, resolved requests —
// has been counted. Its Done, Horizon and Widen methods are RunWindows'
// three completion hooks:
//
//   - Done turns true when the count reaches the wanted total.
//   - Horizon is the latest counted outcome plus the window slack, the
//     canonical instant a run that saw Done is clamped to.
//   - Widen arms the granted shard to stop its engine at the count that
//     makes Done true, the obligation WindowConfig.Widen states.
//
// Each shard counts into its own slot, from its own goroutine during
// windows (Add); the hooks run on the coordinator at barriers, which order
// them against every shard's execution. The zero value is unusable; Init
// sizes it for a run.
type Completion struct {
	want   int
	slack  Duration
	shards []completionShard
}

// completionShard is one shard's slot, padded so two shards' counters
// never share a cache line.
type completionShard struct {
	n    int  // outcomes counted on this shard
	last Time // the latest of them
	// target, when positive, is the count at which this shard stops its
	// engine: set by Widen at barriers, read by Add during windows.
	target int
	_      [5]uint64 // to 64 bytes
}

// Init readies c for a run over shards engines that is done once want
// outcomes are counted; slack is the window slack Horizon adds (see
// fabric.Network.WindowSlack). Any previous count is discarded.
func (c *Completion) Init(shards, want int, slack Duration) {
	c.want, c.slack = want, slack
	c.shards = make([]completionShard, shards)
}

// Add counts one outcome at now on shard, whose engine is e. When a Widen
// grant armed the shard and this outcome reaches its target, e stops so
// the next barrier can see Done; if the grant's snapshot was stale the
// engine resumes in a later window.
func (c *Completion) Add(shard int, e *Engine, now Time) {
	sh := &c.shards[shard]
	sh.n++
	if now > sh.last {
		sh.last = now
	}
	if sh.target > 0 && sh.n >= sh.target {
		e.Stop()
	}
}

// Done reports whether every wanted outcome has been counted.
func (c *Completion) Done() bool {
	n := 0
	for i := range c.shards {
		n += c.shards[i].n
	}
	return n == c.want
}

// Last returns the time of the latest outcome counted on any shard, zero
// before the first.
func (c *Completion) Last() Time {
	var last Time
	for i := range c.shards {
		last = max(last, c.shards[i].last)
	}
	return last
}

// Horizon returns Last plus the window slack: the latest instant any
// window containing the final outcome can reach, for every shard count
// and every lookahead up to the slack. Clamping a run there keeps its
// executed events identical across partitionings and window widths.
func (c *Completion) Horizon() Time { return c.Last().Add(c.slack) }

// Widen arms shard to stop at "every outcome not yet counted elsewhere" —
// exactly the count at which its own outcomes make Done true — and
// disarms every other shard. A stale snapshot is safe: outcomes counted
// elsewhere during the widened window only move Last, and with it the
// horizon, later. A target that is zero (nothing left) or unreachable
// (the shard produces no outcomes) never fires, and the run ends at a
// barrier or the deadline as with fixed windows. It always grants.
func (c *Completion) Widen(shard int) bool {
	others := 0
	for i := range c.shards {
		if i != shard {
			others += c.shards[i].n
			c.shards[i].target = 0
		}
	}
	c.shards[shard].target = c.want - others
	return true
}
