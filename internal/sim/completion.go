package sim

// Completion is the stop contract of a windowed run that ends once a
// known number of terminal outcomes — finished flows, resolved requests —
// has been counted. Its Done and Horizon methods are RunWindows' two
// completion hooks:
//
//   - Done turns true when the count reaches the wanted total.
//   - Horizon is the latest counted outcome plus the window slack, the
//     canonical instant a run that saw Done is clamped to.
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
// never share a cache line. Both fields are 8 bytes on every GOARCH.
type completionShard struct {
	n    int64     // outcomes counted on this shard
	last Time      // the latest of them
	_    [6]uint64 // to 64 bytes
}

// Init readies c for a run over shards engines that is done once want
// outcomes are counted; slack is the window slack Horizon adds (see
// fabric.Network.WindowSlack). Any previous count is discarded.
func (c *Completion) Init(shards, want int, slack Duration) {
	c.want, c.slack = want, slack
	c.shards = make([]completionShard, shards)
}

// Add counts one outcome at now on shard.
func (c *Completion) Add(shard int, now Time) {
	sh := &c.shards[shard]
	sh.n++
	if now > sh.last {
		sh.last = now
	}
}

// Done reports whether every wanted outcome has been counted.
func (c *Completion) Done() bool {
	var n int64
	for i := range c.shards {
		n += c.shards[i].n
	}
	return n == int64(c.want)
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
