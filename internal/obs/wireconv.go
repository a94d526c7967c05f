package obs

import (
	"tell/internal/metrics"
	"tell/internal/wire"
)

// StatsExt renders the pipeline as the stats wire snapshot a daemon serves
// for KindStatsExtReq: merged series digests, heat rows, aggregated breach
// tallies and flight-recorder state. A quantile the retained windows hold
// too few samples for stays 0 (see supportedQuantile). node names the
// answering daemon. Safe on a nil pipeline (returns an empty snapshot, to
// which the daemon still appends its counters).
func (p *Pipeline) StatsExt(node string) *wire.StatsExt {
	ext := &wire.StatsExt{Node: node}
	if p == nil {
		return ext
	}
	now := p.Now()
	p.Sync(now)
	ext.NowNs = int64(now)
	ext.WindowNs = int64(p.cfg.Window)

	for _, d := range p.Snapshot() {
		s := wire.SeriesStat{Node: d.Node, Metric: d.Metric, Hist: d.Hist, Total: d.Total}
		if d.Hist {
			if h := p.Class(d.Node, d.Metric); h != nil && h.Count() > 0 {
				s.Count = h.Count()
				s.MeanNs = int64(h.Mean())
				s.P50Ns = supportedQuantile(h, 500)
				s.P99Ns = supportedQuantile(h, 990)
				s.P999Ns = supportedQuantile(h, 999)
			}
		}
		ext.Series = append(ext.Series, s)
	}

	for _, r := range p.HeatRows() {
		ext.Heat = append(ext.Heat, wire.HeatStat{
			Node:        r.Node,
			Range:       r.Range,
			Reads:       r.Total.Reads,
			Writes:      r.Total.Writes,
			Conflicts:   r.Total.Conflicts,
			ReadBytes:   r.Total.ReadBytes,
			WriteBytes:  r.Total.WriteBytes,
			RecentOps:   r.Recent.Ops(),
			RecentLatNs: int64(r.Recent.MeanLat()),
		})
	}

	breaches, _ := p.Breaches()
	tally := make(map[[2]string]int64)
	var order [][2]string
	for _, b := range breaches {
		k := [2]string{b.Class, b.Quantile}
		if tally[k] == 0 {
			order = append(order, k)
		}
		tally[k]++
	}
	for _, k := range order {
		ext.Breaches = append(ext.Breaches, wire.BreachStat{
			Class: k[0], Quantile: k[1], Count: tally[k]})
	}

	caps, evicted := p.flight.Captures()
	ext.Flight = wire.FlightStat{
		Retained: uint64(len(caps)),
		Evicted:  evicted,
		Seen:     p.flight.Seen(),
	}
	ext.SortRows()
	return ext
}

// minTail is how many retained observations must lie above a quantile
// before the snapshot reports it: a p99 from fewer samples is just the
// maximum under another name.
const minTail = 10

// supportedQuantile returns h's perMille/1000 quantile in nanoseconds, or 0
// when the sample count cannot support it (n·(1−q) < minTail). Integer
// arithmetic keeps the 1,000-sample p99 and 10,000-sample p999 edges exact.
func supportedQuantile(h *metrics.Histogram, perMille uint64) int64 {
	if h.Count()*(1000-perMille) < minTail*1000 {
		return 0
	}
	return int64(h.Percentile(float64(perMille) / 10))
}
