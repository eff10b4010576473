package snacc

import "snacc/internal/bench"

// Scale sizes an experiment run: the transfer volume per bandwidth
// measurement, the case-study stream length, the latency sample count and
// the shapes of the extension sweeps. Start from DefaultScale.
type Scale = bench.Scale

// Table is one experiment's results: a number per labelled row and
// column, read back with Value and rendered with String, CSV or JSON.
type Table = bench.Table

// DefaultScale is the scale `snaccbench` runs at by default (256 MiB per
// bandwidth measurement, 192 case-study images; the paper uses 1 GB and
// 16384 images).
func DefaultScale() Scale { return bench.DefaultScale() }

// Run regenerates the named experiments of the paper's evaluation, or
// "all" of them, at scale s and returns their tables in the order
// `snaccbench -run` prints them. The names are the ones `snaccbench -h`
// lists ("fig4a", "fig6", "qd", …); an entry whose whole output is a
// detail block, such as "timeline", adds no table. An unknown name, no name, or a scale
// no experiment can run at is an error, reported before anything runs.
func Run(s Scale, names ...string) ([]Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	selected, err := bench.Select(names...)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, e := range selected {
		if e.Run != nil {
			tables = append(tables, e.Run(s)...)
		}
	}
	return tables, nil
}
