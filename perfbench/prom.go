package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parse of sfcpd's /metrics page: every sample line keyed
// by its series exactly as printed, name plus label set
// (`sfcpd_resolve_total{mode="incremental"}`).
type scrape map[string]float64

// parseProm reads the Prometheus text exposition format as sfcpd writes
// it: comment lines start with '#', every other non-empty line is
// `series value`. A line that does not have that shape is an error, so a
// format change shows up as a failed run instead of as zeros.
func parseProm(text string) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values never contain spaces in sfcpd's output, so the value
		// is the last space-separated field.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric family, whatever its labels.
func (s scrape) family(name string) float64 {
	sum := 0.0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// series returns one labelled series, e.g. series("sfcpd_resolve_total",
// `mode="incremental"`), or 0 when it is absent.
func (s scrape) series(name, labels string) float64 {
	if labels == "" {
		return s[name]
	}
	return s[name+"{"+labels+"}"]
}

// delta is a counter family's growth between two scrapes.
func delta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}

// seriesDelta is one labelled counter series' growth between two scrapes.
func seriesDelta(before, after scrape, name, labels string) float64 {
	return after.series(name, labels) - before.series(name, labels)
}
