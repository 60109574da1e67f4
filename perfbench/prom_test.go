package main

import "testing"

const scrapeBefore = `# TYPE sfcpd_cache_hits_total counter
sfcpd_cache_hits_total 10
# TYPE sfcpd_cache_misses_total counter
sfcpd_cache_misses_total 5
# TYPE sfcpd_ingest_bytes_total counter
sfcpd_ingest_bytes_total{format="binary"} 100
sfcpd_ingest_bytes_total{format="json"} 2e+06
# TYPE sfcpd_batcher_queue_seconds_sum counter
sfcpd_batcher_queue_seconds_sum 0.0005
# TYPE sfcpd_resolve_total counter
sfcpd_resolve_total{mode="incremental"} 3
sfcpd_resolve_total{mode="full_fallback"} 1
# TYPE sfcpd_resolve_dirty_frac histogram
sfcpd_resolve_dirty_frac_bucket{le="0.01"} 4
sfcpd_resolve_dirty_frac_bucket{le="+Inf"} 4
sfcpd_resolve_dirty_frac_sum 0.004
`

const scrapeAfter = `sfcpd_cache_hits_total 40
sfcpd_cache_misses_total 15
sfcpd_ingest_bytes_total{format="binary"} 100
sfcpd_ingest_bytes_total{format="json"} 3.5e+06
sfcpd_batcher_queue_seconds_sum 0.0025
sfcpd_resolve_total{mode="incremental"} 13
sfcpd_resolve_total{mode="full_fallback"} 1
`

func TestParsePromReadsSeriesAndFamilies(t *testing.T) {
	s, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.family("sfcpd_ingest_bytes_total"); got != 2e6+100 {
		t.Errorf("family sum = %g", got)
	}
	if got := s.series("sfcpd_resolve_total", `mode="incremental"`); got != 3 {
		t.Errorf("labelled series = %g", got)
	}
	if got := s.family("sfcpd_resolve_dirty_frac"); got != 0 {
		t.Errorf("a family name must not match longer names sharing its prefix, got %g", got)
	}
	if got := s.series("sfcpd_resolve_dirty_frac_bucket", `le="+Inf"`); got != 4 {
		t.Errorf("+Inf bucket = %g", got)
	}
	if got := s.family("sfcpd_batcher_queue_seconds_sum"); got != 0.0005 {
		t.Errorf("float sample = %g", got)
	}
}

func TestCounterDeltasAcrossScrapes(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "sfcpd_cache_hits_total"); got != 30 {
		t.Errorf("hits delta = %g", got)
	}
	if got := delta(before, after, "sfcpd_ingest_bytes_total"); got != 1.5e6 {
		t.Errorf("ingest delta = %g", got)
	}
	if got := seriesDelta(before, after, "sfcpd_resolve_total", `mode="incremental"`); got != 10 {
		t.Errorf("series delta = %g", got)
	}

	m := map[string]float64{}
	promMetrics(m, before, after, 10)
	if got := m["cache.hit_ratio"]; got != 0.75 {
		t.Errorf("cache.hit_ratio = %g, want 30/(30+10)", got)
	}
	if got := m["incr.incremental_frac"]; got != 1 {
		t.Errorf("incr.incremental_frac = %g, want 10/10", got)
	}
	if got := m["server.req_bytes_per_req"]; got != 1.5e5 {
		t.Errorf("server.req_bytes_per_req = %g", got)
	}
	if got := m["batcher.members_per_flush"]; got != 0 {
		t.Errorf("no flushes must give 0, got %g", got)
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"sfcpd_cache_hits_total\n", "sfcpd_cache_hits_total ten\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}
