package resilience

import (
	"slices"
	"testing"

	"twodcache/internal/obs"
	"twodcache/internal/pcache"
)

// TestRegistrationOrder pins what New puts into the registry its caller
// passes, built the way store.New builds a shard: the engine's, the
// scrubber's and the cache's names, each once, in this order. Snapshots
// read counters in registration order and the replay state hash digests
// the names in it, so moving one changes what every consumer sees.
func TestRegistrationOrder(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := pcache.New(pcache.Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 2}, pcache.NewMapBacking(64))
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, Config{Metrics: reg.WithPrefix("shard0_")})

	want := []string{
		"resilience_dues_total",
		"resilience_retries_total",
		"resilience_retry_hits_total",
		"resilience_word_attempts_total",
		"resilience_word_hits_total",
		"resilience_full_attempts_total",
		"resilience_full_hits_total",
		"resilience_decommissions_total",
		"resilience_remaps_total",
		"resilience_exhausted_total",
		"resilience_ladder_seconds",
		"resilience_coalesced_waits_total",
		"resilience_sheds_total",
		"resilience_breaker_trips_total",
		"resilience_breaker_transitions_total",
		"resilience_watchdog_fires_total",
		"resilience_deadline_aborts_total",
		"resilience_breakers_open",
		"scrub_passes_total",
		"scrub_backoffs_total",
		"scrub_victims_total",
		"scrub_pass_seconds",
		"pcache_hits_total",
		"pcache_misses_total",
		"pcache_accesses_total",
		"pcache_writebacks_total",
		"pcache_errors_recovered_total",
		"pcache_uncorrectable_total",
		"pcache_bypassed_total",
		"pcache_dirty_lines_lost_total",
		"pcache_disabled_ways",
		"pcache_bank0_hits_total",
		"pcache_bank0_accesses_total",
		"pcache_bank1_hits_total",
		"pcache_bank1_accesses_total",
		"pcache_array_reads_total",
		"pcache_array_writes_total",
		"pcache_array_inline_corrections_total",
		"pcache_array_recoveries_total",
		"pcache_array_recovered_words_total",
		"pcache_array_uncorrectable_total",
	}
	for i := range want {
		want[i] = "shard0_" + want[i]
	}
	got := reg.Snapshot().Names()
	if !slices.Equal(got, want) {
		t.Fatalf("registered names:\n got %q\nwant %q", got, want)
	}

	// DESIGN §8 rule 2: a dependent registers, and so is read, before
	// its bound. The cache's pairs and the breaker pair follow it.
	at := func(name string) int { return slices.Index(got, "shard0_"+name) }
	for _, p := range [][2]string{
		{pcache.MetricHits, pcache.MetricAccesses},
		{pcache.MetricMisses, pcache.MetricAccesses},
		{"pcache_bank0_hits_total", "pcache_bank0_accesses_total"},
		{"pcache_bank1_hits_total", "pcache_bank1_accesses_total"},
		{metricBreakerTrips, metricBreakerTransitions},
	} {
		if at(p[0]) >= at(p[1]) {
			t.Errorf("%s registered after its bound %s", p[0], p[1])
		}
	}
	// The engine's other pairs register the bound first, so only their
	// ClampLE keeps a snapshot coherent: a dependent counted ahead of
	// its bound must read as the bound.
	for _, d := range []struct {
		c    *obs.Counter
		name string
	}{
		{e.retryHits, metricRetryHits},
		{e.wordHits, metricWordHits},
		{e.fullHits, metricFullHits},
		{e.remaps, metricRemaps},
		{e.exhausted, metricExhausted},
		{e.sheds, metricSheds},
		{e.deadlineAborts, metricDeadlineAborts},
	} {
		d.c.Inc()
		if v := e.metrics.Snapshot().Counter(d.name); v != 0 {
			t.Errorf("%s = %d over a zero bound: no ClampLE", d.name, v)
		}
	}
}
