// The /metrics families the benchmark reads from sfcpd. internal/server
// declares them as unexported constants, which this module cannot import,
// so the scraper spells them once here.
//
//sfcpvet:ignore-file metricname -- a scraper reading sfcpd's families, not an exposition site: the one-# TYPE-line and sample-site rules belong to internal/server
package main

const (
	famCacheHits         = "sfcpd_cache_hits_total"
	famCacheMisses       = "sfcpd_cache_misses_total"
	famCacheBytes        = "sfcpd_cache_bytes"
	famIngestBytes       = "sfcpd_ingest_bytes_total"
	famBatcherCoalesced  = "sfcpd_batcher_coalesced_total"
	famBatcherFlushes    = "sfcpd_batcher_flushes_total"
	famBatcherQueueSum   = "sfcpd_batcher_queue_seconds_sum"
	famBatcherQueueCount = "sfcpd_batcher_queue_seconds_count"
	famPlanAlgorithm     = "sfcpd_plan_algorithm_total"
	famResolve           = "sfcpd_resolve_total"
	famBlobWriteBytes    = "sfcpd_store_blob_write_bytes_total"
	famBlobWrites        = "sfcpd_store_blob_writes_total"
	famBlobReadBytes     = "sfcpd_store_blob_read_bytes_total"
)
