//! Stage names for pooled-ingest ledger rows.
//!
//! The ingest pool (`borges-parallel`'s `stream_indexed`) reports
//! its observability — per-worker completion counts, the in-flight
//! high-water mark, and the reassembly-buffer high-water mark — as
//! [`crate::WorkerTiming`] ledger rows rather than metrics.
//! Ledger rows are the one schedule-variant surface the determinism
//! contract already carves out (DESIGN.md §8); metrics snapshots must
//! stay byte-identical at every in-flight budget, so pool concurrency
//! data may never touch the metrics registry.
//!
//! These constants are the `stage` values those rows carry. They live in
//! borges-telemetry so the pipeline (writer) and the CLI / run-report
//! renderers (readers) agree on the vocabulary without string literals
//! drifting apart.

/// One row per pool worker: `chunk` is the worker index, `items` the
/// number of remote calls (fetches and NER completions) that worker
/// completed.
pub const WORKER_STAGE: &str = "ingest_worker";

/// Single row: `items` is the high-water mark of concurrently in-flight
/// calls (bounded by `--max-in-flight`).
pub const IN_FLIGHT_STAGE: &str = "ingest_in_flight";

/// Single row: `items` is the reassembly buffer's high-water mark — the
/// most out-of-order completions ever parked awaiting canonical release.
pub const REASSEMBLY_STAGE: &str = "ingest_reassembly";

/// All pooled-ingest stage names, in the order the pipeline emits them.
pub const ALL_STAGES: [&str; 3] = [WORKER_STAGE, IN_FLIGHT_STAGE, REASSEMBLY_STAGE];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_distinct_and_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for stage in ALL_STAGES {
            assert!(stage.starts_with("ingest_"), "{stage} lacks prefix");
            assert!(seen.insert(stage), "{stage} duplicated");
        }
        assert_eq!(seen.len(), 3);
    }
}
