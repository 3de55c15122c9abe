//! What a run reports: the metric catalogue (names and units, matching
//! `BENCHMARK.json`), the correctness ledger, the human-readable lines,
//! and the final JSON line.

use std::collections::BTreeMap;

/// Gated end-to-end metrics, printed on every workload by the untraced
/// run. Names and units must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("op_io_mib", "MiB"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p90_ms", "ms"),
    ("lookup_rps", "req/s"),
    ("evidence_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Printed by the untraced run but not gated: workload-specific names
/// for gated measurements, counts that are zero on some workload, and
/// open-loop latency, which on a shared VM host measures how fast an
/// idle vCPU wakes more than the program (see `serving::Traffic`).
pub const REPORTED: [(&str, &str); 8] = [
    ("open_lookup_p50_ms", "ms"),
    ("open_lookup_p90_ms", "ms"),
    ("build_s", "s"),
    ("remap_s", "s"),
    ("cold_start_s", "s"),
    ("written_mib", "MiB"),
    ("llm_calls", "count"),
    ("fetches", "count"),
];

/// Per-layer metrics, printed on every workload by the traced run (0
/// where the workload does not exercise the layer). Names and units
/// must match `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("synthnet.load_ms", "ms"),
    ("whois.parse_ms", "ms"),
    ("peeringdb.parse_ms", "ms"),
    ("websim.snapshot_parse_ms", "ms"),
    ("topology.parse_ms", "ms"),
    ("websim.fetches", "count"),
    ("websim.duplicate_fetches", "count"),
    ("websim.fetch_busy_ms", "ms"),
    ("websim.fetch_wait_ms", "ms"),
    ("websim.crawl_ms", "ms"),
    ("websim.url_cache_hit_ratio", "ratio"),
    ("websim.entries_abandoned", "count"),
    ("llmsim.calls", "count"),
    ("llmsim.busy_ms", "ms"),
    ("llmsim.wait_ms", "ms"),
    ("llmsim.cache_hit_ratio", "ratio"),
    ("core.ingest_ms", "ms"),
    ("core.ingest_self_ms", "ms"),
    ("core.remap_ms", "ms"),
    ("core.remap_self_ms", "ms"),
    ("core.delta.dirty_records", "count"),
    ("core.delta.memo_reuse_ratio", "ratio"),
    ("core.delta.edges_retained_ratio", "ratio"),
    ("core.state_load_ms", "ms"),
    ("core.state_save_ms", "ms"),
    ("core.state_mib", "MiB"),
    ("core.materialize_ms", "ms"),
    ("core.mapfile_ms", "ms"),
    ("core.to_world_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.artifact_mib", "MiB"),
    ("store.load_ms", "ms"),
    ("store.replay_ms", "ms"),
    ("store.digest_ms", "ms"),
    ("timeline.append_ms", "ms"),
    ("timeline.delta_kib", "KiB"),
    ("serve.start_ms", "ms"),
    ("serve.healthz_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.write_us", "us"),
    ("serve.socket_us", "us"),
    ("serve.evidence_respond_ms", "ms"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("loadgen.late_p90_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.publish_coverage_pct", "pct"),
    ("trace.cold_start_coverage_pct", "pct"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "pct"),
    ("trace.traced_ops", "count"),
    ("trace.spans", "count"),
];

/// Failure messages kept for the loud report; the count is exact.
const KEPT_FAILURES: usize = 20;

/// Everything one run measured and checked.
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            values: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Sets metric `name` (any catalogue name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Books `attempted` checked operations, of which `failures` failed.
    pub fn check(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }

    /// Books one operation that failed outright.
    pub fn fail(&mut self, failure: String) {
        self.check(1, vec![failure]);
    }

    /// Whether every checked operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of checked operations that passed.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Prints the readable report and, last, the JSON result line with
    /// the end-to-end (untraced) or per-layer (traced) metrics. Returns
    /// whether the run was correct and complete.
    pub fn print(&mut self, traced: bool) -> bool {
        self.set("ok_ratio", self.ok_ratio());
        for line in &self.notes {
            println!("# {line}");
        }
        let catalogue: Vec<(&str, &str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().chain(REPORTED.iter()).copied().collect()
        };
        for (name, unit) in &catalogue {
            if let Some(v) = self.values.get(name) {
                println!("{name:<32} {v:>14.4} {unit}");
            }
        }
        for failure in &self.failures {
            eprintln!("perfbench: CHECK FAILED: {failure}");
        }
        let gated: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut complete = true;
        let mut items = Vec::new();
        for (name, unit) in gated {
            match self.values.get(name) {
                Some(v) if v.is_finite() => items.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )),
                _ => {
                    eprintln!("perfbench: metric {name} was not measured");
                    complete = false;
                }
            }
        }
        let correct = self.correct() && complete;
        if self.failed > 0 {
            eprintln!(
                "perfbench: {} of {} checked operations FAILED",
                self.failed, self.attempted
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            items.join(", ")
        );
        correct
    }
}

/// A finite float as JSON, with every digit it has.
fn json_number(v: f64) -> String {
    let text = format!("{v:?}");
    if text.contains('e') || text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

/// Milliseconds a fixed CPU-and-memory loop takes right now: a record of
/// how fast the host was during the run, for reading the numbers of a
/// shared, noisy machine. Not a metric.
pub fn host_probe_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut buffer = vec![0u64; 2 << 20];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..4 {
        for slot in buffer.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = slot.wrapping_add(x);
        }
    }
    std::hint::black_box(&buffer);
    started.elapsed().as_secs_f64() * 1e3
}

/// Current peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hands memory the allocator holds free back to the kernel, so every
/// operation starts from the resident set a fresh process would have
/// rather than from whatever the previous operation left cached.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers, only walks the
        // allocator's own free lists under its locks, and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A CPU affinity mask: 1024 bits, as glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Gives every thread of this process the affinity `mask`.
fn set_process_affinity(mask: &CpuMask) {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
    {
        // SAFETY: `mask` is a live buffer of the size passed; a thread
        // that exited meanwhile makes the call fail, harmlessly.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    }
}

/// Runs `f` with every thread of this process (threads it starts
/// inherit the mask) confined to the first CPU it may use, then gives
/// every thread back the calling thread's original mask. Runs `f`
/// unconfined when the mask cannot be read.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let mut all: CpuMask = [0; 16];
    // SAFETY: `all` is a live buffer of the size passed.
    let read = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), all.as_mut_ptr()) };
    let Some(word) = all.iter().position(|&w| w != 0).filter(|_| read == 0) else {
        return f();
    };
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << all[word].trailing_zeros();
    set_process_affinity(&one);
    let out = f();
    set_process_affinity(&all);
    out
}

/// Resets the peak-RSS high-water mark to the current RSS, so the next
/// reading covers only what runs after it. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&REPORTED).chain(&PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_manifest_lists_exactly_the_catalogue() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn one_cpu_confines_every_thread_and_restores_the_mask() {
        let mask = || {
            let mut m: CpuMask = [0; 16];
            // SAFETY: `m` is a live buffer of the size passed.
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), m.as_mut_ptr()) };
            m
        };
        let cpus = |m: CpuMask| m.iter().map(|w| w.count_ones()).sum::<u32>();
        let before = mask();
        let (inside, spawned) = on_one_cpu(|| (mask(), std::thread::spawn(mask).join().unwrap()));
        assert_eq!(cpus(inside), 1);
        assert_eq!(spawned, inside, "a thread started inside inherits the mask");
        assert_eq!(mask(), before);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_number(1e-9), "1e-9");
    }

    #[test]
    fn ledger_counts_every_failure_but_keeps_a_few() {
        let mut report = Report::new();
        report.check(100, (0..30).map(|i| format!("f{i}")).collect());
        report.check(10, Vec::new());
        assert_eq!(report.attempted, 110);
        assert_eq!(report.failed, 30);
        assert_eq!(report.failures.len(), KEPT_FAILURES);
        assert!(!report.correct());
        assert!((report.ok_ratio() - 80.0 / 110.0).abs() < 1e-12);
    }
}
