//! Order statistics, interval arithmetic and open-loop accounting: the
//! small amount of math every reported number goes through.

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The classic median: the middle sample, or the mean of the two middle
/// samples for an even count (what Python's `statistics.median` gives).
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank position (1-based) of the `p`-th percentile among `n`
/// samples: the smallest rank with at least `p`% of samples at or below.
/// Works in hundredths of a percent with integer arithmetic, so 99.9%
/// of 10 000 is exactly rank 9 990 and not one more.
fn rank(p: f64, n: usize) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` (ascending) by the
/// nearest-rank rule. `None` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The percentile ladder the tail is reported on.
const LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// The highest ladder percentile that still has at least ten samples
/// strictly beyond its rank among `n` samples — the deepest tail a
/// sample of this size supports. `None` below twenty samples, where not
/// even the median has ten beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= 1 && n - rank(p, n) >= 10)
}

/// Total length covered by a set of half-open `[start, end)` intervals,
/// counting overlaps once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the union of its children's
/// intervals (clipped to the span), so children running in parallel
/// are not subtracted twice.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0).saturating_sub(union_len(&clipped))
}

/// One open-loop request: when it was due, when the sender actually
/// sent it, and when its response completed (nanoseconds on one clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// Scheduled send time.
    pub due: u64,
    /// Actual send time (never before `due`).
    pub sent: u64,
    /// Response complete.
    pub done: u64,
}

impl Shot {
    /// Latency as a user arriving on schedule sees it: from the due
    /// time, so a stall also charges the requests queued behind it.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent this request.
    pub fn late(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }

    /// Send-to-completion time: the server plus the socket, without
    /// the generator's lateness.
    pub fn service(&self) -> u64 {
        self.done.saturating_sub(self.sent)
    }
}

/// Due time of the `i`-th request of an open loop at `rate` requests
/// per second, relative to the loop's start.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timeline one serial sender produces for requests due at `dues`
    /// that each take `service` nanoseconds: a request goes out at its due
    /// time or as soon as the previous one completes, whichever is later.
    /// The model behind the sender threads, kept pure so the accounting can
    /// be tested without a clock.
    fn serial_sender(dues: &[u64], service: &[u64]) -> Vec<Shot> {
        let mut free_at = 0;
        dues.iter()
            .zip(service)
            .map(|(&due, &took)| {
                let sent = due.max(free_at);
                let done = sent + took;
                free_at = done;
                Shot { due, sent, done }
            })
            .collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 90.0), Some(90.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(4500), Some(99.5));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // The rule itself, on every size up to a few thousand.
        for n in 20..5000 {
            let p = highest_supported_percentile(n).expect("n >= 20");
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(20, 30), (0, 10), (5, 8)]), 20);
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(5, 5), (3, 1)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two parallel children covering 2..6 and 4..8 of a 0..10 span.
        assert_eq!(self_time((0, 10), &[(2, 6), (4, 8)]), 4);
        // Children spilling outside the span are clipped to it.
        assert_eq!(self_time((10, 20), &[(5, 12), (18, 30)]), 6);
        assert_eq!(self_time((0, 10), &[]), 10);
        assert_eq!(self_time((0, 10), &[(0, 10), (0, 10)]), 0);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // Requests due every 1 ms; the second one takes 5 ms.
        let dues: Vec<u64> = (0..8).map(|i| due_ns(i, 1000.0)).collect();
        let ms = 1_000_000;
        let mut service = [ms / 10; 8];
        service[1] = 5 * ms;
        let shots = serial_sender(&dues, &service);
        assert_eq!(shots[1].latency(), 5 * ms);
        // The third request was due at 2 ms but could only go out at
        // 6 ms: its latency counts from the due time.
        assert_eq!(shots[2].sent, 6 * ms);
        assert_eq!(shots[2].late(), 4 * ms);
        assert_eq!(shots[2].latency(), 4 * ms + ms / 10);
        assert_eq!(shots[2].service(), ms / 10);
        // The backlog drains one service time per request; by the
        // eighth request the sender is on schedule again.
        assert_eq!(shots[6].late(), 4 * ms / 10);
        assert_eq!(shots[7].late(), 0);
        assert_eq!(shots[7].latency(), ms / 10);
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(2500, 1000.0), 2_500_000_000);
    }
}
