//! Pure reductions the benchmark reports: medians, the tail-percentile
//! rule, and span self time. Kept free of I/O so the rules are unit-tested.

use snb_obs::trace::SpanData;
use std::collections::HashMap;
use std::ops::Range;

/// Fewest samples that must lie beyond a reported percentile. A p99 over
/// 300 samples rests on 3 values; the benchmark reports the highest
/// percentile this rule allows instead and says which one it was.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile as reported: the value, the percentile it was actually
/// taken at (≤ the one asked for), and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: u64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile ≤ `want` that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median
/// would not.
pub fn tail_percentile(samples: usize, want: f64) -> Option<f64> {
    if samples < 2 * TAIL_SAMPLES {
        return None;
    }
    let limit = 100.0 * (1.0 - TAIL_SAMPLES as f64 / samples as f64);
    Some(want.min(limit))
}

/// Nearest-rank percentile of an ascending slice under the
/// [`tail_percentile`] rule.
pub fn quantile(sorted: &[u64], want: f64) -> Option<Quantile> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let percentile = tail_percentile(sorted.len(), want)?;
    // Rounded before the ceiling so that 100·(1 − 10/n) lands exactly on
    // rank n − 10 instead of drifting one rank up on float error.
    let exact = percentile / 100.0 * sorted.len() as f64;
    let rank = ((exact * 1e9).round() / 1e9).ceil() as usize;
    let value = sorted[rank.clamp(1, sorted.len()) - 1];
    Some(Quantile { value, percentile, samples: sorted.len() })
}

/// Which of `n` stretches of a run to measure, given the share of CPU time
/// the hypervisor stole during each (`steal[i]`): every stretch at or under
/// `limit`, or, when those are fewer than half, the least-stolen half.
/// A host that steals throughout still leaves the quietest half measured.
pub fn least_disturbed(steal: &[f64], limit: f64) -> Vec<bool> {
    let mut keep: Vec<bool> = steal.iter().map(|&s| s <= limit).collect();
    let half = steal.len().div_ceil(2);
    if keep.iter().filter(|&&k| k).count() < half {
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
        keep = vec![false; steal.len()];
        for &i in &order[..half] {
            keep[i] = true;
        }
    }
    keep
}

/// A percentile that interference cannot move: `samples`, in the order
/// the calls completed, is cut into runs of `chunk` consecutive calls (a
/// short remainder joins the last run); each run's percentile is taken
/// under the [`tail_percentile`] rule; runs are chosen by
/// [`least_disturbed`] from `steal(range)`, the steal share while that run
/// of calls executed; and the median over the chosen runs is reported. With
/// fewer than `2 * chunk` samples this is the plain percentile of all of
/// them. The reported percentile is the lowest any run allowed; the sample
/// count is the total.
pub fn chunked_quantile(
    samples: &[u64],
    chunk: usize,
    want: f64,
    limit: f64,
    steal: impl Fn(Range<usize>) -> f64,
) -> Option<Chunked> {
    let runs = (samples.len() / chunk.max(1)).max(1);
    let mut values = Vec::with_capacity(runs);
    let mut shares = Vec::with_capacity(runs);
    let mut percentile = want;
    for i in 0..runs {
        let end = if i + 1 == runs { samples.len() } else { (i + 1) * chunk };
        let mut run = samples[i * chunk..end].to_vec();
        run.sort_unstable();
        let q = quantile(&run, want)?;
        values.push(q.value as f64);
        shares.push(steal(i * chunk..end));
        percentile = percentile.min(q.percentile);
    }
    let keep = least_disturbed(&shares, limit);
    let kept: Vec<f64> = values.iter().zip(&keep).filter(|(_, &k)| k).map(|(&v, _)| v).collect();
    let value = median(&kept)?.round() as u64;
    Some(Chunked {
        quantile: Quantile { value, percentile, samples: samples.len() },
        runs,
        kept: kept.len(),
    })
}

/// A [`chunked_quantile`] and how many of its runs were measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunked {
    pub quantile: Quantile,
    pub runs: usize,
    pub kept: usize,
}

/// Median of the values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Self time per span name in microseconds: each span's duration minus the
/// part of its interval that its children cover. Children may overlap one
/// another (a scatter's per-shard server spans run concurrently) or spill
/// past the parent (re-anchored remote clocks), so the covered part is the
/// union of the children's intervals clipped to the parent's.
pub fn self_times(spans: &[SpanData]) -> HashMap<String, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children.entry(s.parent_id).or_default().push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut out: HashMap<String, u64> = HashMap::new();
    for s in spans {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let covered = children.get_mut(&s.span_id).map_or(0, |kids| covered_within(kids, lo, hi));
        *out.entry(s.name.clone()).or_default() += s.dur_us - covered.min(s.dur_us);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_reported_percentile() {
        // Enough samples: the asked-for percentile stands.
        assert_eq!(tail_percentile(1_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        // Too few for p99: fall back to the highest percentile with ten
        // samples beyond it.
        assert_eq!(tail_percentile(500, 99.0), Some(98.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(20, 50.0), Some(50.0));
        assert_eq!(tail_percentile(19, 50.0), None);

        let sorted: Vec<u64> = (1..=500).collect();
        let q = quantile(&sorted, 99.0).unwrap();
        assert_eq!(q.percentile, 98.0);
        assert_eq!(q.samples, 500);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(sorted.iter().filter(|&&v| v > q.value).count(), TAIL_SAMPLES);
        for n in [20, 21, 99, 333, 1_000, 1_001, 4_321] {
            let sorted: Vec<u64> = (1..=n).collect();
            let q = quantile(&sorted, 99.0).unwrap();
            let beyond = sorted.iter().filter(|&&v| v > q.value).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: only {beyond} beyond p{}", q.percentile);
        }
        let q50 = quantile(&sorted, 50.0).unwrap();
        assert_eq!((q50.value, q50.percentile), (250, 50.0));
        assert!(quantile(&sorted[..10], 50.0).is_none());
    }

    #[test]
    fn chunked_quantile_ignores_a_burst_confined_to_one_run() {
        // Five runs of 100 calls at 10 ns, one run hit by a stall that made
        // a fifth of its calls take 1000 ns.
        let mut samples = vec![10u64; 500];
        for s in &mut samples[200..220] {
            *s = 1_000;
        }
        let c = chunked_quantile(&samples, 100, 99.0, 0.0, |_| 0.0).unwrap();
        assert_eq!((c.runs, c.kept), (5, 5));
        let q = c.quantile;
        assert_eq!((q.value, q.samples), (10, 500));
        assert_eq!(q.percentile, 90.0, "100-call runs allow p90 under the ten-sample rule");
        // Pooled, the same burst owns the tail.
        let mut pooled = samples.clone();
        pooled.sort_unstable();
        assert_eq!(quantile(&pooled, 98.0).unwrap().value, 1_000);
        // A remainder joins the last run; fewer than two runs' worth is
        // the plain percentile.
        let short: Vec<u64> = (1..=150).collect();
        let c = chunked_quantile(&short, 100, 50.0, 0.0, |_| 0.0).unwrap();
        assert_eq!(Some(c.quantile), quantile(&short, 50.0));
        assert!(chunked_quantile(&short[..15], 100, 50.0, 0.0, |_| 0.0).is_none());
    }

    #[test]
    fn chunked_quantile_leaves_out_runs_the_hypervisor_stole_from() {
        // Four runs of 100 calls; while runs 1 and 2 executed, the host
        // stole CPU time and every call there took 1000 ns instead of 10.
        let mut samples = vec![10u64; 400];
        for s in &mut samples[100..300] {
            *s = 1_000;
        }
        let steal = |r: Range<usize>| if (100..300).contains(&r.start) { 0.2 } else { 0.0 };
        let c = chunked_quantile(&samples, 100, 50.0, 0.02, steal).unwrap();
        assert_eq!((c.quantile.value, c.runs, c.kept), (10, 4, 2));
        // Counting every run, the median falls between the two kinds.
        let all = chunked_quantile(&samples, 100, 50.0, 1.0, steal).unwrap();
        assert_eq!((all.quantile.value, all.kept), (505, 4));
    }

    #[test]
    fn least_disturbed_keeps_at_least_the_quieter_half() {
        assert_eq!(least_disturbed(&[0.0, 0.3, 0.01, 0.0], 0.02), [true, false, true, true]);
        // Three of four stretches stolen from: the two least stolen stay.
        assert_eq!(least_disturbed(&[0.1, 0.3, 0.05, 0.0], 0.02), [false, false, true, true]);
        // Ties go to the earlier stretch; odd counts round the half up.
        assert_eq!(least_disturbed(&[0.1, 0.1, 0.1], 0.02), [true, true, false]);
        assert!(least_disturbed(&[], 0.02).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> SpanData {
        SpanData {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name: name.to_string(),
            start_us,
            dur_us,
            tid: 0,
            process: "driver",
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            // Two overlapping children cover [10, 60): 50 us, not 70.
            span(2, 1, "child", 10, 40),
            span(3, 1, "child", 30, 30),
            // A grandchild is subtracted from its own parent only.
            span(4, 2, "leaf", 15, 5),
            // A child spilling past the parent end is clipped at 100.
            span(5, 1, "late", 90, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 100 - 50 - 10);
        // Span 2 loses its grandchild's 5 us; span 3 keeps all 30.
        assert_eq!(t["child"], (40 - 5) + 30);
        assert_eq!(t["leaf"], 5);
        assert_eq!(t["late"], 50);
        // Self times never exceed the root's wall time in total.
        assert_eq!(t.values().sum::<u64>(), 40 + 65 + 5 + 50);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![span(1, 0, "outer", 10, 20), span(2, 1, "inner", 5, 40)];
        let t = self_times(&spans);
        assert_eq!(t["outer"], 0);
        assert_eq!(t["inner"], 40);
    }
}
