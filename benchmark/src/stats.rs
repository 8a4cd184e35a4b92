//! Small statistics helpers: median, MAD, and quantiles read out of a
//! [`LatencyHistogram`] from the outside.

use hamband_runtime::metrics::{LatencyHistogram, NodeMetrics};
use rdma_sim::Phase;

/// Median of `values` (mean of the two middle elements for an even
/// count; 0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and median absolute deviation of `values`.
pub fn median_mad(values: &[f64]) -> (f64, f64) {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    (m, median(&dev))
}

/// The `p`-th percentile (`0.0 ..= 1.0`) of exact samples, nearest
/// rank (0 for an empty slice). Sorts `values` in place.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Width in nanoseconds of the histogram bucket whose floor is `floor`
/// (exact below 16 ns, then 8 sub-buckets per octave — 12.5 % wide).
fn bucket_width(floor: u64) -> u64 {
    if floor < 16 {
        1
    } else {
        1 << (63 - floor.leading_zeros() - 3)
    }
}

/// Bucket floor of the sample at 1-based `rank`.
fn floor_at_rank(h: &LatencyHistogram, rank: u64) -> u64 {
    h.quantile_ns((rank as f64 - 0.5) / h.count() as f64)
}

/// The `q`-quantile of `h` in nanoseconds, interpolated linearly inside
/// the bucket that holds it.
///
/// [`LatencyHistogram::quantile_ns`] returns the bucket floor, a step
/// function that reads the same for every run whose quantile stays in
/// one 12.5 %-wide bucket and jumps a whole bucket otherwise. The
/// bucket's population is recovered from the same public function (it
/// is monotone in the rank, so two binary searches find the ranks at
/// which the floor changes) and the quantile is placed inside the
/// bucket by the share of that population below it.
pub fn quantile_interp_ns(h: &LatencyHistogram, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let floor = floor_at_rank(h, rank);
    // First rank inside the bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if floor_at_rank(h, mid) >= floor {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    // Last rank inside the bucket.
    let (mut lo, mut hi) = (rank, count);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if floor_at_rank(h, mid) <= floor {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let inside = (last - first + 1) as f64;
    let below = (rank - first) as f64 + 0.5;
    // The bucket that holds the largest sample ends at that sample.
    let width = if last == count {
        (h.max_ns() - floor).min(bucket_width(floor))
    } else {
        bucket_width(floor)
    };
    floor as f64 + width as f64 * below / inside
}

/// The phases whose calls are updates.
pub const UPDATE_PHASES: [Phase; 3] = [Phase::Reduce, Phase::Free, Phase::Conf];

/// The histograms of `phases` merged over every node into one
/// distribution of response times.
pub fn merged_phases(nodes: &[NodeMetrics], phases: &[Phase]) -> LatencyHistogram {
    let mut all = LatencyHistogram::default();
    for m in nodes {
        for p in phases {
            all.merge(&m.rt_per_phase[p.index()]);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{SimDuration, SimTime};

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Deviations from the median 3: 2 1 0 1 97 -> MAD 1; the
        // outlier moves neither.
        assert_eq!(median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), (3.0, 1.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn interpolated_quantile_stays_in_its_bucket_and_moves_with_the_data() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            let floor = h.quantile_ns(q);
            let got = quantile_interp_ns(&h, q);
            assert!(got >= floor as f64, "q={q}: {got} below floor {floor}");
            assert!(
                got <= (floor + bucket_width(floor)) as f64,
                "q={q}: {got} beyond bucket"
            );
            // Uniform data: within 1 % of the exact quantile.
            let exact = q * 1_000_000.0;
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
        // Shifting part of a bucket's population moves the estimate
        // although the bucket floor stays put.
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for i in 0..100 {
            a.record(if i < 40 { 1_000 } else { 2_100 });
            b.record(if i < 45 { 1_000 } else { 2_100 });
        }
        assert_eq!(a.quantile_ns(0.5), b.quantile_ns(0.5));
        assert!(quantile_interp_ns(&a, 0.5) > quantile_interp_ns(&b, 0.5));
        assert_eq!(quantile_interp_ns(&LatencyHistogram::default(), 0.5), 0.0);
    }

    #[test]
    fn update_phases_merge_without_queries() {
        let mut n0 = NodeMetrics::default();
        let mut n1 = NodeMetrics::default();
        n0.ack_update(0, Phase::Reduce, SimTime(0), SimTime(1_000));
        n0.ack_update(1, Phase::Free, SimTime(0), SimTime(2_000));
        n1.ack_update(2, Phase::Conf, SimTime(0), SimTime(9_000));
        n1.ack_query(SimDuration::nanos(150));
        let all = merged_phases(&[n0.clone(), n1.clone()], &UPDATE_PHASES);
        assert_eq!(all.count(), 3, "queries are not update response times");
        assert_eq!(all.max_ns(), 9_000);
        assert_eq!(merged_phases(&[n0, n1], &[Phase::Conf]).count(), 1);
        // Median of {1000, 2000, 9000} lies in the 2000 bucket.
        let p50 = quantile_interp_ns(&all, 0.5);
        assert!((1_792.0..=2_304.0).contains(&p50), "p50 = {p50}");
    }
}
