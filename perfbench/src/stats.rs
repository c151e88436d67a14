//! Summary statistics the benchmark reports: tail-safe percentiles,
//! geometric means over mapped jobs, and a 2-D hypervolume against a
//! fixed reference point.

/// A percentile needs at least this many samples strictly beyond it:
/// fewer, and one outlier decides the reported value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — so the median needs
/// 20 samples and p90 needs 100.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside 0..1");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Geometric mean over the jobs that produced a value; `None` entries
/// (jobs that did not map) are skipped, not counted as zero. Returns
/// `None` when no job mapped.
pub fn geomean(values: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values.into_iter().flatten() {
        assert!(v > 0.0, "geomean of non-positive value {v}");
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Normalized 2-D hypervolume (both objectives minimized) of `points`
/// against the fixed `reference` point: the share of the box
/// `[0, ref_energy] × [0, ref_cycles]` that some point dominates. Points
/// outside the box contribute nothing. Because the reference is an input
/// rather than a function of the points, adding an evaluated point that
/// the frontier already dominates never moves the result.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let (ref_e, ref_c) = reference;
    assert!(
        ref_e > 0.0 && ref_c > 0.0,
        "reference point must be positive"
    );
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .map(|&(e, c)| (e / ref_e, c / ref_c))
        .filter(|&(e, c)| e < 1.0 && c < 1.0)
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    // Staircase of non-dominated points: ascending energy, strictly
    // descending cycles. Each covers its strip up to the next step.
    let mut stairs: Vec<(f64, f64)> = Vec::new();
    for (e, c) in pts {
        if stairs.last().is_none_or(|&(_, best)| c < best) {
            stairs.push((e, c));
        }
    }
    stairs
        .iter()
        .enumerate()
        .map(|(i, &(e, c))| {
            let next_e = stairs.get(i + 1).map_or(1.0, |p| p.0);
            (next_e - e) * (1.0 - c)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), None, "19 samples leave 9 beyond p50");
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(10.0));
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), None, "99 samples leave 9 beyond p90");
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_skips_unmapped_jobs() {
        let g = geomean([Some(2.0), None, Some(8.0), None]).expect("two mapped");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean([None, None]), None);
    }

    #[test]
    fn hypervolume_matches_hand_computed_rectangles() {
        // Two steps in a 10 x 100 box: (2, 50) covers 0.2..0.5 x 0.5 and
        // (5, 20) covers 0.5..1.0 x 0.8.
        let hv = hypervolume(&[(2.0, 50.0), (5.0, 20.0)], (10.0, 100.0));
        assert!((hv - (0.3 * 0.5 + 0.5 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_uses_the_fixed_reference_not_the_points() {
        let reference = (10.0, 100.0);
        let frontier = [(2.0, 50.0), (5.0, 20.0)];
        let base = hypervolume(&frontier, reference);
        // A dominated point and a point outside the box both change the
        // evaluated set (and so would move a reference derived from it)
        // but leave the fixed-reference hypervolume alone.
        let mut more = frontier.to_vec();
        more.push((6.0, 60.0));
        more.push((40.0, 400.0));
        assert_eq!(hypervolume(&more, reference), base);
        // Another reference changes the measure.
        assert_ne!(hypervolume(&frontier, (20.0, 100.0)), base);
        assert_eq!(hypervolume(&[], reference), 0.0);
    }
}
