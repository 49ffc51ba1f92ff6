//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` when there are no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Rates over consecutive time windows: `events` are `(seconds, work)`
/// pairs in execution order, grouped greedily into windows of at least
/// `window_s` busy seconds; each window yields `Σwork / Σseconds`. A
/// trailing partial window shorter than half the target is folded into
/// the previous one so no window rests on a handful of events.
pub fn window_rates(events: &[(f64, f64)], window_s: f64) -> Vec<f64> {
    let mut windows: Vec<(f64, f64)> = Vec::new();
    let mut cur = (0.0, 0.0);
    for &(s, w) in events {
        cur.0 += s;
        cur.1 += w;
        if cur.0 >= window_s {
            windows.push(cur);
            cur = (0.0, 0.0);
        }
    }
    if cur.0 > 0.0 {
        match windows.last_mut() {
            Some(last) if cur.0 < window_s / 2.0 => {
                last.0 += cur.0;
                last.1 += cur.1;
            }
            _ => windows.push(cur),
        }
    }
    windows.iter().map(|&(s, w)| w / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windows_fold_a_short_tail() {
        let ev = [(0.5, 5.0), (0.5, 5.0), (1.0, 20.0), (0.1, 1.0)];
        let r = window_rates(&ev, 1.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], 10.0);
        assert!((r[1] - 21.0 / 1.1).abs() < 1e-12);
    }
}
