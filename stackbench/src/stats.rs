//! Order statistics for latency samples.

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The nearest-rank percentile of ascending `sorted` samples: the
/// smallest sample with at least `pct`% of all samples at or below it.
/// `f64::INFINITY` samples (failed requests) sort last.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts samples ascending (infinities last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Each sample replaced by the fastest sample of its input;
/// `inputs[i]` names the input `samples[i]` was taken on.
pub fn fastest_of_input(samples: &[f64], inputs: &[usize]) -> Vec<f64> {
    let mut fastest: std::collections::BTreeMap<usize, f64> = Default::default();
    for (&x, &i) in samples.iter().zip(inputs) {
        let f = fastest.entry(i).or_insert(x);
        *f = f.min(x);
    }
    inputs.iter().map(|i| fastest[i]).collect()
}

/// The median over the distinct inputs of each input's fastest sample.
pub fn median_of_fastest(samples: &[f64], inputs: &[usize]) -> f64 {
    let mut per_input: std::collections::BTreeMap<usize, f64> = Default::default();
    for (x, &i) in fastest_of_input(samples, inputs).into_iter().zip(inputs) {
        per_input.insert(i, x);
    }
    median(&per_input.into_values().collect::<Vec<_>>())
}

/// A tail latency: the percentile it was taken at, its value, and the
/// number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples strictly above the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The tail of samples in arrival order, taken over consecutive windows
/// of `window` samples: the highest percentile of [`TAIL_LADDER`] that
/// leaves at least ten samples beyond it in one window, as the
/// [`windowed_percentile`] of the samples. Because the percentile depends
/// on the window and not on the sample count, a run that fits more
/// samples gets a steadier figure of the same percentile, instead of a
/// higher percentile pushed into the machine's rarest stalls.
pub fn tail(samples: &[f64], window: usize) -> Tail {
    let pct = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(window, p) >= 10)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: windowed_percentile(samples, pct, window),
        samples: samples.len(),
    }
}

/// Samples per window for latencies: a p99 over 1000 samples still has
/// ten samples beyond it.
pub const WINDOW: usize = 1000;

/// The median over consecutive windows of `window` samples (the last
/// window takes the remainder; fewer samples than one window make one
/// window) of each window's `pct` percentile, for samples in arrival
/// order. One stall of a shared machine then inflates the window it
/// falls in without deciding the result.
pub fn windowed_percentile(samples: &[f64], pct: f64, window: usize) -> f64 {
    let windows = (samples.len() / window.max(1)).max(1);
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            percentile(&sorted(samples[w * window..end].to_vec()), pct)
        })
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_shrugs_off_one_stalled_window() {
        let calm: Vec<f64> = (0..5000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_percentile(&calm, 99.0, WINDOW), 98.0);
        let mut stalled = calm.clone();
        for x in &mut stalled[1000..1100] {
            *x = 500.0;
        }
        assert_eq!(percentile(&sorted(stalled.clone()), 99.0), 500.0);
        assert_eq!(windowed_percentile(&stalled, 99.0, WINDOW), 98.0);
        // Fewer samples than two windows: one window, the plain percentile.
        assert_eq!(windowed_percentile(&calm[..1500], 99.0, WINDOW), 98.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ms, 50.0), 50.0);
        assert_eq!(percentile(&ms, 99.0), 99.0);
        assert_eq!(percentile(&ms, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond_it_per_window() {
        for window in [20usize, 21, 48, 80, 99, 100, 101, 199, 200, 999, 1000, 4812] {
            let s: Vec<f64> = (0..3 * window).map(|i| (i % window) as f64).collect();
            let t = tail(&s, window);
            assert_eq!(t.samples, 3 * window);
            assert!(
                beyond(window, t.pct) >= 10,
                "window {window}: p{} leaves {}",
                t.pct,
                beyond(window, t.pct)
            );
            // It is the highest such ladder step.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&p| p > t.pct) {
                assert!(
                    beyond(window, next) < 10,
                    "window {window}: p{next} would also do"
                );
            }
            // Every window has at least ten samples beyond the value.
            for w in s.chunks(window) {
                assert!(
                    w.iter().filter(|&&x| x > t.value).count() >= 10,
                    "window {window}"
                );
            }
        }
        assert_eq!(
            tail(&(0..30_000).map(f64::from).collect::<Vec<_>>(), WINDOW).pct,
            99.0
        );
        assert_eq!(
            tail(&(0..48).map(f64::from).collect::<Vec<_>>(), 48).pct,
            75.0
        );
    }

    #[test]
    fn the_tail_percentile_does_not_move_with_the_number_of_passes() {
        // Sixteen items of very different cost per pass, as in a closed
        // loop over a fixed corpus: whatever the pass count, the tail over
        // five-pass windows lands on the same item.
        let pass: Vec<f64> = (0..16).map(|i| f64::from(1u32 << (i / 2))).collect();
        let values: Vec<f64> = (3..=12)
            .map(|passes| tail(&pass.repeat(passes), 5 * pass.len()).value)
            .collect();
        assert!(values.iter().all(|&v| v == values[0]), "{values:?}");
    }

    #[test]
    fn median_of_fastest_ignores_slowed_samples() {
        // Two cheap and two dear inputs, every pass but one slowed by a
        // different amount: a pooled median lands on a slowed sample, the
        // median of the fastest does not.
        let mut samples = Vec::new();
        let mut inputs = Vec::new();
        for pass in 0..9 {
            let slow = if pass == 4 {
                1.0
            } else {
                1.5 + f64::from(pass) / 10.0
            };
            for (i, cost) in [1.0, 2.0, 100.0, 200.0].into_iter().enumerate() {
                samples.push(cost * slow);
                inputs.push(i);
            }
        }
        assert!(median(&samples) > 3.0);
        assert_eq!(median_of_fastest(&samples, &inputs), 2.0);
    }

    #[test]
    fn failures_sort_last_and_dominate_the_tail() {
        let mut s: Vec<f64> = (0..30).map(f64::from).collect();
        s.extend([f64::INFINITY; 15]);
        assert!(tail(&s, 40).value.is_infinite());
    }
}
