//! Fixed-width histograms for reporting time distributions, plus the one
//! shared flat-string codec every log₂-bucket histogram in the workspace
//! uses (`bound:count,…,inf:count`).
//!
//! Three producers share the codec: the simulation engine's batch-size
//! metrics (`population::metrics`), the service daemon's per-command
//! latency histograms (`ssle-serve`'s observability layer), and any
//! record-stream consumer that wants quantiles back out of an encoded
//! histogram. Keeping encode/decode/quantile here — the dependency-free
//! statistics crate — is what lets all of them agree on one encoding.

/// A histogram over `[min, max)` with equally wide bins (values at exactly
/// `max` are counted in the last bin).
///
/// # Examples
///
/// ```
/// use analysis::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// for v in [1.0, 1.5, 9.9, 10.0, -3.0, 42.0] {
///     h.add(v);
/// }
/// assert_eq!(h.counts(), &[2, 0, 0, 0, 2]);
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[min, max)`.
    ///
    /// Returns `None` if `bins == 0`, the bounds are not finite, or
    /// `min ≥ max`.
    pub fn new(min: f64, max: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !min.is_finite() || !max.is_finite() || min >= max {
            return None;
        }
        Some(Histogram { min, max, counts: vec![0; bins], underflow: 0, overflow: 0 })
    }

    /// Adds one observation (non-finite values count as overflow).
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() || value > self.max {
            self.overflow += 1;
            return;
        }
        if value < self.min {
            self.underflow += 1;
            return;
        }
        let bins = self.counts.len();
        let width = (self.max - self.min) / bins as f64;
        let idx = (((value - self.min) / width) as usize).min(bins - 1);
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `min`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above `max` (or non-finite).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations added, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `(lower, upper)` bounds of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let width = (self.max - self.min) / self.counts.len() as f64;
        (self.min + i as f64 * width, self.min + (i + 1) as f64 * width)
    }

    /// Renders an ASCII bar chart, one line per bin.
    pub fn render(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_bounds(i);
            let bar = "#".repeat((c as usize * width).div_ceil(peak as usize).min(width));
            out.push_str(&format!("[{lo:>10.2}, {hi:>10.2})  {c:>6} {bar}\n"));
        }
        out
    }
}

/// Summary of a pre-bucketed labeled histogram — e.g. the `bound:count`
/// log-bucket encodings the simulation engine's metrics sinks emit: total
/// mass, the modal bucket, and the count vector in input order (ready for
/// sparkline rendering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSummary {
    /// Total count across all buckets.
    pub total: u64,
    /// Label of the bucket holding the largest count (first on ties).
    pub mode_label: String,
    /// Count in the modal bucket.
    pub mode_count: u64,
    /// Per-bucket counts, in input order.
    pub counts: Vec<u64>,
}

/// Summarizes labeled histogram buckets; `None` when the buckets carry no
/// mass at all. The total saturates at `u64::MAX` rather than overflowing.
pub fn summarize_buckets(buckets: &[(String, u64)]) -> Option<BucketSummary> {
    let total = buckets.iter().fold(0, |total: u64, (_, c)| total.saturating_add(*c));
    if total == 0 {
        return None;
    }
    let mut mode = &buckets[0];
    for b in buckets {
        if b.1 > mode.1 {
            mode = b;
        }
    }
    Some(BucketSummary {
        total,
        mode_label: mode.0.clone(),
        mode_count: mode.1,
        counts: buckets.iter().map(|(_, c)| *c).collect(),
    })
}

/// Flat-encodes bucketed counts as `bound:count,…` over non-empty buckets.
///
/// `bounds` are the bucket upper bounds; `counts` must have exactly one
/// more entry than `bounds` — the trailing overflow bucket, encoded as
/// `inf:count`. Returns `None` when the histogram carries no mass (so an
/// empty histogram serializes as an absent field, not an empty string).
///
/// This is the one shared encoding for every log₂-bucket histogram in the
/// workspace; [`decode_buckets`] inverts it.
pub fn encode_buckets(bounds: &[u64], counts: &[u64]) -> Option<String> {
    debug_assert_eq!(counts.len(), bounds.len() + 1, "counts must include the overflow bucket");
    if counts.iter().all(|&c| c == 0) {
        return None;
    }
    let mut out = String::new();
    for (idx, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !out.is_empty() {
            out.push(',');
        }
        match bounds.get(idx) {
            Some(bound) => out.push_str(&format!("{bound}:{count}")),
            None => out.push_str(&format!("inf:{count}")),
        }
    }
    Some(out)
}

/// Decodes an [`encode_buckets`] string back to `(bound-label, count)`
/// pairs, in encoded order. Returns `None` on malformed input.
pub fn decode_buckets(s: &str) -> Option<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let (label, count) = part.rsplit_once(':')?;
        if label.is_empty() {
            return None;
        }
        out.push((label.to_string(), count.parse().ok()?));
    }
    Some(out)
}

/// The `q`-quantile of a decoded bucket list, as the upper bound of the
/// bucket where the cumulative mass crosses `q·total` — the resolution the
/// encoding supports (observations inside a bucket are indistinguishable).
/// Overflow (`inf`) buckets report [`f64::INFINITY`]. `None` when the
/// buckets carry no mass, a label is non-numeric (other than `inf`), or
/// `q` is outside `[0, 1]`.
pub fn bucket_quantile(buckets: &[(String, u64)], q: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let total: u64 = buckets.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0;
    for (label, count) in buckets {
        cumulative += count;
        if cumulative >= target {
            return if label == "inf" {
                Some(f64::INFINITY)
            } else {
                label.parse::<u64>().ok().map(|b| b as f64)
            };
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
    }

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        for v in [0.0, 0.99, 1.0, 2.5, 3.99] {
            h.add(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn boundary_value_at_max_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        h.add(4.0);
        assert_eq!(h.counts(), &[0, 0, 0, 1]);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn non_finite_counts_as_overflow() {
        let mut h = Histogram::new(0.0, 4.0, 2).unwrap();
        h.add(f64::INFINITY);
        h.add(f64::NAN);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn bin_bounds_are_contiguous() {
        let h = Histogram::new(1.0, 3.0, 4).unwrap();
        for i in 0..3 {
            assert_eq!(h.bin_bounds(i).1, h.bin_bounds(i + 1).0);
        }
        assert_eq!(h.bin_bounds(0).0, 1.0);
        assert_eq!(h.bin_bounds(3).1, 3.0);
    }

    #[test]
    fn render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.add(0.5);
        let text = h.render(10);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains('#'));
    }

    fn buckets(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(l, c)| (l.to_string(), *c)).collect()
    }

    #[test]
    fn bucket_summary_finds_total_and_mode() {
        let s = summarize_buckets(&buckets(&[("8", 3), ("16", 10), ("inf", 2)])).expect("has mass");
        assert_eq!(s.total, 15);
        assert_eq!(s.mode_label, "16");
        assert_eq!(s.mode_count, 10);
        assert_eq!(s.counts, vec![3, 10, 2]);
    }

    #[test]
    fn bucket_summary_mode_ties_break_to_the_first_bucket() {
        let s = summarize_buckets(&buckets(&[("8", 5), ("16", 5)])).expect("has mass");
        assert_eq!(s.mode_label, "8");
    }

    #[test]
    fn bucket_summary_of_massless_buckets_is_none() {
        assert!(summarize_buckets(&[]).is_none());
        assert!(summarize_buckets(&buckets(&[("8", 0)])).is_none());
    }

    #[test]
    fn encode_skips_empty_buckets_and_labels_overflow_inf() {
        let encoded = encode_buckets(&[1, 2, 4], &[3, 0, 1, 7]).expect("has mass");
        assert_eq!(encoded, "1:3,4:1,inf:7");
    }

    #[test]
    fn encode_of_massless_counts_is_none() {
        assert!(encode_buckets(&[1, 2], &[0, 0, 0]).is_none());
    }

    #[test]
    fn decode_inverts_encode() {
        let bounds = [1u64, 8, 64, 512];
        let counts = [5u64, 0, 12, 1, 2];
        let encoded = encode_buckets(&bounds, &counts).expect("has mass");
        let decoded = decode_buckets(&encoded).expect("well-formed");
        assert_eq!(decoded, buckets(&[("1", 5), ("64", 12), ("512", 1), ("inf", 2)]));
        // Re-encoding the decoded mass over the same bounds round-trips.
        let mut rebuilt = vec![0u64; bounds.len() + 1];
        for (label, count) in &decoded {
            let idx = if label == "inf" {
                bounds.len()
            } else {
                bounds.iter().position(|b| b.to_string() == *label).expect("known bound")
            };
            rebuilt[idx] = *count;
        }
        assert_eq!(encode_buckets(&bounds, &rebuilt).as_deref(), Some(encoded.as_str()));
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(decode_buckets("8").is_none());
        assert!(decode_buckets(":3").is_none());
        assert!(decode_buckets("8:x").is_none());
        assert!(decode_buckets("8:3,,16:1").is_none());
    }

    #[test]
    fn bucket_quantile_walks_cumulative_mass() {
        let b = buckets(&[("1", 10), ("2", 80), ("4", 9), ("inf", 1)]);
        assert_eq!(bucket_quantile(&b, 0.0), Some(1.0));
        assert_eq!(bucket_quantile(&b, 0.5), Some(2.0));
        assert_eq!(bucket_quantile(&b, 0.95), Some(4.0));
        assert_eq!(bucket_quantile(&b, 1.0), Some(f64::INFINITY));
    }

    #[test]
    fn bucket_quantile_rejects_bad_inputs() {
        let b = buckets(&[("1", 1)]);
        assert!(bucket_quantile(&b, -0.1).is_none());
        assert!(bucket_quantile(&b, 1.1).is_none());
        assert!(bucket_quantile(&buckets(&[("1", 0)]), 0.5).is_none());
        assert!(bucket_quantile(&buckets(&[("wat", 1)]), 0.5).is_none());
    }
}
