// Statistics helpers for simulation results: latency distributions and
// per-source fairness.
#pragma once

#include <cstdint>
#include <vector>

#include "shg/common/error.hpp"

namespace shg::sim {

/// Sample-based distribution summary with a bounded memory footprint.
///
/// Up to `sample_cap` samples the distribution stores every sample and all
/// summaries (mean, max, percentiles) are the exact values the unbounded
/// implementation produced — bit-identical, including floating point
/// accumulation order. Past the cap the stored samples fold into an
/// integer-keyed counting histogram (one bucket per llround(sample) below
/// kMaxTrackedValue) so million-packet runs hold a few hundred KB instead
/// of a per-packet vector. In binned mode:
///  * mean/max stay exact (running accumulators in insertion order, so
///    mean is still bit-identical to the unbounded sum);
///  * percentiles are exact for non-negative integer-valued samples below
///    kMaxTrackedValue (packet latencies in cycles always are) and rounded
///    to the nearest integer otherwise.
class Distribution {
 public:
  /// Default cap: 1M samples (~8 MB) — far above any seed-scale run, so
  /// the binned mode only engages on the large-fabric workloads it exists
  /// for. A cap of 0 bins from the first sample.
  static constexpr std::size_t kDefaultSampleCap = std::size_t{1} << 20;
  /// Bound of the histogram buckets; larger samples are counted without a
  /// bucket, and percentiles whose rank falls among them report max().
  static constexpr long long kMaxTrackedValue = 1 << 21;

  explicit Distribution(std::size_t sample_cap = kDefaultSampleCap)
      : cap_(sample_cap) {}

  void add(double sample);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// True once the sample cap forced the fold into the histogram.
  bool binned() const { return binned_; }

  double mean() const;
  double max() const;
  /// q-quantile (0 <= q <= 1) by nearest-rank; exact below the sample cap
  /// (sorts lazily), histogram-resolved above it.
  double percentile(double q) const;

 private:
  void ensure_sorted() const;
  void fold_into_bins();
  void bin_sample(double sample);

  std::size_t cap_;
  bool binned_ = false;

  // Exact mode.
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;

  // Binned mode. Running accumulators are maintained in insertion order
  // from the fold onward, reproducing the unbounded accumulate().
  std::vector<std::uint64_t> bins_;  ///< count per integer value
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Per-source fairness: the ratio of the worst mean to the overall mean.
/// 1.0 = perfectly fair; large values indicate starved sources (e.g. ring
/// nodes far from the dateline under heavy load).
double fairness_ratio(const std::vector<double>& per_source_mean);

}  // namespace shg::sim
