#include "shg/sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace shg::sim {

void Distribution::add(double sample) {
  if (!binned_) {
    if (samples_.size() < cap_) {
      samples_.push_back(sample);
      ++count_;
      return;
    }
    fold_into_bins();
  }
  SHG_REQUIRE(sample >= 0.0,
              "binned distribution mode requires non-negative samples");
  sum_ += sample;
  max_ = count_ == 0 ? sample : std::max(max_, sample);
  ++count_;
  bin_sample(sample);
}

void Distribution::fold_into_bins() {
  binned_ = true;
  // Accumulate in insertion order so sum_ (and therefore mean()) carries
  // the exact floating-point value the unbounded accumulate() produced.
  sum_ = 0.0;
  for (double s : samples_) {
    SHG_REQUIRE(s >= 0.0,
                "binned distribution mode requires non-negative samples");
    sum_ += s;
    bin_sample(s);
  }
  if (!samples_.empty()) {
    max_ = *std::max_element(samples_.begin(), samples_.end());
  }
  samples_.clear();
  samples_.shrink_to_fit();
  sorted_.clear();
  sorted_.shrink_to_fit();
}

void Distribution::bin_sample(double sample) {
  const long long key = std::llround(sample);
  // Larger samples get no bucket: their ranks lie above every bin, where
  // percentile() reports max().
  if (key >= kMaxTrackedValue) return;
  const auto index = static_cast<std::size_t>(key < 0 ? 0 : key);
  if (index >= bins_.size()) bins_.resize(index + 1, 0);
  ++bins_[index];
}

double Distribution::mean() const {
  SHG_REQUIRE(count_ > 0, "no samples");
  if (binned_) return sum_ / static_cast<double>(count_);
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(count_);
}

double Distribution::max() const {
  SHG_REQUIRE(count_ > 0, "no samples");
  if (binned_) return max_;
  return *std::max_element(samples_.begin(), samples_.end());
}

void Distribution::ensure_sorted() const {
  if (sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
  }
}

double Distribution::percentile(double q) const {
  SHG_REQUIRE(count_ > 0, "no samples");
  SHG_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;  // 0-based k-th smallest
  if (!binned_) {
    ensure_sorted();
    return sorted_[std::min(index, sorted_.size() - 1)];
  }
  // Histogram walk: the k-th smallest value is the first bucket whose
  // cumulative count exceeds k. Ranks landing in the overflow bucket
  // report the exact running max.
  std::uint64_t cumulative = 0;
  for (std::size_t v = 0; v < bins_.size(); ++v) {
    cumulative += bins_[v];
    if (cumulative > index) return static_cast<double>(v);
  }
  return max_;
}

double fairness_ratio(const std::vector<double>& per_source_mean) {
  SHG_REQUIRE(!per_source_mean.empty(), "no sources");
  double total = 0.0;
  double worst = 0.0;
  for (double m : per_source_mean) {
    SHG_REQUIRE(m >= 0.0, "mean latency must be non-negative");
    total += m;
    worst = std::max(worst, m);
  }
  const double overall = total / static_cast<double>(per_source_mean.size());
  // Degenerate all-zero input (e.g. an experiment point whose measurement
  // window caught no packets): every source is served identically, so the
  // fairest possible ratio — not a trap — is the right answer.
  if (overall == 0.0) return 1.0;
  return worst / overall;
}

}  // namespace shg::sim
