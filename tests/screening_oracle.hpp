// Screening equivalence oracle for tests: product-form batch screening
// against the per-candidate path that materializes every graph.
#pragma once

#include <sstream>
#include <vector>

#include "shg/common/error.hpp"
#include "shg/common/parallel.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"

namespace shg::customize {

/// Screens `batch` with screen_batch_incremental and with screen_candidate,
/// and throws shg::Error naming the first candidate whose metrics are not
/// bit-identical. Returns the (verified) product-form metrics.
inline std::vector<CandidateMetrics> verify_incremental_equivalence(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  const std::vector<CandidateMetrics> product =
      screen_batch_incremental(arch, batch);
  std::vector<CandidateMetrics> full(batch.size());
  parallel_for(batch.size(), [&](std::size_t i) {
    full[i] = screen_candidate(arch, batch[i]);
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const CandidateMetrics& a = product[i];
    const CandidateMetrics& b = full[i];
    if (a == b) continue;
    std::ostringstream os;
    os << "product-form screening mismatch at batch index " << i << " ("
       << fmt_skip_sets(batch[i]) << "): product {" << a.area_overhead
       << ", " << a.avg_hops << ", " << a.diameter << ", "
       << a.throughput_bound << "} vs full {" << b.area_overhead << ", "
       << b.avg_hops << ", " << b.diameter << ", " << b.throughput_bound
       << "}";
    throw Error(os.str());
  }
  return product;
}

}  // namespace shg::customize
