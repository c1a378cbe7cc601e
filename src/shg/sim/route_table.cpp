#include "shg/sim/route_table.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>

namespace shg::sim {

namespace {

/// Content key of one candidate list. RouteCandidate is three ints with no
/// padding, so the raw bytes identify the list exactly. Returned as a view
/// so the overwhelmingly common map-hit probe allocates nothing; the map
/// owns a std::string copy only for the few hundred unique lists.
std::string_view row_key(const std::vector<RouteCandidate>& candidates) {
  static_assert(sizeof(RouteCandidate) == 3 * sizeof(int),
                "row_key assumes a packed RouteCandidate");
  if (candidates.empty()) return std::string_view();
  return std::string_view(reinterpret_cast<const char*>(candidates.data()),
                          candidates.size() * sizeof(RouteCandidate));
}

/// Transparent hash so the map probes with string_view keys directly.
struct RowKeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

}  // namespace

RouteTable::RouteTable(const topo::Topology& topo,
                       const RoutingFunction& routing, int num_vcs)
    : num_nodes_(topo.graph().num_nodes()),
      num_vcs_(num_vcs),
      routing_name_(routing.name()) {
  SHG_REQUIRE(num_vcs >= 1, "route table needs at least one VC");
  if (const UgalInfo* info = routing.ugal_info()) ugal_ = *info;
  const auto& g = topo.graph();
  const std::size_t n = static_cast<std::size_t>(num_nodes_);

  slot_base_.resize(n + 1);
  degree_.resize(n);
  std::size_t slots = 0;
  for (graph::NodeId u = 0; u < num_nodes_; ++u) {
    slot_base_[static_cast<std::size_t>(u)] = slots;
    degree_[static_cast<std::size_t>(u)] = g.degree(u);
    slots += 1 + static_cast<std::size_t>(g.degree(u)) *
                     static_cast<std::size_t>(num_vcs);
  }
  slot_base_[n] = slots;

  // Per node, each slot gets the dense class of its input_class() key
  // (first-appearance order), and the first slot of a class represents it.
  SHG_REQUIRE(slots <= std::numeric_limits<std::uint32_t>::max(),
              "route table slots exceed 32-bit class indices");
  slot_class_.resize(slots);
  std::vector<std::size_t> class_begin(n + 1, 0);  // per node: first class
  std::vector<int> representative;  // per class: its first slot
  std::vector<std::size_t> members;  // per class: slot count
  std::vector<int> keys;             // per class of the current node: key
  for (graph::NodeId node = 0; node < num_nodes_; ++node) {
    const int degree = degree_[static_cast<std::size_t>(node)];
    const std::size_t first_class = representative.size();
    class_begin[static_cast<std::size_t>(node)] = first_class;
    keys.clear();
    for (int slot = 0; slot < 1 + degree * num_vcs; ++slot) {
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs;
      const int key = routing.input_class(node, in_port, in_vc);
      const auto found = std::find(keys.begin(), keys.end(), key);
      const std::size_t cls =
          first_class + static_cast<std::size_t>(found - keys.begin());
      if (found == keys.end()) {
        keys.push_back(key);
        representative.push_back(slot);
        members.push_back(0);
      }
      ++members[cls];
      slot_class_[slot_base_[static_cast<std::size_t>(node)] +
                  static_cast<std::size_t>(slot)] =
          static_cast<std::uint32_t>(cls);
    }
  }
  class_begin[n] = representative.size();
  row_ids_.assign(representative.size() * n, 0);
  offsets_.push_back(0);

  // Each class is routed once per dest, hash-consing candidate lists as we
  // go: a row whose list matches an earlier one points at the existing
  // arena range, only novel lists extend the arena. Classes are visited
  // node-major in first-appearance slot order, and a later slot of a class
  // meets exactly the rows its representative met, so unique rows come out
  // in the order a node-major, slot, dest sweep of every routing state
  // would first meet them.
  std::unordered_map<std::string, std::uint32_t, RowKeyHash, std::equal_to<>>
      unique_rows;
  for (graph::NodeId node = 0; node < num_nodes_; ++node) {
    for (std::size_t cls = class_begin[static_cast<std::size_t>(node)];
         cls < class_begin[static_cast<std::size_t>(node) + 1]; ++cls) {
      const int slot = representative[cls];
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs;
      for (graph::NodeId dest = 0; dest < num_nodes_; ++dest) {
        // Ejection states (dest == node) bypass routing entirely; routing
        // functions may also reject states their own invariants make
        // unreachable (e.g. the up*/down* escape has no continuation for an
        // arrival direction the escape path never produces). Both store an
        // empty row: the simulator never looks them up, and if it ever did
        // the router's non-empty assertion reproduces live-mode failure.
        std::vector<RouteCandidate> candidates;
        if (dest != node) {
          try {
            candidates = routing.route(node, in_port, in_vc, dest);
          } catch (const Error&) {
            candidates.clear();
          }
        }
        num_candidates_undeduped_ += candidates.size() * members[cls];
        const std::string_view key = row_key(candidates);
        auto it = unique_rows.find(key);
        if (it == unique_rows.end()) {
          it = unique_rows
                   .emplace(std::string(key),
                            static_cast<std::uint32_t>(offsets_.size() - 1))
                   .first;
          arena_.insert(arena_.end(), candidates.begin(), candidates.end());
          SHG_ASSERT(arena_.size() <=
                         std::numeric_limits<std::uint32_t>::max(),
                     "route table arena exceeds 32-bit offsets");
          offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
        }
        row_ids_[cls * n + static_cast<std::size_t>(dest)] = it->second;
      }
    }
  }
  arena_.shrink_to_fit();
  offsets_.shrink_to_fit();
}

}  // namespace shg::sim
