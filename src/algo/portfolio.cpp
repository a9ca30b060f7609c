#include "algo/portfolio.hpp"

#include <utility>

#include "core/bounds.hpp"
#include "util/check.hpp"

namespace dsp::algo {

namespace {

using Earlier = std::span<const Scored>;

/// A greedy member: places on a Profile and reports its peak.
NamedAlgorithm greedy_member(std::string name, ItemOrder order) {
  return {std::move(name), [order](const Instance& in, Height, Earlier) {
            return greedy_lowest_peak(in, order);
          }};
}

/// A member that does not place on a load Profile (bottom-left's skyline
/// holds strip-packing heights): its packing is scored by peak_height.
NamedAlgorithm rescored_member(std::string name,
                               Packing (*place)(const Instance&)) {
  return {std::move(name), [place](const Instance& in, Height, Earlier) {
            Packing packing = place(in);
            const Height peak = peak_height(in, packing);
            return Scored{std::move(packing), peak};
          }};
}

}  // namespace

Packing NamedAlgorithm::run(const Instance& instance) const {
  return run_scored(instance, combined_lower_bound(instance), {}).packing;
}

std::vector<NamedAlgorithm> baseline_portfolio(ProfileBackendKind) {
  // first-fit's budget search starts from the greedy-h result.
  constexpr std::size_t kGreedyH = 0;
  return {
      greedy_member("greedy-h", ItemOrder::kDecreasingHeight),
      greedy_member("greedy-area", ItemOrder::kDecreasingArea),
      greedy_member("greedy-w", ItemOrder::kDecreasingWidth),
      {"first-fit",
       [](const Instance& in, Height lower_bound, Earlier earlier) {
         if (earlier.size() > kGreedyH) {
           return first_fit_search(in, lower_bound, earlier[kGreedyH]);
         }
         return first_fit_search(
             in, lower_bound,
             greedy_lowest_peak(in, ItemOrder::kDecreasingHeight));
       }},
      rescored_member("nfdh", nfdh_dsp),
      rescored_member("ffdh", ffdh_dsp),
      rescored_member("sleator", sleator_dsp),
      rescored_member("bottom-left", bottom_left_dsp),
  };
}

Packing best_of_portfolio(const Instance& instance, std::string* winner,
                          ProfileBackendKind) {
  return best_of_portfolio(instance, combined_lower_bound(instance), winner)
      .packing;
}

Scored best_of_portfolio(const Instance& instance, Height lower_bound,
                         std::string* winner) {
  DSP_REQUIRE(instance.size() > 0, "best_of_portfolio on empty instance");
  const std::vector<NamedAlgorithm> members = baseline_portfolio();
  std::vector<Scored> results;
  results.reserve(members.size());
  std::size_t best = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    Scored result = members[m].run_scored(instance, lower_bound, results);
    results.push_back(std::move(result));
    if (results[m].peak < results[best].peak) best = m;
    if (results[best].peak <= lower_bound) break;
  }
  if (winner) *winner = members[best].name;
  return std::move(results[best]);
}

}  // namespace dsp::algo
