#include "algo/portfolio.hpp"

#include "algo/baselines.hpp"
#include "core/bounds.hpp"
#include "util/check.hpp"

namespace dsp::algo {

std::vector<NamedAlgorithm> baseline_portfolio(ProfileBackendKind) {
  // first-fit's budget search starts from the greedy-h packing.
  constexpr std::size_t kGreedyH = 0;
  return {
      {"greedy-h",
       [](const Instance& in) {
         return greedy_lowest_peak(in, ItemOrder::kDecreasingHeight);
       }},
      {"greedy-area",
       [](const Instance& in) {
         return greedy_lowest_peak(in, ItemOrder::kDecreasingArea);
       }},
      {"greedy-w",
       [](const Instance& in) {
         return greedy_lowest_peak(in, ItemOrder::kDecreasingWidth);
       }},
      {"first-fit", [](const Instance& in) { return first_fit_search(in); },
       [](const Instance& in, Height lower_bound, const Packing& greedy) {
         return first_fit_search(in, lower_bound, greedy);
       },
       kGreedyH},
      {"nfdh", [](const Instance& in) { return nfdh_dsp(in); }},
      {"ffdh", [](const Instance& in) { return ffdh_dsp(in); }},
      {"sleator", [](const Instance& in) { return sleator_dsp(in); }},
      {"bottom-left", [](const Instance& in) { return bottom_left_dsp(in); }},
  };
}

Packing best_of_portfolio(const Instance& instance, std::string* winner,
                          ProfileBackendKind) {
  DSP_REQUIRE(instance.size() > 0, "best_of_portfolio on empty instance");
  const Height lower_bound = combined_lower_bound(instance);
  const std::vector<NamedAlgorithm> members = baseline_portfolio();
  std::vector<Packing> packings(members.size());
  std::size_t best = 0;
  Height best_peak = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const NamedAlgorithm& member = members[m];
    if (member.run_seeded) {
      DSP_REQUIRE(member.seed_member < m,
                  "portfolio member " << member.name
                                      << " is seeded by a later member");
      packings[m] = member.run_seeded(instance, lower_bound,
                                      packings[member.seed_member]);
    } else {
      packings[m] = member.run(instance);
    }
    const Height peak = peak_height(instance, packings[m]);
    if (m == 0 || peak < best_peak) {
      best = m;
      best_peak = peak;
    }
    if (best_peak <= lower_bound) break;
  }
  if (winner) *winner = members[best].name;
  return std::move(packings[best]);
}

}  // namespace dsp::algo
