#include "check.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "core/bounds.hpp"

namespace e2e {

std::optional<std::string> check_answer(const dsp::Instance& instance,
                                        const dsp::Packing& packing,
                                        dsp::Height reported_peak,
                                        dsp::Height& lower_bound) {
  lower_bound = dsp::combined_lower_bound(instance);
  if (auto error = dsp::feasibility_error(instance, packing)) {
    return "invalid packing: " + *error;
  }
  const dsp::Height peak = dsp::peak_height(instance, packing);
  if (peak != reported_peak) {
    return "reported peak " + std::to_string(reported_peak) +
           " but the packing peaks at " + std::to_string(peak);
  }
  if (peak < lower_bound) {
    return "peak " + std::to_string(peak) + " below the lower bound " +
           std::to_string(lower_bound);
  }
  return std::nullopt;
}

bool same_answer_up_to_order(const dsp::Instance& a_instance,
                             const dsp::service::SolveResponse& a,
                             const dsp::Instance& b_instance,
                             const dsp::service::SolveResponse& b) {
  if (a.peak != b.peak || a.winner != b.winner) return false;
  using Placement = std::array<std::int64_t, 3>;
  const auto placements = [](const dsp::Instance& instance,
                             const dsp::Packing& packing) {
    std::vector<Placement> out;
    for (std::size_t i = 0; i < instance.size() && i < packing.start.size(); ++i) {
      out.push_back({instance.item(i).width, instance.item(i).height, packing.start[i]});
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return a.packing.start.size() == a_instance.size() &&
         b.packing.start.size() == b_instance.size() &&
         placements(a_instance, a.packing) == placements(b_instance, b.packing);
}

}  // namespace e2e
