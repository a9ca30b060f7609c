#pragma once

// Prints a CacheOutcome by name ("hit", "miss", "join"), so a failed
// expectation on a lookup's outcome reads `hit` vs `miss` instead of raw
// object bytes.  gtest finds PrintTo by argument-dependent lookup.

#include <ostream>

#include "service/cache.hpp"
#include "service/cli.hpp"

namespace dsp::service {

inline void PrintTo(CacheOutcome outcome, std::ostream* os) {
  *os << outcome_name(outcome);
}

}  // namespace dsp::service
