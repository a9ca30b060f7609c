#pragma once

#include "core/packing.hpp"
#include "pts/pts.hpp"
#include "util/fraction.hpp"

namespace dsp::augment {

/// Resource-augmentation frameworks of §2.1 (Corollaries 2-4): optimal
/// objective values in exchange for augmented resources, built on the
/// Theorem-1 duality and a black-box approximate solver for the dual
/// problem.  Per DESIGN.md substitution 2, the black box is this repo's
/// solver portfolio (Cor. 2/3) or the (5/4+eps) pipeline (Cor. 4); the
/// achieved augmentation factor is measured and reported rather than
/// assumed from [16]/[3]/[6].

/// Result of the Corollary-2 framework: a packing of *optimal-or-better
/// height* into a strip whose width is augmented by at most the given
/// factor.
struct DspWidthAugmentation {
  Packing packing;            ///< placement inside the augmented strip
  Length augmented_width = 0; ///< actual width used (<= factor * W)
  Height height = 0;          ///< certified peak of the packing
  Height height_floor = 0;    ///< combined lower bound at the original width
  std::size_t probes = 0;     ///< binary-search iterations
};

/// Corollary 2: dual-approximation binary search on the height guess H.
/// For each guess the items are transformed to PTS jobs on m = H machines
/// and the black box produces a schedule; its makespan is accepted when it
/// is at most (3/2 + eps) * W.  The returned height is the smallest
/// accepted guess — at most OPT(W) whenever the black box meets the
/// (3/2+eps) ratio of [16] on the instance (measured in experiment E5).
[[nodiscard]] DspWidthAugmentation augment_dsp_width(
    const Instance& instance, const Fraction& epsilon);

/// Result of the Corollary-3/4 frameworks: a schedule of *optimal-or-better
/// makespan* using an augmented number of machines.
struct PtsMachineAugmentation {
  pts::MachineSchedule schedule;
  pts::Time makespan = 0;       ///< certified makespan
  int augmented_machines = 0;   ///< machines used (<= factor * m)
  pts::Time makespan_floor = 0; ///< max(work bound, longest job)
  std::size_t probes = 0;
};

/// Corollary 3: machine augmentation by (5/3 + eps) with the baseline
/// portfolio as the DSP black box (stand-in for [3, 6]).
[[nodiscard]] PtsMachineAugmentation augment_pts_machines_53(
    const pts::PtsInstance& instance, const Fraction& epsilon);

/// Corollary 4: machine augmentation by (5/4 + eps) with the Theorem-5
/// pipeline as the DSP black box (the parameterized pseudo-polynomial
/// setting).
[[nodiscard]] PtsMachineAugmentation augment_pts_machines_54(
    const pts::PtsInstance& instance, const Fraction& epsilon);

}  // namespace dsp::augment
