// The paper's shape claims, declared once. Each row names the `reproduce`
// output it belongs to, quotes the paper, measures one number from a study
// and bounds it. Three readers walk the same table: `reproduce claims`
// prints the verdict tables EXPERIMENTS.md embeds, a ctest keeps that copy
// byte-identical, and the paper test suite asserts every row over the full
// study at kPaperSeed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/study.hpp"

namespace streamlab {

/// One edge of a bound: the measured value must lie beyond `value` on the
/// inside, or exactly on it when `inclusive`.
struct BoundEdge {
  double value = 0.0;
  bool inclusive = false;
};

struct ClaimBound {
  std::optional<BoundEdge> lower;
  std::optional<BoundEdge> upper;

  /// True when `v` lies inside every edge. NaN — an extractor's "this
  /// study cannot show it" — is never admitted.
  bool admits(double v) const;
  /// "> 10", "≤ 26", "[0.63, 0.69]", "(11, 17)".
  std::string describe() const;
};

ClaimBound above(double v);                  ///< > v
ClaimBound at_least(double v);               ///< ≥ v
ClaimBound below(double v);                  ///< < v
ClaimBound at_most(double v);                ///< ≤ v
ClaimBound within(double lo, double hi);     ///< [lo, hi]
ClaimBound between(double lo, double hi);    ///< (lo, hi)

struct PaperClaim {
  const char* id;         ///< "<output>.<name>", unique
  const char* output;     ///< the `reproduce` output id it belongs to
  const char* paper;      ///< the paper's statement
  const char* quantity;   ///< what `measure` returns, with its unit
  double (*measure)(const StudyResults&);
  ClaimBound bound;
};

/// Every claim of Table 1 and Figures 1-15, grouped by output in the
/// `reproduce` registry order.
const std::vector<PaperClaim>& paper_claims();

}  // namespace streamlab
