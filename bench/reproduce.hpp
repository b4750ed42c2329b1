// The registry of everything `reproduce` prints: Table 1, Figures 1-15, the
// Section IV synthetic flows, the four Section VI extensions and the claim
// verdicts. Each output is declared once: its id, the header it prints, the
// data sets it reads and its render function.
#pragma once

#include <string_view>
#include <vector>

#include "core/study.hpp"

namespace streamlab::reproduce {

struct Output {
  const char* id;
  const char* heading;
  const char* title;
  const char* paper_note;
  std::vector<int> sets;  ///< data sets the render reads; empty runs no study
  void (*render)(const StudyResults&);
  /// Printed without the banner, and only when named: a report over the
  /// other outputs rather than a part of the paper.
  bool on_request = false;
};

/// Every output, in registry order.
const std::vector<Output>& outputs();
/// The output with this id, or nullptr.
const Output* find_output(std::string_view id);

}  // namespace streamlab::reproduce
