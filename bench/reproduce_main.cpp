// reproduce: regenerates the paper's results from one study run — Table 1,
// Figures 1-15, the Section IV synthetic flows and the four Section VI
// extensions — from the output registry in reproduce.hpp.
//
// Usage: reproduce [id...]   (no ids: every paper output, in registry order)
//
// `reproduce claims` prints the claim verdict tables as markdown, without a
// banner, and exits 1 if a claim fails; the no-argument run leaves it out.
//
// The ids are checked before any work starts. The study then runs once,
// over the union of the data sets the selected outputs read; a clip pair's
// result depends only on (seed, set, tier), so a subset prints the same
// bytes as the full study.
#include <cstdio>
#include <exception>
#include <set>
#include <vector>

#include "reproduce.hpp"

using namespace streamlab;
using reproduce::Output;

int main(int argc, char** argv) {
  std::vector<const Output*> selected;
  for (int i = 1; i < argc; ++i) {
    const Output* o = reproduce::find_output(argv[i]);
    if (!o) {
      std::fprintf(stderr, "reproduce: unknown output '%s'; valid ids:", argv[i]);
      for (const Output& valid : reproduce::outputs()) std::fprintf(stderr, " %s", valid.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(o);
  }
  if (selected.empty())
    for (const Output& o : reproduce::outputs())
      if (!o.on_request) selected.push_back(&o);

  std::set<int> sets;
  for (const Output* o : selected) sets.insert(o->sets.begin(), o->sets.end());
  StudyResults study;
  if (!sets.empty()) {
    StudyConfig config;
    config.seed = kPaperSeed;
    study = run_study_subset(config, {sets.begin(), sets.end()});
  }

  try {
    for (const Output* o : selected) {
      if (!o->on_request) {
        std::printf("==============================================================\n");
        std::printf("%s — %s\n", o->heading, o->title);
        std::printf("paper: %s\n", o->paper_note);
        std::printf("==============================================================\n\n");
      }
      o->render(study);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reproduce: %s\n", e.what());
    return 1;
  }
  return 0;
}
