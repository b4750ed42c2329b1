#include "core/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace streamlab {
namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

TEST(Export, WritesAllFilesToDirectory) {
  const std::string dir = testing::TempDir() + "/streamlab_export";
  std::filesystem::remove_all(dir);
  const std::vector<std::pair<std::string, TurbulenceRunResult>> no_runs;
  EXPECT_EQ(export_turbulence(no_runs, dir), 2);
  EXPECT_EQ(first_line(dir + "/turbulence.csv").find("scenario,clip_id,player,"), 0u);
  EXPECT_EQ(first_line(dir + "/turbulence_episodes.csv"),
            "scenario,kind,label,start_s,duration_s,applied,cleared,packets_dropped");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace streamlab
