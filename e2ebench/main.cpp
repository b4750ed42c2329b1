// e2ebench: the end-to-end benchmark program. Runs one workload for a time
// budget, checks its outputs, and prints a metadata line, the workload's
// named figures and, last, one JSON result line whose metrics are bare
// numbers. run.py builds and invokes it, and gives each metric its unit from
// BENCHMARK.json, the one list of metric names; see README.md.
//
//   e2ebench --workload <paper|campaign|fleet|capture> --seed <n>
//            --seconds <s> --trace <0|1> --out-dir <dir> [--source <id>]
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "obs/export.hpp"
#include "recorded.hpp"
#include "workload.hpp"

namespace {

using namespace e2ebench;

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  Report (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"paper", recorded::kPaperSeed, run_paper},
    {"campaign", recorded::kCampaignSeed, run_campaign_workload},
    {"fleet", recorded::kFleetSeed, run_fleet_workload},
    {"capture", recorded::kCaptureSeed, run_capture},
};

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_name() {
  char buf[256] = {};
  return gethostname(buf, sizeof buf - 1) == 0 ? buf : "unknown";
}

/// JSON number with every digit a double carries.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON string literal. (Built by appending: GCC 12 misreports
/// `"literal" + std::string` under -Wrestrict.)
std::string str(const std::string& s) {
  std::string out(1, '"');
  out += streamlab::obs::json_escape(s);
  out += '"';
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <paper|campaign|fleet|capture> "
               "[--seed n] [--seconds s] [--trace 0|1] --out-dir dir [--source id]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir, source = "unknown";
  std::string seed_text;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed_text = value;
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::strcmp(value, "1") == 0;
    else if (flag == "--out-dir") out_dir = value;
    else if (flag == "--source") source = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload_name == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown --workload");
  if (out_dir.empty()) return usage("--out-dir is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  RunOptions options;
  options.seed = seed_text.empty() ? workload->default_seed : std::strtoull(seed_text.c_str(), nullptr, 10);
  options.seconds = seconds;
  options.trace = trace;
  options.out_dir = out_dir;
  options.threads = available_cpus();
  std::filesystem::create_directories(out_dir);

  Report report;
  try {
    report = workload->run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: workload %s failed: %s\n", workload->name, e.what());
    return 1;
  }
  const double rss = peak_rss_mib();
  const Checks& checks = report.checks;

  // Self-describing metadata: where and how these numbers were measured.
  std::string meta = "{\"workload\":" + str(workload->name) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"default_seed\":" + std::to_string(workload->default_seed) +
                     ",\"seconds\":" + num(seconds) + ",\"trace\":" + (trace ? "1" : "0") +
                     ",\"host\":" + str(host_name()) +
                     ",\"nproc\":" + std::to_string(options.threads) +
                     ",\"compiler\":" + str("g++ " __VERSION__) +
                     ",\"build_type\":" + str(E2EBENCH_BUILD_TYPE) +
                     ",\"source\":" + str(source);
  for (const auto& [key, value] : report.info) {
    meta += ',';
    meta += str(key);
    meta += ':';
    meta += str(value);
  }
  if (trace) {
    meta += ",\"trace_file\":";
    meta += str(out_dir + "/trace-" + workload->name + ".json");
  }
  std::printf("meta %s}\n", meta.c_str());

  // The workload's end-to-end figures under their descriptive names.
  std::printf("figure setup_s %.6f s\n", report.setup_s);
  std::printf("figure peak_rss_mb %.3f MiB\n", rss);
  std::printf("figure fail_ratio %.6f failed/attempted (%llu/%llu)\n",
              fail_ratio(checks.failed, checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  for (const NamedValue& f : report.figures)
    std::printf("figure %s %.6f %s %s\n", f.name.c_str(), f.value, f.unit.c_str(),
                f.note.c_str());
  for (const std::string& failure : checks.failures)
    std::fprintf(stderr, "e2ebench: check failed: %s\n", failure.c_str());

  std::string metrics;
  const auto add = [&metrics](const std::string& name, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += str(name) + ": " + num(value);
  };
  if (trace) {
    for (const auto& [name, value] : report.layers) add(name, value);
  } else {
    add("setup_s", report.setup_s);
    add("peak_rss_mb", rss);
    add("ops_per_s", report.ops_per_s);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), metrics.c_str());
  return 0;
}
