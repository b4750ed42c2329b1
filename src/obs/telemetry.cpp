#include "obs/telemetry.hpp"

#include <charconv>
#include <cstdio>
#include <type_traits>
#include <utility>

namespace streamlab::obs {
namespace {

std::string fmt_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_g6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// The whole of `text` as one number of type T: no leading '+' or space, no
/// trailing bytes, no overflow.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Walks "name=value,..." entries of one serialized section. An empty
/// entry (a stray or trailing comma) or one without a name is malformed.
template <typename Fn>
bool for_each_entry(std::string_view section, Fn&& fn) {
  if (section.empty()) return true;
  for (;;) {
    const std::size_t comma = section.find(',');
    const std::string_view entry = section.substr(0, comma);
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    if (!fn(entry.substr(0, eq), entry.substr(eq + 1))) return false;
    if (comma == std::string_view::npos) return true;
    section.remove_prefix(comma + 1);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TrialTelemetry

void TrialTelemetry::set_sample(std::string_view name, double value) {
  samples_.insert_or_assign(std::string(name), value);
}

void TrialTelemetry::set_tally(std::string_view name, std::uint64_t value) {
  tallies_.insert_or_assign(std::string(name), value);
}

void TrialTelemetry::add_counter(std::string_view name, std::uint64_t value) {
  if (value == 0) return;
  counters_[std::string(name)] += value;
}

std::optional<double> TrialTelemetry::sample(std::string_view name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::nullopt : std::optional<double>(it->second);
}

std::optional<std::uint64_t> TrialTelemetry::tally(std::string_view name) const {
  const auto it = tallies_.find(name);
  return it == tallies_.end() ? std::nullopt : std::optional<std::uint64_t>(it->second);
}

std::uint64_t TrialTelemetry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::string TrialTelemetry::serialize() const {
  std::string out = "tt1|s:";
  bool first = true;
  for (const auto& [name, v] : samples_) {
    if (!first) out += ',';
    first = false;
    out += name;
    out += '=';
    out += fmt_g17(v);
  }
  out += "|t:";
  first = true;
  for (const auto& [name, v] : tallies_) {
    if (!first) out += ',';
    first = false;
    out += name;
    out += '=';
    out += std::to_string(v);
  }
  out += "|c:";
  first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) out += ',';
    first = false;
    out += name;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

std::optional<TrialTelemetry> TrialTelemetry::parse(std::string_view text) {
  if (text.substr(0, 6) != "tt1|s:") return std::nullopt;
  text.remove_prefix(6);
  const std::size_t t_at = text.find("|t:");
  if (t_at == std::string_view::npos) return std::nullopt;
  const std::size_t c_at = text.find("|c:", t_at + 3);
  if (c_at == std::string_view::npos) return std::nullopt;

  TrialTelemetry out;
  // Each section is one map; a repeated name is a corrupted line, not an update.
  const auto section = [](std::string_view entries, auto& map) {
    return for_each_entry(entries, [&map](std::string_view name, std::string_view value) {
      typename std::remove_reference_t<decltype(map)>::mapped_type v{};
      return parse_number(value, v) && map.emplace(std::string(name), v).second;
    });
  };
  if (!section(text.substr(0, t_at), out.samples_) ||
      !section(text.substr(t_at + 3, c_at - t_at - 3), out.tallies_) ||
      !section(text.substr(c_at + 3), out.counters_))
    return std::nullopt;
  return out;
}

TrialTelemetry TrialTelemetry::from_registry(const Registry& registry) {
  TrialTelemetry out;
  registry.visit_counters([&out](const std::string& name, std::uint64_t value) {
    if (value == 0) return;  // add_counter drops zeros anyway; skip the rollup
    out.add_counter(family(name), value);
  });
  // Histograms in the same family (e.g. both players' repair_latency_ms)
  // combine sum/total before the per-trial mean is taken.
  std::map<std::string, std::pair<double, std::uint64_t>, std::less<>> hist;
  registry.visit_histograms([&hist](const std::string& name, const HistogramData& data) {
    if (data.total == 0) return;
    auto& acc = hist[family(name)];
    acc.first += data.sum;
    acc.second += data.total;
  });
  for (const auto& [fam, acc] : hist) {
    out.set_sample(fam, acc.first / static_cast<double>(acc.second));
    out.add_counter(fam + ".samples", acc.second);
  }
  return out;
}

std::string TrialTelemetry::family(std::string_view name) {
  const std::size_t first = name.find('.');
  if (first == std::string_view::npos) return std::string(name);
  const std::size_t last = name.rfind('.');
  if (last == first) return std::string(name);
  std::string out(name.substr(0, first));
  out += '.';
  out += name.substr(last + 1);
  return out;
}

// ---------------------------------------------------------------------------
// CampaignTelemetry

void CampaignTelemetry::fold(const TrialTelemetry& trial) {
  ++trials_;
  for (const auto& [name, v] : trial.samples()) {
    sketches_.try_emplace(name, QuantileSketch(accuracy_)).first->second.record(v);
  }
  for (const auto& [name, v] : trial.tallies()) {
    tallies_.try_emplace(name, LogHistogram()).first->second.record(v);
  }
  for (const auto& [name, v] : trial.counters()) counters_[name] += v;
}

void CampaignTelemetry::add_counter(std::string_view name, std::uint64_t n) {
  if (n == 0) return;
  counters_[std::string(name)] += n;
}

std::uint64_t CampaignTelemetry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const QuantileSketch* CampaignTelemetry::sketch(std::string_view name) const {
  const auto it = sketches_.find(name);
  return it == sketches_.end() ? nullptr : &it->second;
}

const LogHistogram* CampaignTelemetry::tally(std::string_view name) const {
  const auto it = tallies_.find(name);
  return it == tallies_.end() ? nullptr : &it->second;
}

std::string CampaignTelemetry::serialize() const {
  std::string out = "telemetry-v1\ntrials " + std::to_string(trials_) + "\n";
  for (const auto& [name, v] : counters_) {
    out += "counter " + name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, sketch] : sketches_) {
    out += "sketch " + name + " " + sketch.serialize() + "\n";
  }
  for (const auto& [name, hist] : tallies_) {
    out += "tally " + name + " " + hist.serialize() + "\n";
  }
  return out;
}

std::string CampaignTelemetry::summary() const {
  std::string out;
  for (const auto& [name, sketch] : sketches_) {
    out += name + ": p50=" + fmt_g6(sketch.quantile(0.5)) + " p95=" + fmt_g6(sketch.quantile(0.95)) +
           " n=" + std::to_string(sketch.count()) + "\n";
  }
  for (const auto& [name, hist] : tallies_) {
    out += name + ": p50=" + fmt_g6(hist.quantile(0.5)) + " max=" + std::to_string(hist.max()) +
           " n=" + std::to_string(hist.count()) + "\n";
  }
  return out;
}

}  // namespace streamlab::obs
