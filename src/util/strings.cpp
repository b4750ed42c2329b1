#include "util/strings.hpp"

#include <algorithm>
#include <cstdio>

#include "util/rate.hpp"
#include "util/time.hpp"

namespace streamlab {

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string ascii_bar(double fraction, std::size_t width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto filled = static_cast<std::size_t>(fraction * static_cast<double>(width) + 0.5);
  std::string out(filled, '#');
  out.resize(width, '.');
  return out;
}

std::string to_string(Duration d) {
  const double ms = d.to_millis();
  if (ms < 0.001 && ms > -0.001) return fmt_double(static_cast<double>(d.ns()), 0) + "ns";
  if (ms < 1.0 && ms > -1.0) return fmt_double(ms * 1000.0, 1) + "us";
  if (ms < 1000.0 && ms > -1000.0) return fmt_double(ms, 1) + "ms";
  return fmt_double(d.to_seconds(), 2) + "s";
}

std::string to_string(SimTime t) { return "t=" + fmt_double(t.to_seconds(), 3) + "s"; }

std::string to_string(BitRate r) {
  if (r.bits_per_second() >= 1'000'000) return fmt_double(r.to_mbps(), 2) + " Mbps";
  return fmt_double(r.to_kbps(), 1) + " Kbps";
}

}  // namespace streamlab
