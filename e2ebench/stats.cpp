#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace e2ebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  constexpr long n = 4;
  double out[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {out[0], out[1], out[2]};
}

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (values.empty() || samples_beyond(values.size(), p) < min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

std::optional<TailPercentile> highest_supported_percentile(std::vector<double> values,
                                                           std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (const auto v = percentile(values, p, min_beyond)) return TailPercentile{p, *v};
  }
  return std::nullopt;
}

double fail_ratio(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(std::min(failed, attempted)) / static_cast<double>(attempted);
}

Digest& Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(b, sizeof b);
}

Digest& Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return u64(bits);
}

Digest& Digest::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace e2ebench
