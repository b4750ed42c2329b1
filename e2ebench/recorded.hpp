// Default seeds (the ones the repo's own tools use) and the output digests
// recorded for them. A run at a default seed must reproduce these exactly;
// at any other seed the workloads fall back to a two-run self-consistency
// check. Re-record only when a change is meant to alter results.
#pragma once

#include <cstdint>

namespace e2ebench::recorded {

/// bench/bench_common.hpp kStudySeed: every figure bench's study.
inline constexpr std::uint64_t kPaperSeed = 20020501;
inline constexpr std::uint64_t kPaperDigest = 0xfdbd62f00218d5b9;

/// turbulence_lab --campaign default --seed.
inline constexpr std::uint64_t kCampaignSeed = 1;
inline constexpr std::uint64_t kCampaignManifestDigest = 0x3fc3f7a5b8f7cd31;
inline constexpr std::uint64_t kCampaignTelemetryDigest = 0x6be8928763c22b73;

/// turbulence_lab --fleet default --seed.
inline constexpr std::uint64_t kFleetSeed = 1;
inline constexpr std::uint64_t kFleetDigest = 0x3d11cc04de89d0ec;

/// The capture workload pcaps the paper study, so it shares its seed.
inline constexpr std::uint64_t kCaptureSeed = kPaperSeed;
inline constexpr std::uint64_t kCaptureMatchDigest = 0xea576e137793a6b5;

}  // namespace e2ebench::recorded
