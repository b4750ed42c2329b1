// The streaming wire protocol between the simulated servers and clients — a
// stand-in for the proprietary MMS (MediaPlayer) and RDT (RealPlayer)
// protocols of 2002, carrying exactly the information the study needs:
// sequence numbers for loss/reorder detection and media byte positions for
// buffer accounting. Control (PLAY/TEARDOWN) and data share a compact
// binary framing distinguished by a magic prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace streamlab {

/// Well-known ports, mirroring the real products' registered ports.
inline constexpr std::uint16_t kRealServerPort = 7070;   // RealServer
inline constexpr std::uint16_t kMediaServerPort = 1755;  // MMS
inline constexpr std::uint16_t kRealClientPort = 6970;
inline constexpr std::uint16_t kMediaClientPort = 7000;

inline constexpr std::uint16_t kDataMagic = 0x4454;     // "DT"
inline constexpr std::uint16_t kControlMagic = 0x4354;  // "CT"
inline constexpr std::uint16_t kParityMagic = 0x5052;   // "PR"
inline constexpr std::size_t kDataHeaderSize = 16;
inline constexpr std::size_t kParityHeaderSize = 22;

enum class ControlType : std::uint8_t {
  kPlayRequest = 1,
  kPlayOk = 2,
  kTeardown = 3,
  /// Client-to-server loss feedback driving media scaling (value =
  /// loss fraction in per-mille over the last report interval).
  kReceiverReport = 4,
  /// Client-to-server retransmission request (RTCP generic-NACK style):
  /// offset = first missing sequence number (PID), value = bitmap of the 16
  /// sequence numbers following PID (BLP; bit j set => PID+1+j also missing).
  kNack = 5,
  /// Client-to-server multipath path report (MPRTP-style subflow feedback):
  /// value = subflow id, offset packs (highest subflow_seq received << 32) |
  /// packets received on that subflow. Sent over the subflow's own path so
  /// its arrival (or silence) is itself a liveness signal.
  kPathReport = 6,
};

struct ControlMessage {
  ControlType type = ControlType::kPlayRequest;
  std::string clip_id;
  std::uint16_t value = 0;  ///< type-specific payload (receiver reports)
  /// kPlayRequest: media byte position to start (resume) from. 0 plays from
  /// the top; a failover PLAY carries the client's contiguous media position
  /// so the mirror continues the clip instead of restarting it.
  std::uint64_t offset = 0;

  std::vector<std::uint8_t> encode() const;
  static std::optional<ControlMessage> decode(std::span<const std::uint8_t> payload);
};

/// Flag bits carried in data packets.
inline constexpr std::uint8_t kFlagBufferingPhase = 0x01;  ///< server in startup burst
inline constexpr std::uint8_t kFlagEndOfStream = 0x02;     ///< no media after this packet
inline constexpr std::uint8_t kFlagRetransmit = 0x04;      ///< NACK-triggered resend
/// Multipath subflow extension present: the reserved header byte carries the
/// subflow id and a 32-bit per-subflow sequence number follows the fixed
/// header. Packets without the flag are byte-identical to the pre-multipath
/// framing, so single-path runs replay unchanged.
inline constexpr std::uint8_t kFlagMultipath = 0x08;

/// Extra wire bytes a kFlagMultipath packet carries after the fixed header.
inline constexpr std::size_t kMultipathExtensionSize = 4;

struct DataHeader {
  std::uint32_t seq = 0;  ///< stream-wide sequence (FEC/NACK/coverage space)
  std::uint64_t media_offset = 0;
  std::uint8_t flags = 0;
  /// Multipath subflow fields; meaningful only when flags carries
  /// kFlagMultipath. `subflow_seq` increments independently per path, which
  /// is what per-path gap detection and loss accounting key on.
  std::uint8_t subflow_id = 0;
  std::uint32_t subflow_seq = 0;

  /// Wire bytes of this header followed by `media_len` payload bytes.
  std::size_t wire_size(std::size_t media_len) const;
  /// Writes the header and then synthetic media bytes into all of `out`
  /// (sized by wire_size), in place in a datagram's buffer. The media byte
  /// at stream offset o is o & 0xFF.
  void write(std::span<std::uint8_t> out) const;
  /// write() into a fresh vector.
  static std::vector<std::uint8_t> make_packet(const DataHeader& header,
                                               std::size_t media_len);
  /// Parses the header; returns the media byte count via `media_len`.
  static std::optional<DataHeader> decode(std::span<const std::uint8_t> payload,
                                          std::size_t& media_len);
};

/// FEC parity packet covering an interleaved row of k data packets: sequence
/// numbers block_base, block_base + stride, ..., block_base + stride*(k-1).
/// The XOR accumulators let the decoder reconstruct the header of any single
/// missing packet in the row; the payload itself is deterministic from the
/// recovered media_offset, so only the header fields travel in the parity.
/// The packet is padded to the longest covered payload so the simulated link
/// pays honest parity bandwidth.
struct ParityHeader {
  std::uint8_t k = 0;                  ///< data packets covered by this row
  std::uint8_t stride = 1;             ///< interleave distance between seqs
  std::uint32_t block_base = 0;        ///< first covered sequence number
  std::uint64_t xor_media_offset = 0;  ///< XOR of covered media offsets
  std::uint32_t xor_media_len = 0;     ///< XOR of covered payload lengths
  std::uint8_t xor_flags = 0;          ///< XOR of covered flag bytes

  /// Wire bytes of the header followed by `pad_len` filler bytes.
  static std::size_t wire_size(std::size_t pad_len) { return kParityHeaderSize + pad_len; }
  /// Writes the header and then 0xFE filler (bandwidth model) into all of
  /// `out`, in place in a datagram's buffer.
  void write(std::span<std::uint8_t> out) const;
  /// write() into a fresh vector.
  static std::vector<std::uint8_t> make_packet(const ParityHeader& header,
                                               std::size_t pad_len);
  static std::optional<ParityHeader> decode(std::span<const std::uint8_t> payload);
};

}  // namespace streamlab
