#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ckptsim::snapshot {

/// Bump on ANY payload-layout change: restore of a different version must be
/// rejected (kVersionMismatch), never guessed at.
inline constexpr std::uint32_t kFormatVersion = 4;

/// State kinds carried by the container.  A reader must name the kind it
/// expects; anything else is rejected (kKindMismatch) before the payload is
/// touched.
inline constexpr std::uint32_t kKindDesModel = 1;
inline constexpr std::uint32_t kKindSanExecutor = 2;

/// Container layout (little-endian, 32-byte header):
///
///   bytes 0..7    magic "ckptsnap"
///   bytes 8..11   u32 format version (kFormatVersion)
///   bytes 12..15  u32 state kind
///   bytes 16..23  u64 payload length
///   bytes 24..31  u64 FNV-1a of the payload (the golden-trajectory hash)
///   bytes 32..    payload
///
/// Validation order on decode: length >= header, magic, version, kind,
/// declared length == actual payload bytes, checksum — all before a single
/// payload field is parsed, so a corrupted or truncated file can never
/// partially restore anything.
[[nodiscard]] std::string encode_snapshot(std::uint32_t kind, std::string_view payload);

/// Validate the container and return the payload.  Throws SnapshotError.
[[nodiscard]] std::string decode_snapshot(std::string_view bytes, std::uint32_t expected_kind);

/// Atomic write: temp file in the same directory + fsync + rename, so a
/// crash mid-write can never leave a torn file under the final name.
void write_snapshot_file(const std::string& path, std::uint32_t kind, std::string_view payload);

/// Read + decode_snapshot.  A missing file throws SnapshotError(kIo);
/// callers that treat absence as "cold start" probe snapshot_exists first.
[[nodiscard]] std::string read_snapshot_file(const std::string& path,
                                             std::uint32_t expected_kind);

[[nodiscard]] bool snapshot_exists(const std::string& path);

/// Best-effort removal (resume consumed the snapshot, or the run completed).
void remove_snapshot_file(const std::string& path) noexcept;

}  // namespace ckptsim::snapshot
