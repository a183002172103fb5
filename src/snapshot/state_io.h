#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ckptsim::snapshot {

/// What a snapshot operation rejected.  The snapshot layer sits below core,
/// so it carries its own structured fault kind; the runner maps it onto the
/// ErrorCode taxonomy (kSnapshotCorrupt / kSnapshotMismatch / kIoError) at
/// the layer boundary.
enum class SnapshotFault : std::uint8_t {
  kIo,                ///< open/read/write/rename/fsync failed
  kTruncated,         ///< file or payload shorter than declared
  kCorrupt,           ///< bad magic, checksum mismatch, or impossible field
  kVersionMismatch,   ///< written by a different snapshot format version
  kKindMismatch,      ///< snapshot of a different state kind
  kContextMismatch,   ///< params/seed/spec differ from the saved run
};

[[nodiscard]] const char* to_string(SnapshotFault fault) noexcept;

/// Thrown on any validation or I/O failure.  Restore is all-or-nothing:
/// every throw happens before the target object is considered restored,
/// and the drivers discard the partially-written target wholesale.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotFault fault, const std::string& message)
      : std::runtime_error(message), fault_(fault) {}

  [[nodiscard]] SnapshotFault fault() const noexcept { return fault_; }

 private:
  SnapshotFault fault_;
};

/// Append-only little-endian binary encoder for snapshot payloads.  Fixed
/// widths only — no varints — so a payload's layout is a pure function of
/// the field sequence and byte-offset fuzzing maps every offset to one
/// field.  Doubles are bit-cast, never printed: restore must reproduce the
/// exact bit pattern, including negative zero and the last ulp.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void b(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Strict decoder over one payload.  Reading past the end throws
/// SnapshotFault::kTruncated; a bool byte other than 0/1 throws kCorrupt;
/// expect_end() rejects trailing bytes, so a payload must parse exactly.
class StateReader {
 public:
  explicit StateReader(std::string_view payload) : buf_(payload) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool b();
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  void expect_end() const;

 private:
  [[nodiscard]] const unsigned char* take(std::size_t n);

  std::string_view buf_;
  std::size_t pos_ = 0;
};

}  // namespace ckptsim::snapshot
