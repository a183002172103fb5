#include "src/snapshot/state_io.h"

#include <cstring>

namespace ckptsim::snapshot {

const char* to_string(SnapshotFault fault) noexcept {
  switch (fault) {
    case SnapshotFault::kIo: return "io";
    case SnapshotFault::kTruncated: return "truncated";
    case SnapshotFault::kCorrupt: return "corrupt";
    case SnapshotFault::kVersionMismatch: return "version-mismatch";
    case SnapshotFault::kKindMismatch: return "kind-mismatch";
    case SnapshotFault::kContextMismatch: return "context-mismatch";
  }
  return "unknown";
}

void StateWriter::u32(std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(bytes, sizeof bytes);
}

void StateWriter::u64(std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(bytes, sizeof bytes);
}

void StateWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void StateWriter::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

const unsigned char* StateReader::take(std::size_t n) {
  if (n > buf_.size() - pos_) {
    throw SnapshotError(SnapshotFault::kTruncated,
                        "snapshot payload truncated at byte " + std::to_string(pos_));
  }
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t StateReader::u8() { return *take(1); }

std::uint32_t StateReader::u32() {
  const unsigned char* p = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t StateReader::u64() {
  const unsigned char* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double StateReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool StateReader::b() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "snapshot bool field holds " + std::to_string(v));
  }
  return v != 0;
}

std::string StateReader::str() {
  const std::uint64_t n = u64();
  if (n > buf_.size() - pos_) {
    throw SnapshotError(SnapshotFault::kTruncated,
                        "snapshot string length " + std::to_string(n) + " exceeds payload");
  }
  const unsigned char* p = take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
}

void StateReader::expect_end() const {
  if (pos_ != buf_.size()) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "snapshot payload has " + std::to_string(buf_.size() - pos_) +
                            " trailing byte(s)");
  }
}

}  // namespace ckptsim::snapshot
