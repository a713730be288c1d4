// Binary wire format.
//
// Nodes in the paper's system model live in disjoint address spaces and
// communicate only by messages (§2.1), so every protocol message in this
// library is explicitly serialized to bytes and parsed on arrival — no
// pointer ever crosses a (simulated) node boundary.
//
// Encoding: little-endian fixed-width integers, varint-free for simplicity;
// strings and blobs are length-prefixed with u32.
//
// Allocation: payload buffers are drawn from a thread-local BytesPool and
// returned to it once the network has delivered the packet, so steady-state
// message traffic re-uses a small set of warm buffers instead of paying a
// heap allocation per message (tests/net_alloc_test.cpp pins this to zero
// allocations per packet).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace caa::net {

using Bytes = std::vector<std::byte>;

/// A free-list of payload buffers. acquire() hands out an empty buffer that
/// keeps the capacity of a previously recycled one; recycle() clears a
/// spent buffer and shelves it for the next acquire. One pool per thread
/// (BytesPool::local()): campaign workers each recycle their own worlds'
/// buffers, so the pool needs no locks, and reuse only ever changes buffer
/// *capacity* — never observable behaviour or checksums.
class BytesPool {
 public:
  /// Buffers retained at most; beyond this recycle() frees instead.
  static constexpr std::size_t kMaxPooled = 1024;
  /// Buffers whose capacity outgrew this are not retained (a rare giant
  /// payload must not pin its footprint forever).
  static constexpr std::size_t kMaxRetainedCapacity = 64 * 1024;

  /// An empty buffer, reusing recycled capacity when available.
  [[nodiscard]] Bytes acquire();

  /// Clears `buffer` and shelves it for reuse. Zero-capacity (moved-from)
  /// buffers are ignored, so recycling an already-consumed payload is a
  /// harmless no-op.
  void recycle(Bytes&& buffer);

  /// A pooled copy of `src` (multicast fan-out without per-recipient heap
  /// allocations once the pool is warm).
  [[nodiscard]] Bytes copy_of(const Bytes& src);

  // Stats, for tests pinning the reuse behaviour.
  [[nodiscard]] std::size_t pooled() const { return free_.size(); }
  [[nodiscard]] std::int64_t reused() const { return reused_; }
  [[nodiscard]] std::int64_t fresh() const { return fresh_; }

  /// The calling thread's pool — the default source for WireWriter buffers
  /// and the sink for delivered payloads.
  static BytesPool& local();

 private:
  std::vector<Bytes> free_;
  std::int64_t reused_ = 0;
  std::int64_t fresh_ = 0;
};

/// Appends primitive values to a byte buffer.
///
/// The buffer comes from a BytesPool (the thread-local one by default);
/// take() moves the encoded bytes out and immediately re-arms the writer
/// with a fresh pooled buffer, so one scratch writer can encode any number
/// of consecutive messages without allocating in steady state.
class WireWriter {
 public:
  WireWriter() : WireWriter(BytesPool::local()) {}
  explicit WireWriter(BytesPool& pool)
      : pool_(&pool), buffer_(pool.acquire()) {}

  WireWriter(WireWriter&&) noexcept = default;
  WireWriter& operator=(WireWriter&&) noexcept = default;
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  ~WireWriter() {
    if (pool_ != nullptr) pool_->recycle(std::move(buffer_));
  }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v);
  void blob(const Bytes& v);

  [[nodiscard]] const Bytes& bytes() const& { return buffer_; }
  /// Moves the encoded bytes out; the writer re-arms from its pool and
  /// stays usable for the next message.
  [[nodiscard]] Bytes take() {
    Bytes out = std::move(buffer_);
    buffer_ = pool_->acquire();
    return out;
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  BytesPool* pool_;
  Bytes buffer_;
};

/// Reads primitive values back out of a byte buffer; all reads are
/// bounds-checked and report malformed input via Status (a remote node must
/// never be able to crash us with a bad packet).
class WireReader {
 public:
  explicit WireReader(const Bytes& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  WireReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int64_t> i64();
  Result<bool> boolean();
  Result<std::string> str();
  Result<Bytes> blob();

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  Status need(std::size_t n);
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace caa::net
