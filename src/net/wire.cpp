#include "net/wire.h"

#include <cstring>

namespace caa::net {

namespace {
template <typename T>
void append_le(Bytes& buffer, T v) {
  std::byte raw[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    raw[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
  buffer.insert(buffer.end(), raw, raw + sizeof(T));
}

template <typename T>
T read_le(const std::byte* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}
}  // namespace

Bytes BytesPool::acquire() {
  if (free_.empty()) {
    ++fresh_;
    return Bytes{};
  }
  ++reused_;
  Bytes out = std::move(free_.back());
  free_.pop_back();
  return out;
}

void BytesPool::recycle(Bytes&& buffer) {
  if (buffer.capacity() == 0) return;  // moved-from or never-written husk
  if (buffer.capacity() > kMaxRetainedCapacity || free_.size() >= kMaxPooled) {
    Bytes drop = std::move(buffer);  // free now, outside the pool
    return;
  }
  buffer.clear();
  free_.push_back(std::move(buffer));
}

Bytes BytesPool::copy_of(const Bytes& src) {
  Bytes out = acquire();
  out.assign(src.begin(), src.end());
  return out;
}

BytesPool& BytesPool::local() {
  thread_local BytesPool pool;
  return pool;
}

void WireWriter::u8(std::uint8_t v) { append_le(buffer_, v); }
void WireWriter::u16(std::uint16_t v) { append_le(buffer_, v); }
void WireWriter::u32(std::uint32_t v) { append_le(buffer_, v); }
void WireWriter::u64(std::uint64_t v) { append_le(buffer_, v); }
void WireWriter::i64(std::int64_t v) {
  append_le(buffer_, static_cast<std::uint64_t>(v));
}

void WireWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size());
}

void WireWriter::blob(const Bytes& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

Status WireReader::need(std::size_t n) {
  if (size_ - pos_ < n) {
    return Status::invalid_argument("wire: truncated message");
  }
  return Status::ok();
}

Result<std::uint8_t> WireReader::u8() {
  if (auto s = need(1); !s.is_ok()) return s;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::uint16_t> WireReader::u16() {
  if (auto s = need(2); !s.is_ok()) return s;
  auto v = read_le<std::uint16_t>(data_ + pos_);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> WireReader::u32() {
  if (auto s = need(4); !s.is_ok()) return s;
  auto v = read_le<std::uint32_t>(data_ + pos_);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> WireReader::u64() {
  if (auto s = need(8); !s.is_ok()) return s;
  auto v = read_le<std::uint64_t>(data_ + pos_);
  pos_ += 8;
  return v;
}

Result<std::int64_t> WireReader::i64() {
  auto v = u64();
  if (!v.is_ok()) return v.status();
  return static_cast<std::int64_t>(v.value());
}

Result<bool> WireReader::boolean() {
  auto v = u8();
  if (!v.is_ok()) return v.status();
  if (v.value() > 1) return Status::invalid_argument("wire: bad bool");
  return v.value() == 1;
}

Result<std::string> WireReader::str() {
  auto len = u32();
  if (!len.is_ok()) return len.status();
  if (auto s = need(len.value()); !s.is_ok()) return s;
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len.value());
  pos_ += len.value();
  return out;
}

Result<Bytes> WireReader::blob() {
  auto len = u32();
  if (!len.is_ok()) return len.status();
  if (auto s = need(len.value()); !s.is_ok()) return s;
  Bytes out(data_ + pos_, data_ + pos_ + len.value());
  pos_ += len.value();
  return out;
}

}  // namespace caa::net
