#include "obs/flight_recorder.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "util/check.h"

namespace caa::obs {
namespace {

constexpr std::string_view kMagic = "CAAFR001";

/// Per-thread crash-dump state (campaign workers each run their own worlds).
struct CrashContext {
  bool armed = false;
  std::string dir;
  std::uint64_t seed = 0;
  std::uint64_t world_index = 0;
};

thread_local FlightRecorder* t_active_recorder = nullptr;
thread_local CrashContext t_crash;
thread_local std::string t_pending_dump_path;

void crash_dump_check_hook() {
  const std::string path = FlightRecorder::dump_thread_active();
  if (!path.empty()) {
    std::fprintf(stderr, "flight recorder dumped to %s\n", path.c_str());
  }
}

[[nodiscard]] std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string_view rec_type_name(RecType type) {
  switch (type) {
    case RecType::kSend: return "send";
    case RecType::kDeliver: return "deliver";
    case RecType::kDrop: return "drop";
    case RecType::kRaise: return "raise";
    case RecType::kState: return "state";
    case RecType::kAbort: return "abort";
    case RecType::kResolved: return "resolved";
    case RecType::kEnter: return "enter";
    case RecType::kDone: return "done";
    case RecType::kTakeover: return "takeover";
    case RecType::kHandler: return "handler";
    case RecType::kHandlerEnd: return "handler-end";
    case RecType::kAbortHandler: return "abort-handler";
    case RecType::kLeave: return "leave";
    case RecType::kTxnBegin: return "txn-begin";
    case RecType::kTxnEnd: return "txn-end";
  }
  return "?";
}

void FlightRecorder::set_capacity(std::size_t records) {
  capacity_ = records < 16 ? 16 : records;
  clear();
}

void FlightRecorder::clear() {
  ring_.clear();
  ring_.shrink_to_fit();  // re-reserved (once) on the next record
  head_ = 0;
  next_id_ = 1;
  current_cause_ = 0;
}

std::uint64_t FlightRecorder::push(RecType type, std::uint64_t cause,
                                   std::uint64_t scope, std::uint32_t actor,
                                   std::uint32_t peer, std::uint32_t code,
                                   std::uint32_t round) {
  FlightRecord rec;
  rec.id = next_id_++;
  rec.cause = cause;
  rec.scope = scope;
  rec.time = clock_ != nullptr ? *clock_ : 0;
  rec.actor = actor;
  rec.peer = peer;
  rec.code = code;
  rec.round = round;
  rec.type = type;
  if (ring_.size() < capacity_ || keep_all_) {
    if (ring_.capacity() < capacity_) ring_.reserve(capacity_);
    ring_.push_back(rec);  // no allocation until a keep-all ring outgrows it
  } else {
    ring_[head_] = rec;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }
  return rec.id;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  // head_ is the oldest entry once the ring has wrapped; 0 before that.
  const std::size_t start = ring_.size() < capacity_ ? 0 : head_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

net::Bytes FlightRecorder::encode(std::uint64_t seed,
                                  std::uint64_t world_index) const {
  net::WireWriter w;
  w.str(kMagic);
  w.u64(seed);
  w.u64(world_index);
  w.u64(recorded_total());
  w.u64(overwritten());
  const std::vector<FlightRecord> records = snapshot();
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const FlightRecord& r : records) {
    w.u64(r.id);
    w.u64(r.cause);
    w.u64(r.scope);
    w.i64(r.time);
    w.u32(r.actor);
    w.u32(r.peer);
    w.u32(r.code);
    w.u32(r.round);
    w.u8(static_cast<std::uint8_t>(r.type));
  }
  return w.take();
}

bool FlightRecorder::dump_to_file(const std::string& path, std::uint64_t seed,
                                  std::uint64_t world_index) const {
  const net::Bytes bytes = encode(seed, world_index);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

Result<FlightDump> FlightRecorder::decode(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto magic = r.str();
  if (!magic.is_ok()) return magic.status();
  if (magic.value() != kMagic) {
    return Status::invalid_argument("not a flight recorder dump (bad magic)");
  }
  FlightDump dump;
  auto seed = r.u64();
  auto index = r.u64();
  auto total = r.u64();
  auto lost = r.u64();
  auto count = r.u32();
  if (!seed.is_ok() || !index.is_ok() || !total.is_ok() || !lost.is_ok() ||
      !count.is_ok()) {
    return Status::invalid_argument("corrupt dump: truncated header");
  }
  dump.seed = seed.value();
  dump.world_index = index.value();
  dump.recorded_total = total.value();
  dump.overwritten = lost.value();
  dump.records.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    FlightRecord rec;
    auto id = r.u64();
    auto cause = r.u64();
    auto scope = r.u64();
    auto time = r.i64();
    auto actor = r.u32();
    auto peer = r.u32();
    auto code = r.u32();
    auto round = r.u32();
    auto type = r.u8();
    if (!id.is_ok() || !cause.is_ok() || !scope.is_ok() || !time.is_ok() ||
        !actor.is_ok() || !peer.is_ok() || !code.is_ok() || !round.is_ok() ||
        !type.is_ok()) {
      return Status::invalid_argument("corrupt dump: truncated record");
    }
    if (type.value() < 1 ||
        type.value() > static_cast<std::uint8_t>(RecType::kTxnEnd)) {
      return Status::invalid_argument("corrupt dump: unknown record type");
    }
    rec.id = id.value();
    rec.cause = cause.value();
    rec.scope = scope.value();
    rec.time = time.value();
    rec.actor = actor.value();
    rec.peer = peer.value();
    rec.code = code.value();
    rec.round = round.value();
    rec.type = static_cast<RecType>(type.value());
    dump.records.push_back(rec);
  }
  if (!r.exhausted()) {
    return Status::invalid_argument("corrupt dump: trailing bytes");
  }
  return dump;
}

Result<FlightDump> FlightRecorder::read_dump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::not_found("cannot open " + path);
  net::Bytes bytes;
  char chunk[4096];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    const auto got = static_cast<std::size_t>(in.gcount());
    const auto* begin = reinterpret_cast<const std::byte*>(chunk);
    bytes.insert(bytes.end(), begin, begin + got);
  }
  return decode(bytes);
}

FlightRecorder* FlightRecorder::bind_thread_active(FlightRecorder* recorder) {
  return std::exchange(t_active_recorder, recorder);
}

FlightRecorder* FlightRecorder::thread_active() { return t_active_recorder; }

void FlightRecorder::arm_crash_dump(std::string dir, std::uint64_t seed,
                                    std::uint64_t world_index) {
  t_crash.armed = true;
  t_crash.dir = std::move(dir);
  t_crash.seed = seed;
  t_crash.world_index = world_index;
  detail::check_failure_hook().store(&crash_dump_check_hook);
}

void FlightRecorder::disarm_crash_dump() { t_crash.armed = false; }

bool FlightRecorder::crash_dump_armed() { return t_crash.armed; }

std::string FlightRecorder::dump_thread_active() {
  if (!t_crash.armed || t_active_recorder == nullptr) return {};
  std::string path = t_crash.dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "world" + std::to_string(t_crash.world_index) + "_seed" +
          hex16(t_crash.seed) + ".caafr";
  if (!t_active_recorder->dump_to_file(path, t_crash.seed,
                                       t_crash.world_index)) {
    return {};
  }
  t_pending_dump_path = path;
  return path;
}

std::string FlightRecorder::take_pending_dump_path() {
  return std::exchange(t_pending_dump_path, std::string());
}

}  // namespace caa::obs
