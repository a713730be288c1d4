// Host-side probes of the world benchmark: a counting global allocator and
// an in-memory span recorder.
//
// Both live in the benchmark binary, outside the library: spans are opened
// around the benchmark's own calls into each layer, and the allocation tally
// is read at every span boundary, so no library code is instrumented.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace wb {

struct AllocTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made through the global operator new since process start.
[[nodiscard]] AllocTally alloc_tally();

/// Host seconds on the steady clock.
[[nodiscard]] double now_s();

/// Allocator that bypasses the counted operator new, so the recorder's own
/// growth never lands in a span's allocation count.
template <class T>
struct RawAllocator {
  using value_type = T;
  RawAllocator() = default;
  template <class U>
  RawAllocator(const RawAllocator<U>&) {}  // NOLINT
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  friend bool operator==(const RawAllocator&, const RawAllocator&) {
    return true;
  }
};

struct Span {
  const char* name = nullptr;
  std::uint32_t world = 0;
  std::int32_t parent = -1;  // enclosing span's index; -1 for a root
  double start = 0.0;
  double end = 0.0;
  AllocTally allocs;  // made between start and end, children included
};

using SpanLog = std::vector<Span, RawAllocator<Span>>;

/// Records one span per scope while enabled; a disabled recorder costs one
/// branch per scope.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// World id stamped on the spans opened from now on.
  void set_world(std::uint32_t world) { world_ = world; }
  [[nodiscard]] const SpanLog& spans() const { return spans_; }

 private:
  std::int32_t open(const char* name);
  void close(std::int32_t index);

  bool enabled_ = false;
  std::uint32_t world_ = 0;
  std::int32_t open_ = -1;
  SpanLog spans_;
};

}  // namespace wb
