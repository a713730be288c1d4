// The benchmark's workloads: fixed input sets generated from a seed, and
// the code that builds, runs, checks and destroys one world per input
// through the library's public API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "probe.h"

namespace wb {

/// One world's outcome.
struct WorldRecord {
  bool ok = true;
  std::string error;
  std::uint64_t world_checksum = 0;
  std::uint64_t resolved_checksum = 0;  // 0 where the world is not visible
  std::int64_t members = 0;
  std::int64_t events = 0;
  /// Virtual ticks from the first raise to the last handler start; -1 when
  /// the world resolved nothing.
  std::int64_t resolve_ticks = -1;
  double setup_s = 0.0;  // host s building the world (chaos: the plan)
  double run_s = 0.0;    // host s inside World::run (chaos: the trial)

  // Filled only on a verifying run:
  caa::obs::MetricsSnapshot counters;
  std::map<std::string, std::int64_t, std::less<>> peaks;  // gauge peaks
  std::int64_t rounds = 0;  // distinct resolved (instance, round) pairs
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs in one pass; input i always builds the same world.
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// FNV-1a over a canonical text of every generated input.
  [[nodiscard]] virtual std::uint64_t inputs_digest() const = 0;
  /// Builds, runs, checks and destroys the world of input `index`, with one
  /// span per call into the library. `verify` also reads the counters and
  /// gauge peaks the per-layer report needs.
  virtual WorldRecord run(std::size_t index, Tracer& tracer, bool verify) = 0;
};

[[nodiscard]] const std::vector<std::string_view>& workload_names();
/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace wb
