#include "workloads.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "caa/world.h"
#include "fault/chaos.h"
#include "obs/health.h"
#include "run/campaign.h"
#include "scenario/scenarios.h"

namespace wb {
namespace {

using caa::ExceptionId;
using caa::ObjectId;
using caa::World;
using caa::action::EnterConfig;
using caa::action::Participant;
using Mode = caa::overlay::OverlayParams::Mode;

/// The benchmark's own input generator (SplitMix64), so a change to the
/// library's RNG cannot silently change a workload.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); the modulo bias is negligible for these bounds.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

class Digest {
 public:
  Digest& add(std::string_view text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return add_separator();
  }
  Digest& add(std::uint64_t value) { return add(std::to_string(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  Digest& add_separator() {
    hash_ = (hash_ ^ 0x1fU) * 0x100000001b3ULL;
    return *this;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The link profile every world uses: LAN latency, 100 ticks base plus
/// uniform 0-20 jitter.
constexpr caa::sim::Time kRaiseWindow = 100;  // = LinkParams::lan() base
constexpr caa::sim::Time kTelemetryWindow = 500;

constexpr caa::obs::Gauge kPeakGauges[] = {
    caa::obs::Gauge::kSimQueueDepth,
    caa::obs::Gauge::kNetInFlight,
    caa::obs::Gauge::kCaaOpenScopes,
    caa::obs::Gauge::kResolveOutstandingAcks,
    caa::obs::Gauge::kOverlayOutboxBacklog,
    caa::obs::Gauge::kExitBarrierOpen,
};

// ---------------------------------------------------------------------------
// Scenario worlds: one outer action over ex::shapes::star(leaves), members
// 1..N-1 optionally inside a chain of `depth` nested actions, scheduled
// raises, barrier exit.

struct Shape {
  std::uint32_t members;
  std::uint32_t leaves;
  std::uint32_t depth;
  Mode mode;
  std::size_t worlds;  // inputs per pass
};

struct Raise {
  std::uint32_t object;
  std::uint32_t leaf;  // 1-based: leaf k is "s<k>"
  caa::sim::Time at;
};

struct ScenarioInput {
  std::uint64_t seed;
  std::vector<Raise> raises;
};

class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(std::string_view name, Shape shape,
                   std::vector<ScenarioInput> inputs)
      : shape_(shape), inputs_(std::move(inputs)) {
    Digest d;
    d.add(name).add(shape.members).add(shape.leaves).add(shape.depth);
    d.add(static_cast<std::uint64_t>(shape.mode));
    for (const ScenarioInput& in : inputs_) {
      d.add(in.seed);
      for (const Raise& r : in.raises) {
        d.add(r.object).add(r.leaf).add(static_cast<std::uint64_t>(r.at));
      }
    }
    digest_ = d.value();
  }

  [[nodiscard]] std::size_t size() const override { return inputs_.size(); }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return digest_;
  }

  WorldRecord run(std::size_t index, Tracer& tracer, bool verify) override {
    const ScenarioInput& in = inputs_[index];
    const std::uint32_t n = shape_.members;
    WorldRecord rec;
    rec.members = n;
    const double t0 = now_s();

    caa::WorldConfig config;
    config.link = caa::net::LinkParams::lan();
    config.seed = in.seed;
    config.overlay.mode = shape_.mode;
    config.overlay.fanout = 8;
    // Traced worlds arm telemetry, which is checksum-neutral, because the
    // queue-depth gauge and the per-window gauge peaks need it.
    if (tracer.enabled()) config.telemetry.window = kTelemetryWindow;
    std::unique_ptr<World> world;
    {
      auto s = tracer.scope("construct");
      world = std::make_unique<World>(config);
    }
    std::vector<Participant*> objects;
    std::vector<ObjectId> ids;
    objects.reserve(n);
    ids.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::string name = "O" + std::to_string(i + 1);
      auto s = tracer.scope("add_participant");
      objects.push_back(&world->add_participant(name));
      ids.push_back(objects.back()->id());
    }
    const caa::action::ActionDecl* outer_decl = nullptr;
    {
      auto s = tracer.scope("declare");
      outer_decl =
          &world->actions().declare("A0", caa::ex::shapes::star(shape_.leaves));
    }
    const caa::action::InstanceInfo* outer = nullptr;
    {
      auto s = tracer.scope("create_instance");
      outer = &world->actions().create_instance(*outer_decl, ids);
    }
    std::size_t refused = 0;
    for (Participant* o : objects) {
      auto s = tracer.scope("enter");
      refused += !o->enter(outer->instance,
                           EnterConfig::with(caa::action::uniform_handlers(
                               outer_decl->tree(),
                               caa::ex::HandlerResult::recovered())));
    }
    const caa::action::InstanceInfo* parent = outer;
    const std::vector<ObjectId> inner_ids(ids.begin() + 1, ids.end());
    for (std::uint32_t level = 1; level <= shape_.depth; ++level) {
      const std::string name = "A" + std::to_string(level);
      const caa::action::ActionDecl* decl = nullptr;
      {
        auto s = tracer.scope("declare");
        decl = &world->actions().declare(name, caa::ex::shapes::star(1));
      }
      {
        auto s = tracer.scope("create_instance");
        parent = &world->actions().create_instance(*decl, inner_ids,
                                                   parent->instance);
      }
      for (std::uint32_t i = 1; i < n; ++i) {
        auto s = tracer.scope("enter");
        refused += !objects[i]->enter(
            parent->instance,
            EnterConfig::with(caa::action::uniform_handlers(
                decl->tree(), caa::ex::HandlerResult::recovered())));
      }
    }
    caa::sim::Time first_raise = std::numeric_limits<caa::sim::Time>::max();
    std::set<std::uint32_t> leaves;
    {
      auto s = tracer.scope("schedule");
      for (const Raise& r : in.raises) {
        Participant* p = objects[r.object];
        const ExceptionId leaf =
            outer_decl->tree().find("s" + std::to_string(r.leaf));
        world->at(r.at, [p, leaf] { p->raise(leaf); });
        first_raise = std::min(first_raise, r.at);
        leaves.insert(r.leaf);
      }
    }
    rec.setup_s = now_s() - t0;

    const double r0 = now_s();
    {
      auto s = tracer.scope("run");
      rec.events = static_cast<std::int64_t>(world->run());
    }
    rec.run_s = now_s() - r0;

    {
      auto s = tracer.scope("check");
      // The cover of the raised leaves in a star: the leaf itself when one
      // was raised, the root otherwise.
      const caa::ex::ExceptionTree& tree = outer_decl->tree();
      const ExceptionId expected =
          leaves.size() == 1 ? tree.find("s" + std::to_string(*leaves.begin()))
                             : tree.root();
      const caa::scenario::RunStats stats =
          caa::scenario::collect_stats(*world, objects, first_raise);
      rec.resolve_ticks = stats.resolution_latency;
      rec.world_checksum = caa::scenario::world_checksum(*world, rec.events);
      rec.resolved_checksum = caa::scenario::resolved_checksum(objects);
      if (refused != 0) {
        fail(rec, std::to_string(refused) + " enter calls refused");
      } else if (!stats.all_handled) {
        fail(rec, "a participant ran no handler");
      } else if (!world->failures().empty()) {
        fail(rec, "an action signalled failure");
      } else {
        for (std::uint32_t i = 0; i < n; ++i) {
          const caa::action::HandledRecord& h = objects[i]->handled().back();
          if (h.instance != outer->instance || h.resolved != expected) {
            fail(rec, "O" + std::to_string(i + 1) + " resolved " +
                          tree.name_of(h.resolved) + ", expected " +
                          tree.name_of(expected));
            break;
          }
        }
      }
      if (verify) {
        rec.counters = world->metrics().snapshot();
        if (tracer.enabled()) {
          const caa::obs::TimeSeriesTable table = world->timeseries_table();
          for (const caa::obs::Gauge g : kPeakGauges) {
            const std::string_view name = caa::obs::gauge_name(g);
            rec.peaks[std::string(name)] = table.peak_of(name);
          }
        }
        std::set<std::pair<std::uint64_t, std::uint32_t>> rounds;
        for (const Participant* o : objects) {
          for (const caa::action::HandledRecord& h : o->handled()) {
            rounds.emplace(h.instance.value(), h.round);
          }
        }
        rec.rounds = static_cast<std::int64_t>(rounds.size());
      }
    }
    {
      auto s = tracer.scope("destroy");
      world.reset();
    }
    return rec;
  }

 private:
  static void fail(WorldRecord& rec, std::string why) {
    rec.ok = false;
    rec.error = std::move(why);
  }

  Shape shape_;
  std::vector<ScenarioInput> inputs_;
  std::uint64_t digest_ = 0;
};

/// A raise time in [1000, 1000 + window).
caa::sim::Time raise_time(Draw& d, caa::sim::Time window) {
  return 1000 + static_cast<caa::sim::Time>(
                    d.below(static_cast<std::uint64_t>(window)));
}

/// One input per world: its link seed, then the raises `draw_raises` draws.
template <class DrawRaises>
std::vector<ScenarioInput> make_inputs(std::uint64_t seed, std::size_t worlds,
                                       DrawRaises&& draw_raises) {
  Draw draw(seed);
  std::vector<ScenarioInput> inputs(worlds);
  for (ScenarioInput& in : inputs) {
    in.seed = draw.next();
    in.raises = draw_raises(draw);
  }
  return inputs;
}

std::unique_ptr<Workload> nested_abort(std::uint64_t seed) {
  const Shape shape{.members = 384, .leaves = 1, .depth = 3,
                    .mode = Mode::kFlat, .worlds = 4};
  return std::make_unique<ScenarioWorkload>(
      "nested_abort", shape, make_inputs(seed, shape.worlds, [](Draw& d) {
        return std::vector<Raise>{{0, 1, raise_time(d, 1000)}};
      }));
}

std::unique_ptr<Workload> tree_wide(std::uint64_t seed) {
  const Shape shape{.members = 4096, .leaves = 4096, .depth = 0,
                    .mode = Mode::kTree, .worlds = 4};
  return std::make_unique<ScenarioWorkload>(
      "tree_wide", shape, make_inputs(seed, shape.worlds, [&](Draw& d) {
        const auto a = static_cast<std::uint32_t>(d.below(shape.members));
        auto b = static_cast<std::uint32_t>(d.below(shape.members - 1));
        if (b >= a) ++b;  // two distinct raisers
        std::vector<Raise> raises;
        for (const std::uint32_t o : {a, b}) {
          raises.push_back({o, o + 1, raise_time(d, kRaiseWindow)});
        }
        return raises;
      }));
}

std::unique_ptr<Workload> tree_allraise(std::uint64_t seed) {
  const Shape shape{.members = 256, .leaves = 256, .depth = 0,
                    .mode = Mode::kTree, .worlds = 4};
  return std::make_unique<ScenarioWorkload>(
      "tree_allraise", shape, make_inputs(seed, shape.worlds, [&](Draw& d) {
        std::vector<Raise> raises;
        for (std::uint32_t o = 0; o < shape.members; ++o) {
          raises.push_back({o, o + 1, raise_time(d, kRaiseWindow)});
        }
        return raises;
      }));
}

// ---------------------------------------------------------------------------
// Chaos trials: the library builds, runs, checks and destroys each trial
// world inside run_chaos_trial; the benchmark sees its plan and its result.

class ChaosWorkload final : public Workload {
 public:
  ChaosWorkload(std::uint64_t seed, std::size_t trials) {
    options_.mix = caa::fault::FaultMix::kMixed;
    options_.min_participants = 3;
    options_.max_participants = 6;
    options_.committee = 2;
    options_.exit = caa::exit::ExitKind::kBarrier;
    options_.avoid = true;
    options_.shrink = false;
    Digest d;
    d.add("chaos_mixed");
    for (std::size_t i = 0; i < trials; ++i) {
      const std::uint64_t trial_seed = caa::run::derive_seed(seed, i);
      trial_seeds_.push_back(trial_seed);
      d.add(trial_seed);
      d.add(caa::fault::chaos_plan(trial_seed, options_).to_text());
    }
    digest_ = d.value();
  }

  [[nodiscard]] std::size_t size() const override {
    return trial_seeds_.size();
  }
  [[nodiscard]] std::uint64_t inputs_digest() const override {
    return digest_;
  }

  WorldRecord run(std::size_t index, Tracer& tracer, bool verify) override {
    const std::uint64_t trial_seed = trial_seeds_[index];
    WorldRecord rec;
    const double t0 = now_s();
    caa::fault::FaultPlan plan;
    {
      auto s = tracer.scope("chaos_plan");
      plan = caa::fault::chaos_plan(trial_seed, options_);
    }
    rec.setup_s = now_s() - t0;
    caa::run::WorldResult result;
    const double r0 = now_s();
    {
      auto s = tracer.scope("run_chaos_trial");
      result = caa::fault::run_chaos_trial(trial_seed, plan, options_, index);
    }
    rec.run_s = now_s() - r0;
    {
      auto s = tracer.scope("check");
      rec.ok = result.ok;
      rec.error = result.error;
      rec.members = caa::fault::trial_participants(trial_seed, options_);
      rec.events = result.events;
      rec.world_checksum = result.checksum;
      // The trial world is internal, so its resolution latency comes from
      // the exact max of its raiser-side latency samples, never from the
      // histogram's bucket quantiles.
      const auto& hists = result.metrics.histograms;
      if (auto it = hists.find("resolve.latency");
          it != hists.end() && it->second.count > 0) {
        rec.resolve_ticks = it->second.max;
      }
      if (verify) rec.counters = std::move(result.metrics);
    }
    return rec;
  }

 private:
  caa::fault::ChaosOptions options_;
  std::vector<std::uint64_t> trial_seeds_;
  std::uint64_t digest_ = 0;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      "nested_abort", "tree_wide", "tree_allraise", "chaos_mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "nested_abort") return nested_abort(seed);
  if (name == "tree_wide") return tree_wide(seed);
  if (name == "tree_allraise") return tree_allraise(seed);
  if (name == "chaos_mixed") return std::make_unique<ChaosWorkload>(seed, 2000);
  return nullptr;
}

}  // namespace wb
