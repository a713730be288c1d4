// Observability tests: golden Chrome trace for §4.3 Example 1, byte
// stability across identical runs, trace-JSON well-formedness, per-track
// span nesting, and zero counter drift between observe-on and observe-off
// runs of the same scenario.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "caa/world.h"
#include "scenario/scenarios.h"

#ifndef CAA_TEST_DATA_DIR
#error "CAA_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace caa {
namespace {

/// §4.3 Example 1 via the shared scenario library (the golden trace pins
/// that the library stages it exactly as this test always did): O1 and O2
/// raise sibling exceptions concurrently at t=1000; O2 resolves.
std::unique_ptr<scenario::Example1Scenario> run_example1(bool observe) {
  scenario::Example1Options options;
  options.world.observe = observe;
  auto s = std::make_unique<scenario::Example1Scenario>(options);
  s->run();
  return s;
}

// ---------------------------------------------------------------------------
// A minimal JSON parser, just enough to prove the exported trace is a
// well-formed document (chrome://tracing rejects anything less).

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

/// Byte-exact comparison against tests/golden/<name>: the exporter promises
/// determinism, and any accidental wall-clock or pointer leak into the trace
/// breaks this immediately. CAA_UPDATE_GOLDEN=1 rewrites the file instead.
void expect_golden(const std::string& trace, const std::string& name) {
  const std::string golden_path =
      std::string(CAA_TEST_DATA_DIR) + "/golden/" + name;
  if (std::getenv("CAA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << trace;
    out.close();
    GTEST_SKIP() << "golden rewritten: " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " — run once with CAA_UPDATE_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(trace, buf.str());
}

TEST(ChromeTrace, GoldenExample1) {
  const auto w = run_example1(/*observe=*/true);
  expect_golden(w->world().chrome_trace(), "example1_chrome_trace.json");
}

TEST(ChromeTrace, GoldenFigure4) {
  // §4.3 Example 2: the outer resolution aborts A3 then A2 innermost-first
  // (A2's abortion handler signals), supersedes the nested rounds it cuts
  // short, and refuses the belated participant.
  scenario::Figure4Options options;
  options.world.observe = true;
  scenario::Figure4Scenario fig4(options);
  fig4.run();
  expect_golden(fig4.world().chrome_trace(), "figure4_chrome_trace.json");
}

TEST(ChromeTrace, ByteStableAcrossIdenticalWorlds) {
  const auto w1 = run_example1(true);
  const auto w2 = run_example1(true);
  EXPECT_EQ(w1->world().chrome_trace(), w2->world().chrome_trace());
  EXPECT_FALSE(w1->world().spans().spans.empty());
}

TEST(ChromeTrace, ExportIsWellFormedJson) {
  const auto w = run_example1(true);
  const std::string trace = w->world().chrome_trace();
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace;

  // And with every record category present: run Figure 4 too (aborts,
  // nested rounds, barrier supersession).
  scenario::Figure4Options options;
  options.world.observe = true;
  scenario::Figure4Scenario fig4(options);
  fig4.run();
  const std::string trace4 = fig4.world().chrome_trace();
  EXPECT_TRUE(JsonChecker(trace4).valid()) << trace4;
}

TEST(ChromeTrace, SyncSpansNestPerTrack) {
  scenario::Figure4Options options;
  options.world.observe = true;
  scenario::Figure4Scenario fig4(options);
  fig4.run();
  const obs::SpanLog log = fig4.world().spans();
  ASSERT_FALSE(log.spans.empty());

  const sim::Time horizon = log.horizon;
  std::map<std::uint32_t, std::vector<const obs::Span*>> stacks;
  sim::Time previous_begin = 0;
  for (const obs::Span& span : log.spans) {
    const sim::Time end = span.end >= 0 ? span.end : horizon;
    EXPECT_GE(span.begin, 0);
    EXPECT_GE(end, span.begin) << span.name;
    // Creation order must follow the virtual clock.
    EXPECT_GE(span.begin, previous_begin) << span.name;
    previous_begin = span.begin;
    if (span.async) continue;  // b/e pairs are exempt from stack nesting
    auto& stack = stacks[span.track];
    while (!stack.empty()) {
      const obs::Span* top = stack.back();
      const sim::Time top_end = top->end >= 0 ? top->end : horizon;
      if (top_end > span.begin) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const obs::Span* top = stack.back();
      const sim::Time top_end = top->end >= 0 ? top->end : horizon;
      EXPECT_LE(end, top_end)
          << span.name << " escapes enclosing span " << top->name;
    }
    stack.push_back(&span);
  }
}

TEST(ChromeTrace, ResolutionSupersedesAcceptanceLineWait) {
  // O1 completes and waits at the acceptance line; O2 then raises. The
  // resolution takes O1's wait over: its barrier ends "superseded" when
  // the handler starts, and a second barrier opens when the handler
  // completes the action anew.
  WorldConfig config;
  config.observe = true;
  World w(config);
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  ex::ExceptionTree tree;
  tree.declare("E");
  const auto& decl = w.actions().declare("A", std::move(tree));
  const auto& a = w.actions().create_instance(decl, {o1.id(), o2.id()});
  for (action::Participant* p : {&o1, &o2}) {
    ASSERT_TRUE(p->enter(a.instance,
                         action::EnterConfig::with(action::uniform_handlers(
                             decl.tree(), ex::HandlerResult::recovered(50)))));
  }
  w.at(500, [&] { o1.complete(); });
  w.at(1000, [&] { o2.raise("E"); });
  w.run();
  ASSERT_FALSE(o1.in_action());

  const obs::SpanLog log = w.spans();
  ASSERT_EQ(log.tracks, (std::vector<std::string>{"O1", "O2"}));
  std::vector<const obs::Span*> o1_barriers;
  const obs::Span* o1_handler = nullptr;
  for (const obs::Span& span : log.spans) {
    if (span.track != o1.id().value()) continue;
    if (span.category == "barrier") o1_barriers.push_back(&span);
    if (span.category == "handler") o1_handler = &span;
  }
  ASSERT_EQ(o1_barriers.size(), 2u);
  ASSERT_NE(o1_handler, nullptr);
  EXPECT_EQ(o1_handler->name, "handle E");
  EXPECT_EQ(o1_barriers[0]->name, "barrier r0");
  EXPECT_EQ(o1_barriers[0]->begin, 500);
  EXPECT_EQ(o1_barriers[0]->args, "superseded");
  EXPECT_EQ(o1_barriers[0]->end, o1_handler->begin);
  EXPECT_EQ(o1_barriers[1]->name, "barrier r1");
  EXPECT_EQ(o1_barriers[1]->begin, o1_handler->end);
  EXPECT_EQ(o1_handler->end - o1_handler->begin, 50);
  EXPECT_TRUE(o1_barriers[1]->args.empty());
  EXPECT_LE(o1_barriers[1]->end, log.horizon);
}

TEST(Observability, DisabledRecordsNoSpansOrRounds) {
  const auto w = run_example1(/*observe=*/false);
  EXPECT_TRUE(w->world().spans().spans.empty());
  EXPECT_TRUE(w->world().spans().instants.empty());
  EXPECT_TRUE(w->world().metrics().observed_actions().empty());
  // The §4.4 headline number still works: counters are unconditional.
  EXPECT_EQ(w->world().metrics().resolution_messages(), 10);
}

TEST(Observability, ZeroCounterDriftExample1) {
  const auto on = run_example1(true);
  const auto off = run_example1(false);
  EXPECT_EQ(on->world().metrics().counters().to_string(),
            off->world().metrics().counters().to_string());
  EXPECT_EQ(on->world().simulator().now(), off->world().simulator().now());
  EXPECT_FALSE(on->world().spans().spans.empty());
}

TEST(Observability, ZeroCounterDriftFigure4) {
  // The richest built-in scenario: nested rounds, innermost-first aborts,
  // a belated participant and a superseded resolution.
  auto run = [](bool observe) {
    scenario::Figure4Options options;
    options.world.observe = observe;
    scenario::Figure4Scenario s(options);
    s.run();
    return s.world().metrics().counters().to_string();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Observability, SnapshotDiffTracksNewTraffic) {
  const auto w = run_example1(true);
  const obs::MetricsSnapshot before;  // empty baseline
  const obs::MetricsSnapshot after = w->world().metrics().snapshot();
  const obs::MetricsSnapshot diff = after.diff(before);
  EXPECT_EQ(diff.to_string(), after.to_string());
  EXPECT_TRUE(after.diff(after).counters.empty());
}

}  // namespace
}  // namespace caa
