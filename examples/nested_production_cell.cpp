// The paper's §4.3 Example 2 / Figure 4, dressed as a production cell.
//
// Four devices cooperate in a manufacturing CA action A1 (cell control).
// A robot, a press and a belt additionally run a nested action A2
// (workpiece hand-off), inside which the robot and the press run A3
// (grip alignment). The press is *belated* for A3.
//
// Two faults hit at once: the supervisor (in A1) detects a safety
// violation (E1) while the robot (in A3) detects a grip slip (E2). The
// outer resolution supersedes the inner one: A3 and A2 are aborted
// innermost-first via abortion handlers — the robot's A2 abortion handler
// signals jam_exception (E3) — and A1 resolves {safety_violation,
// jam_exception} to their covering cell_fault, handled by all four devices.
#include <cstdio>

#include "caa/world.h"

using namespace caa;
using action::EnterConfig;
using action::uniform_handlers;

int main() {
  World world;
  auto& supervisor = world.add_participant("supervisor");
  auto& robot = world.add_participant("robot");
  auto& press = world.add_participant("press");
  auto& belt = world.add_participant("belt");

  // A1: cell control. E1 and E3 live under a common covering fault.
  ex::ExceptionTree t1;
  const ExceptionId cell_fault = t1.declare("cell_fault");
  t1.declare("safety_violation", cell_fault);   // E1
  const ExceptionId jam = t1.declare("jam_exception", cell_fault);  // E3
  const auto& d1 = world.actions().declare("A1_cell_control", std::move(t1));

  ex::ExceptionTree t2;
  t2.declare("handoff_timeout");
  const auto& d2 = world.actions().declare("A2_handoff", std::move(t2));

  ex::ExceptionTree t3;
  t3.declare("grip_slip");  // E2
  const auto& d3 = world.actions().declare("A3_grip_align", std::move(t3));

  const auto& a1 = world.actions().create_instance(
      d1, {supervisor.id(), robot.id(), press.id(), belt.id()});
  const auto& a2 = world.actions().create_instance(
      d2, {robot.id(), press.id(), belt.id()}, a1.instance);
  const auto& a3 =
      world.actions().create_instance(d3, {robot.id(), press.id()},
                                      a2.instance);

  auto a1_config = [&](const char* who) {
    return EnterConfig::with(
               uniform_handlers(d1.tree(), ex::HandlerResult::recovered(400)))
        .on_handler([who, &d1](ExceptionId resolved) {
          std::printf("  %s: A1 handler for '%s'\n", who,
                      d1.tree().name_of(resolved).c_str());
        })
        .build();
  };
  supervisor.enter(a1.instance, a1_config("supervisor"));
  robot.enter(a1.instance, a1_config("robot"));
  press.enter(a1.instance, a1_config("press"));
  belt.enter(a1.instance, a1_config("belt"));

  auto a2_config = [&](const char* who, bool signals_jam) {
    return EnterConfig::with(
               uniform_handlers(d2.tree(), ex::HandlerResult::recovered(100)))
        .abortion([who, signals_jam, jam] {
          std::printf("  %s: aborting A2 hand-off%s\n", who,
                      signals_jam ? " -> signalling jam_exception" : "");
          return signals_jam ? ex::AbortResult::signalling(jam, 150)
                             : ex::AbortResult::none(150);
        })
        .build();
  };
  robot.enter(a2.instance, a2_config("robot", /*signals_jam=*/true));
  press.enter(a2.instance, a2_config("press", false));
  belt.enter(a2.instance, a2_config("belt", false));

  auto a3_config = [&](const char* who) {
    return EnterConfig::with(
               uniform_handlers(d3.tree(), ex::HandlerResult::recovered(100)))
        .abortion([who] {
          std::printf("  %s: aborting A3 grip alignment\n", who);
          return ex::AbortResult::none(100);
        })
        .build();
  };
  robot.enter(a3.instance, a3_config("robot"));
  // The press is belated for A3: it only tries to enter after the faults.

  world.at(1000, [&] {
    std::printf("t=1000: supervisor raises safety_violation in A1;\n"
                "        robot raises grip_slip in A3 — concurrently\n");
    supervisor.raise("safety_violation");
    robot.raise("grip_slip");
  });
  world.at(1150, [&] {
    const bool entered = press.enter(a3.instance, a3_config("press"));
    std::printf("t=1150: press tries to enter A3: %s\n",
                entered ? "entered" : "refused (belated, A3 aborted)");
  });

  world.run();

  std::printf("\nrobot abortion order: ");
  for (const auto& a : robot.aborts()) {
    std::printf("%s ", a.instance == a3.instance ? "A3" : "A2");
  }
  std::printf("(innermost first)\n");
  std::printf("resolution messages: %lld\n",
              static_cast<long long>(world.metrics().resolution_messages()));
  std::printf("everyone clear of all actions: %s\n",
              (!supervisor.in_action() && !robot.in_action() &&
               !press.in_action() && !belt.in_action())
                  ? "yes"
                  : "no");
  return 0;
}
