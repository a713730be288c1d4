// Unit tests of the network substrate: wire format, FIFO channels, latency,
// fault injection, node crashes, reliable transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.h"
#include "net/reliable_link.h"
#include "net/wire.h"
#include "sim/simulator.h"

namespace caa::net {
namespace {

TEST(Wire, RoundTripsPrimitives) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.boolean(true);
  w.str("hello");
  w.blob(Bytes{std::byte{1}, std::byte{2}});

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xBEEF);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_EQ(r.boolean().value(), true);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.blob().value().size(), 2u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, TruncatedReadsFailGracefully) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_TRUE(r.u16().is_ok());
  EXPECT_TRUE(r.u16().is_ok());
  EXPECT_FALSE(r.u8().is_ok());  // exhausted
}

TEST(Wire, BadStringLengthRejected) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  WireReader r(w.bytes());
  EXPECT_FALSE(r.str().is_ok());
}

TEST(Wire, BadBoolRejected) {
  WireWriter w;
  w.u8(7);
  WireReader r(w.bytes());
  EXPECT_FALSE(r.boolean().is_ok());
}

struct NetFixture {
  sim::Simulator sim;
  Network net{sim, 99};
  NodeId n0, n1;
  std::vector<Packet> received0, received1;

  NetFixture() {
    n0 = NodeId(0);
    n1 = NodeId(1);
    net.add_node(n0);
    net.add_node(n1);
    net.set_endpoint(n0, [this](Packet&& p) { received0.push_back(std::move(p)); });
    net.set_endpoint(n1, [this](Packet&& p) { received1.push_back(std::move(p)); });
  }

  Packet make(NodeId from, NodeId to, std::uint8_t tag = 0) {
    Packet p;
    p.src = Address{from, ObjectId(0)};
    p.dst = Address{to, ObjectId(1)};
    p.kind = MsgKind::kAppData;
    p.payload = Bytes{std::byte{tag}};
    return p;
  }
};

TEST(Network, DeliversWithLatency) {
  NetFixture f;
  f.net.set_default_link(LinkParams::ideal());  // base 100, no jitter
  f.net.send(f.make(f.n0, f.n1));
  f.sim.run_to_quiescence();
  ASSERT_EQ(f.received1.size(), 1u);
  EXPECT_EQ(f.sim.now(), 100 + 0);  // base latency only
}

TEST(Network, FifoPerChannelEvenWithJitter) {
  NetFixture f;
  LinkParams jittery;
  jittery.latency_base = 50;
  jittery.latency_jitter = 500;  // huge jitter to provoke reordering
  f.net.set_default_link(jittery);
  for (std::uint8_t i = 0; i < 50; ++i) {
    f.net.send(f.make(f.n0, f.n1, i));
  }
  f.sim.run_to_quiescence();
  ASSERT_EQ(f.received1.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) {
    EXPECT_EQ(f.received1[i].payload[0], std::byte{i});  // FIFO preserved
  }
}

TEST(Network, DropProbabilityDropsEverythingAtOne) {
  NetFixture f;
  f.net.set_default_link(LinkParams::lossy(1.0));
  for (int i = 0; i < 10; ++i) f.net.send(f.make(f.n0, f.n1));
  f.sim.run_to_quiescence();
  EXPECT_TRUE(f.received1.empty());
  EXPECT_EQ(f.sim.obs().metrics().value("net.dropped.AppData"), 10);
}

TEST(Network, CrashedNodeNeitherSendsNorReceives) {
  NetFixture f;
  f.net.set_node_up(f.n1, false);
  f.net.send(f.make(f.n0, f.n1));
  f.net.send(f.make(f.n1, f.n0));
  f.sim.run_to_quiescence();
  EXPECT_TRUE(f.received0.empty());
  EXPECT_TRUE(f.received1.empty());
  // Restart: traffic flows again.
  f.net.set_node_up(f.n1, true);
  f.net.send(f.make(f.n0, f.n1));
  f.sim.run_to_quiescence();
  EXPECT_EQ(f.received1.size(), 1u);
}

TEST(Network, PartitionCutsBothDirections) {
  NetFixture f;
  f.net.set_partitioned(f.n0, f.n1, true);
  f.net.send(f.make(f.n0, f.n1));
  f.net.send(f.make(f.n1, f.n0));
  f.sim.run_to_quiescence();
  EXPECT_TRUE(f.received0.empty());
  EXPECT_TRUE(f.received1.empty());
  f.net.set_partitioned(f.n0, f.n1, false);
  f.net.send(f.make(f.n0, f.n1));
  f.sim.run_to_quiescence();
  EXPECT_EQ(f.received1.size(), 1u);
}

TEST(Network, CountsPerKind) {
  NetFixture f;
  Packet p = f.make(f.n0, f.n1);
  p.kind = MsgKind::kException;
  f.net.send(std::move(p));
  f.sim.run_to_quiescence();
  EXPECT_EQ(f.sim.obs().metrics().value("net.sent.Exception"), 1);
  EXPECT_EQ(f.sim.obs().metrics().value("net.delivered.Exception"), 1);
}

// Every packet that lands, in landing order: who sent it, to whom, its tag
// and the virtual time it landed.
struct Landing {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  int tag = 0;
  sim::Time at = 0;
  friend bool operator==(const Landing&, const Landing&) = default;
};

struct LoggedNet {
  sim::Simulator sim;
  Network net{sim, 7};
  std::vector<Landing> log;

  LoggedNet(const std::vector<std::uint32_t>& ids, LinkParams link) {
    net.set_default_link(link);
    for (const std::uint32_t id : ids) {
      net.add_node(NodeId(id));
      net.set_endpoint(NodeId(id), [this, id](Packet&& p) {
        log.push_back(Landing{p.src.node.value(), id,
                              static_cast<int>(p.payload[0]), sim.now()});
      });
    }
  }

  void send(std::uint32_t from, std::uint32_t to, std::uint8_t tag) {
    Packet p;
    p.src = Address{NodeId(from), ObjectId(0)};
    p.dst = Address{NodeId(to), ObjectId(1)};
    p.kind = MsgKind::kAppData;
    p.payload = Bytes{std::byte{tag}};
    net.send(std::move(p));
  }

  [[nodiscard]] std::vector<Landing> on(std::uint32_t from,
                                        std::uint32_t to) const {
    std::vector<Landing> out;
    for (const Landing& l : log) {
      if (l.src == from && l.dst == to) out.push_back(l);
    }
    return out;
  }
};

LinkParams jittery() {
  LinkParams link;
  link.latency_base = 50;
  link.latency_jitter = 500;
  link.duplicate_probability = 0.2;
  return link;
}

TEST(Network, ChannelsDoNotDependOnFirstUseOrder) {
  const std::vector<std::uint32_t> ids{0, 1, 2, 3};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs{
      {0, 1}, {1, 0}, {0, 2}, {2, 3}, {3, 0}, {1, 3}};
  LoggedNet forward(ids, jittery());
  LoggedNet backward(ids, jittery());
  // The backward network meets three pairs first through setters whose
  // values leave them as they were.
  backward.net.set_link(NodeId(1), NodeId(3), jittery());
  backward.net.set_drop_window(NodeId(2), NodeId(3), 1'000'000, 0);
  backward.net.set_latency_window(NodeId(0), NodeId(1), 1'000'000, 0);
  for (std::uint8_t round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [fs, fd] = pairs[i];
      forward.send(fs, fd, round);
      const auto [bs, bd] = pairs[pairs.size() - 1 - i];
      backward.send(bs, bd, round);
    }
  }
  forward.sim.run_to_quiescence();
  backward.sim.run_to_quiescence();
  for (const auto& [src, dst] : pairs) {
    const std::vector<Landing> landed = forward.on(src, dst);
    EXPECT_GE(landed.size(), 8u);
    EXPECT_EQ(landed, backward.on(src, dst)) << src << "->" << dst;
  }
}

TEST(Network, FifoHoldsWhileTheRowGrows) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < 32; ++id) ids.push_back(id);
  LoggedNet f(ids, jittery());
  // Node 0 reaches 31 destinations, enough to regrow its row 8 -> 16 ->
  // 32 -> 64, while one pair carries a packet between every new one.
  for (std::uint8_t i = 0; i < 30; ++i) {
    f.send(0, 1, i);
    f.send(0, 2 + i, i);
  }
  f.sim.run_to_quiescence();
  std::vector<int> order;
  for (const Landing& l : f.on(0, 1)) {
    if (order.empty() || order.back() != l.tag) order.push_back(l.tag);
  }
  ASSERT_EQ(order.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(order[i], i);
  for (std::uint32_t dst = 2; dst < 32; ++dst) {
    EXPECT_FALSE(f.on(0, dst).empty()) << dst;
  }
}

TEST(Network, CollidingDestinationsKeepTheirOwnStreams) {
  // 0, 16, 32, 48 and the sparse 1000 all map to slot 0 of the source's
  // eight-slot row; each must still run its own per-pair RNG stream.
  const std::vector<std::uint32_t> dsts{0, 16, 32, 48, 1000};
  std::vector<std::uint32_t> ids{5};
  ids.insert(ids.end(), dsts.begin(), dsts.end());
  LoggedNet shared(ids, jittery());
  for (std::uint8_t round = 0; round < 6; ++round) {
    for (const std::uint32_t dst : dsts) shared.send(5, dst, round);
  }
  shared.sim.run_to_quiescence();
  for (const std::uint32_t dst : dsts) {
    LoggedNet alone(ids, jittery());
    for (std::uint8_t round = 0; round < 6; ++round) alone.send(5, dst, round);
    alone.sim.run_to_quiescence();
    EXPECT_EQ(shared.on(5, dst), alone.on(5, dst)) << dst;
  }
  // Distinct streams: two colliding pairs do not land at the same times.
  const auto times = [](const std::vector<Landing>& landed) {
    std::vector<sim::Time> out;
    for (const Landing& l : landed) out.push_back(l.at);
    return out;
  };
  EXPECT_NE(times(shared.on(5, 0)), times(shared.on(5, 16)));
}

TEST(NetworkDeathTest, DefaultLinkAfterAChannelExistsIsRejected) {
  NetFixture f;
  f.net.send(f.make(f.n0, f.n1));
  EXPECT_DEATH(f.net.set_default_link(LinkParams::ideal()),
               "channels exist");
}

TEST(ReliableTransport, DeliversInOrderOverLossyLink) {
  sim::Simulator simulator;
  Network net(simulator, 4242);
  const NodeId a(0), b(1);
  net.add_node(a);
  net.add_node(b);
  net.set_default_link(LinkParams::lossy(0.4));
  ReliableTransport ta(net, a), tb(net, b);
  std::vector<std::uint8_t> got;
  tb.set_handler([&](Packet&& p) {
    got.push_back(static_cast<std::uint8_t>(p.payload[0]));
  });
  ta.set_handler([](Packet&&) {});
  for (std::uint8_t i = 0; i < 30; ++i) {
    Packet p;
    p.src = Address{a, ObjectId(0)};
    p.dst = Address{b, ObjectId(1)};
    p.kind = MsgKind::kAppData;
    p.payload = Bytes{std::byte{i}};
    ta.send(std::move(p));
  }
  simulator.run_to_quiescence();
  ASSERT_EQ(got.size(), 30u);
  for (std::uint8_t i = 0; i < 30; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(simulator.obs().metrics().value("net.reliable.retransmit"), 0);
}

TEST(ReliableTransport, SuppressesDuplicates) {
  sim::Simulator simulator;
  Network net(simulator, 7);
  const NodeId a(0), b(1);
  net.add_node(a);
  net.add_node(b);
  LinkParams dupey = LinkParams::ideal();
  dupey.duplicate_probability = 0.5;
  net.set_default_link(dupey);
  ReliableTransport ta(net, a), tb(net, b);
  int delivered = 0;
  tb.set_handler([&](Packet&&) { ++delivered; });
  ta.set_handler([](Packet&&) {});
  for (int i = 0; i < 40; ++i) {
    Packet p;
    p.src = Address{a, ObjectId(0)};
    p.dst = Address{b, ObjectId(1)};
    p.kind = MsgKind::kAppData;
    ta.send(std::move(p));
  }
  simulator.run_to_quiescence();
  EXPECT_EQ(delivered, 40);  // exactly once despite duplicates
}

TEST(MessageKinds, Classification) {
  EXPECT_TRUE(is_resolution_kind(MsgKind::kException));
  EXPECT_TRUE(is_resolution_kind(MsgKind::kCommit));
  EXPECT_FALSE(is_resolution_kind(MsgKind::kActionDone));
  EXPECT_FALSE(is_resolution_kind(MsgKind::kCrRaise));
  EXPECT_EQ(kind_name(MsgKind::kHaveNested), "HaveNested");
  const std::vector<MsgKind>& kinds = all_kinds();
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), MsgKind::kRelay),
            kinds.end());
  EXPECT_EQ(std::find(kinds.begin(), kinds.end(), MsgKind::kInvalid),
            kinds.end());
  for (const MsgKind kind : kinds) EXPECT_NE(kind_name(kind), "Unknown");
}

}  // namespace
}  // namespace caa::net
