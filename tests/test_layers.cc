// Seam tests for the layered subsystems behind the Network facade:
// Router's pure peek vs the mutating repair walk, NodeRegistry's
// liveness/index bookkeeping across join, leave and fail, and the two
// drivers (inline and event) of ObjectDirectory's publish/locate steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "tests/test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::small_params;
using test::static_ring_network;

// On a static (fully repaired, all-live) network the non-mutating
// route_step_peek must take exactly the hops the mutating route_step
// takes, for both routing variants, and neither may touch a table.
TEST(RouterSeam, PeekAgreesWithMutatingStepOnStaticNetwork) {
  for (const RoutingMode mode :
       {RoutingMode::kTapestryNative, RoutingMode::kPrrLike}) {
    auto g = static_ring_network(96, 7, small_params(mode));
    Rng rng(99);
    for (int q = 0; q < 64; ++q) {
      const Guid target = make_guid(*g.net, 0x1000 + q);
      const NodeId from = g.ids[rng.next_u64(g.ids.size())];

      RouteState peek_state;
      std::vector<NodeId> peek_path{from};
      NodeId cur = from;
      while (auto next = g.net->route_step_peek(cur, target, peek_state)) {
        peek_path.push_back(*next);
        cur = *next;
      }

      const std::size_t entries_before = g.net->total_table_entries();
      RouteState walk_state;
      std::vector<NodeId> walk_path{from};
      TapestryNode* at = &g.net->node(from);
      for (;;) {
        auto next =
            g.net->router().route_step(*at, target, walk_state, nullptr);
        if (!next.has_value()) break;
        walk_path.push_back(*next);
        at = &g.net->node(*next);
      }

      EXPECT_EQ(peek_path, walk_path) << "mode " << static_cast<int>(mode);
      EXPECT_EQ(g.net->total_table_entries(), entries_before)
          << "route_step mutated tables on an all-live network";
      EXPECT_EQ(g.net->surrogate_root(target), walk_path.back());
    }
  }
}

// The peek must also agree with the repaired walk after failures: run the
// mutating walk first (repairing en route), then check the peek retraces it.
TEST(RouterSeam, PeekMatchesWalkAfterLazyRepair) {
  auto g = grow_ring_network(80, 11);
  Rng rng(5);
  // Fail a handful of nodes, then let a sweep repair the mesh.
  for (int i = 0; i < 8; ++i) {
    const auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  g.net->heartbeat_sweep();
  for (int q = 0; q < 32; ++q) {
    const Guid target = make_guid(*g.net, 0x9000 + q);
    const NodeId from = g.net->node_ids()[0];
    const RouteResult walked = g.net->route_to_root(from, target);
    RouteState peek_state;
    NodeId cur = from;
    while (auto next = g.net->route_step_peek(cur, target, peek_state))
      cur = *next;
    EXPECT_EQ(cur, walked.root);
  }
}

TEST(RegistrySeam, JoinLeaveFailKeepLivenessAndIndexConsistent) {
  auto g = grow_ring_network(48, 21);
  NodeRegistry& reg = g.net->registry();

  const std::size_t initial = reg.live_count();
  ASSERT_EQ(initial, 48u);
  ASSERT_EQ(g.net->size(), initial);

  // Every registered id must resolve through the index to a node carrying
  // that id, and node_ids() must agree with the alive flags.
  auto check_index = [&]() {
    std::size_t alive = 0;
    for (const auto& n : reg.nodes()) {
      const TapestryNode* found = reg.find(n->id());
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found, n.get()) << "index resolves to the wrong node";
      if (n->alive) ++alive;
    }
    EXPECT_EQ(alive, reg.live_count());
    const auto ids = reg.node_ids();
    EXPECT_EQ(ids.size(), reg.live_count());
    for (const NodeId& id : ids) EXPECT_TRUE(reg.is_live(id));
  };
  check_index();

  // Leave: the node stays indexed as a tombstone but drops out of the live
  // view; live() rejects it, checked() still resolves it.
  const NodeId leaver = g.ids[3];
  g.net->leave(leaver);
  EXPECT_FALSE(reg.is_live(leaver));
  EXPECT_FALSE(g.net->contains(leaver));
  EXPECT_EQ(reg.live_count(), initial - 1);
  EXPECT_NO_THROW((void)reg.checked(leaver));
  EXPECT_THROW((void)reg.live(leaver), CheckError);
  check_index();

  // Fail: same bookkeeping, tombstone keeps its table for lazy repair.
  const NodeId victim = g.ids[7];
  const std::size_t victim_links = g.net->node(victim).table().total_entries();
  g.net->fail(victim);
  EXPECT_FALSE(reg.is_live(victim));
  EXPECT_EQ(reg.live_count(), initial - 2);
  EXPECT_EQ(g.net->node(victim).table().total_entries(), victim_links);
  EXPECT_THROW(g.net->fail(victim), CheckError);  // double-fail rejected
  check_index();

  // Join after churn: fresh node is live, indexed, and unique.
  const NodeId joined = g.net->join(50);
  EXPECT_TRUE(reg.is_live(joined));
  EXPECT_EQ(reg.live_count(), initial - 1);
  EXPECT_THROW(reg.register_node(joined, 51), CheckError);  // duplicate id
  check_index();

  // Dead ids never appear in node_ids().
  const auto ids = reg.node_ids();
  EXPECT_EQ(std::find(ids.begin(), ids.end(), leaver), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), victim), ids.end());
}

TEST(RegistrySeam, FreshNodeIdAvoidsTombstones) {
  auto g = grow_ring_network(16, 31);
  NodeRegistry& reg = g.net->registry();
  g.net->fail(g.ids[1]);
  std::unordered_set<std::uint64_t> taken;
  for (const auto& n : reg.nodes()) taken.insert(n->id().value());
  for (int i = 0; i < 256; ++i)
    EXPECT_EQ(taken.count(reg.fresh_node_id().value()), 0u);
}

// The facade and the subsystems must expose the same objects: mutating via
// a subsystem is visible through the facade (no hidden copies).
TEST(FacadeSeam, SubsystemsShareStateWithFacade) {
  auto g = grow_ring_network(32, 17);
  const Guid guid = make_guid(*g.net, 0xfeed);
  g.net->directory().publish(g.ids[0], guid);
  const auto servers = g.net->servers_of(guid);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0], g.ids[0]);
  const LocateResult r = g.net->locate(g.ids[5], guid);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.server, g.ids[0]);
  g.net->directory().unpublish(g.ids[0], guid);
  EXPECT_TRUE(g.net->servers_of(guid).empty());
}

// ---------------------------------------------------------------------
// Directory drivers: inline vs event-driven runs of the same steps
// ---------------------------------------------------------------------

struct DriverConfig {
  const char* name;
  std::size_t cache = 0;       ///< locate_cache_size
  bool secondary = false;      ///< PRR routing + §2.4 secondary search
  unsigned roots = 1;          ///< root_multiplicity, with retry_all_roots
  bool replicated = false;     ///< quorum-replicated store backend
  bool kill_roots = false;     ///< fail every non-server root after publish
  bool kill_mid_run = false;   ///< fail non-servers halfway through queries
};

std::array<std::uint64_t, kWireKindCount> kind_counts(const Network& net) {
  std::array<std::uint64_t, kWireKindCount> out{};
  for (std::size_t k = 0; k < kWireKindCount; ++k)
    out[k] = net.transport().stats().kind_count(static_cast<MessageKind>(k));
  return out;
}

/// Every live node's records, all fields but the soft-state deadline (the
/// event driver stamps each salted path when that path starts).
using RecordKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                             std::uint64_t, unsigned, bool>;
std::vector<RecordKey> store_records(const Network& net) {
  std::vector<RecordKey> out;
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    for (const auto& [guid, rec] : n->store().snapshot())
      out.emplace_back(n->id().value(), guid.value(), rec.server.value(),
                       rec.last_hop.has_value() ? rec.last_hop->value() + 1
                                                : 0,
                       rec.level, rec.past_hole);
  }
  return out;
}

class DirectoryDrivers : public ::testing::TestWithParam<DriverConfig> {};

// On the same seed, locate and a drained locate_async must return the same
// LocateResult field for field and send the same messages of every kind;
// publish and a drained publish_async must leave the same records.  The
// kills run identically on both networks between operations.
TEST_P(DirectoryDrivers, InlineAndEventDriversAgree) {
  const DriverConfig& c = GetParam();
  TapestryParams p = small_params(c.secondary ? RoutingMode::kPrrLike
                                              : RoutingMode::kTapestryNative);
  p.locate_cache_size = c.cache;
  p.prr_secondary_search = c.secondary;
  p.root_multiplicity = c.roots;
  p.retry_all_roots = c.roots > 1;
  if (c.replicated) p.store_backend = StoreBackend::kReplicated;
  auto inl = static_ring_network(256, 31, p);
  auto evt = static_ring_network(256, 31, p);
  ASSERT_EQ(inl.ids, evt.ids);
  // Keeps the two clocks equal: only the event driver advances its own.
  auto sync_clocks = [&] {
    evt.net->events().run();
    inl.net->events().run_until(evt.net->now());
  };

  Rng wl(17);
  std::vector<Guid> guids;
  std::unordered_set<std::uint64_t> servers;
  for (std::uint64_t i = 0; i < 48; ++i) {
    const Guid guid = make_guid(*inl.net, 900 + i);
    const NodeId server = inl.ids[wl.next_u64(inl.ids.size())];
    guids.push_back(guid);
    servers.insert(server.value());
    inl.net->publish(server, guid);
    evt.net->publish_async(server, guid);
    sync_clocks();
  }
  EXPECT_EQ(store_records(*inl.net), store_records(*evt.net));
  EXPECT_EQ(kind_counts(*inl.net), kind_counts(*evt.net));

  auto fail_both = [&](const NodeId& v) {
    if (servers.count(v.value()) != 0 || !inl.net->contains(v)) return;
    inl.net->fail(v);
    evt.net->fail(v);
  };
  if (c.kill_roots) {
    for (const Guid& g : guids)
      for (unsigned salt = 0; salt < c.roots; ++salt)
        fail_both(inl.net->router().surrogate_root(salted_guid(g, salt)));
  }

  Rng qr(23);
  const int queries = 600;
  std::size_t found = 0;
  for (int q = 0; q < queries; ++q) {
    if (c.kill_mid_run && q == queries / 2) {
      for (int k = 0; k < 24; ++k)
        fail_both(inl.ids[qr.next_u64(inl.ids.size())]);
    }
    const std::vector<NodeId> live = inl.net->node_ids();
    const NodeId client = live[qr.next_u64(live.size())];
    const Guid guid = guids[qr.next_u64(guids.size())];
    const LocateResult a = inl.net->locate(client, guid);
    std::optional<LocateResult> b;
    evt.net->locate_async(client, guid,
                          [&b](const LocateResult& r) { b = r; });
    sync_clocks();
    ASSERT_TRUE(b.has_value());
    SCOPED_TRACE("query " + std::to_string(q));
    EXPECT_EQ(a.found, b->found);
    EXPECT_EQ(a.server, b->server);
    EXPECT_EQ(a.pointer_node, b->pointer_node);
    EXPECT_EQ(a.hops, b->hops);
    EXPECT_EQ(a.latency, b->latency);
    found += a.found ? 1 : 0;
  }
  EXPECT_GT(found, 0u);
  EXPECT_EQ(kind_counts(*inl.net), kind_counts(*evt.net));
  EXPECT_EQ(store_records(*inl.net), store_records(*evt.net));
  EXPECT_EQ(inl.net->directory().locate_cache().stats().hits,
            evt.net->directory().locate_cache().stats().hits);
  EXPECT_EQ(inl.net->directory().locate_cache().stats().fallbacks,
            evt.net->directory().locate_cache().stats().fallbacks);
  if (c.cache > 0) {
    EXPECT_GT(inl.net->directory().locate_cache().stats().hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DirectoryDrivers,
    ::testing::Values(
        DriverConfig{"plain"}, DriverConfig{"cache", 64},
        DriverConfig{"secondary", 0, true},
        DriverConfig{"roots3_retry", 0, false, 3},
        DriverConfig{"replicated_roots_killed", 0, false, 1, true, true},
        DriverConfig{"cache_mid_run_kills", 64, false, 1, false, false,
                     true}),
    [](const ::testing::TestParamInfo<DriverConfig>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tap
