// Concurrent overlay construction: the bulk pipeline (register_bulk +
// parallel rebuild_static_tables + publish_batch) must produce bit-identical
// results for every worker count and match the serial paths exactly; the
// sharded registry's lock-free snapshot reads must stay coherent while a
// bulk registration races them.  This binary is the ThreadSanitizer CI
// target for the sharded-registry / parallel-build / thread_pool machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/sim/thread_pool.h"
#include "src/tapestry/fingerprint.h"
#include "src/tapestry/replicated_store.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

struct BulkNetwork {
  std::unique_ptr<MetricSpace> space;
  std::unique_ptr<Network> net;
  std::vector<NodeId> ids;
};

BulkNetwork bulk_ring_network(std::size_t n, std::uint64_t seed,
                              std::size_t workers,
                              TapestryParams params = small_params()) {
  BulkNetwork b;
  Rng rng(seed);
  b.space = std::make_unique<RingMetric>(n + 64, rng);
  b.net = std::make_unique<Network>(*b.space, params, seed ^ 0xabcdef);
  std::vector<Location> locs(n);
  for (std::size_t i = 0; i < n; ++i) locs[i] = i;
  b.ids = b.net->insert_static_bulk(locs, workers);
  b.net->rebuild_static_tables(workers);
  return b;
}

// ---------------------------------------------------------------------
// Determinism: same seed + any thread count => identical tables
// ---------------------------------------------------------------------

TEST(ParallelBuild, DeterministicAcrossWorkerCounts) {
  const std::size_t n = 500;
  const auto reference = bulk_ring_network(n, 6, 1);
  const std::uint64_t want = fingerprint_tables(*reference.net);
  for (const std::size_t workers : {2ul, 3ul, 4ul, 8ul}) {
    const auto built = bulk_ring_network(n, 6, workers);
    EXPECT_EQ(fingerprint_tables(*built.net), want)
        << "tables diverged at " << workers << " workers";
    EXPECT_EQ(built.ids, reference.ids)
        << "id sequence diverged at " << workers << " workers";
  }
}

TEST(ParallelBuild, BulkPipelineMatchesSerialStaticBuild) {
  // Same seed: insert_static one by one + serial rebuild vs the bulk
  // registration + 4-worker rebuild.  The id draws and the final mesh
  // must be identical.
  const std::size_t n = 400;
  auto serial = test::static_ring_network(n, 9);
  auto bulk = bulk_ring_network(n, 9, 4);
  EXPECT_EQ(serial.ids, bulk.ids);
  EXPECT_EQ(fingerprint_tables(*serial.net), fingerprint_tables(*bulk.net));
}

TEST(ParallelBuild, SatisfiesOverlayInvariants) {
  auto b = bulk_ring_network(600, 12, 4);
  b.net->check_property1();
  b.net->check_backpointer_symmetry();
  // The static oracle is Property 2 (locality) by construction.
  EXPECT_DOUBLE_EQ(b.net->property2_quality(), 1.0);
}

// ---------------------------------------------------------------------
// publish_batch: concurrent drain == serial publish loop
// ---------------------------------------------------------------------

TEST(ParallelBuild, PublishBatchMatchesSerialPublish) {
  const std::size_t n = 300, objects = 120;
  auto a = bulk_ring_network(n, 15, 2);
  auto b = bulk_ring_network(n, 15, 4);
  ASSERT_EQ(a.ids, b.ids);

  std::vector<ObjectDirectory::PublishRequest> batch;
  Rng wl(99);
  for (std::size_t i = 0; i < objects; ++i)
    batch.push_back({a.ids[wl.next_u64(a.ids.size())], make_guid(*a.net, i)});

  Trace serial_trace, batch_trace;
  for (const auto& r : batch) a.net->publish(r.server, r.guid, &serial_trace);
  b.net->publish_batch(batch, 4, &batch_trace);

  EXPECT_EQ(fingerprint_stores(*a.net), fingerprint_stores(*b.net));
  EXPECT_EQ(serial_trace.messages(), batch_trace.messages());
  // Latency: same hop multiset, but summed in a different association
  // (per-task subtotals absorbed vs one running accumulator), so equality
  // holds only up to floating-point summation order.
  EXPECT_NEAR(serial_trace.latency(), batch_trace.latency(),
              1e-9 * std::max(1.0, serial_trace.latency()));
  for (const auto& r : batch)
    EXPECT_EQ(a.net->servers_of(r.guid), b.net->servers_of(r.guid));
  // Property 4 (every publish-path node holds the pointer) on the batch
  // result, and every object resolves from everywhere it should.
  b.net->check_property4();
  Rng qr(7);
  for (int q = 0; q < 200; ++q) {
    const auto& r = batch[qr.next_u64(batch.size())];
    EXPECT_TRUE(
        b.net->locate(b.ids[qr.next_u64(b.ids.size())], r.guid).found);
  }
}

// On the replicated backend publish() mirrors every root deposit across the
// root's holder set; publish_batch must write the same mirrors, or a root
// that dies before the first republish takes its objects with it.
TEST(ParallelBuild, PublishBatchWritesQuorumMirrorsLikeSerialPublish) {
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kReplicated;
  const std::size_t n = 256, objects = 64;
  auto a = bulk_ring_network(n, 41, 2, p);
  auto b = bulk_ring_network(n, 41, 4, p);
  ASSERT_EQ(a.ids, b.ids);

  std::vector<ObjectDirectory::PublishRequest> batch;
  std::unordered_set<std::uint64_t> servers;
  Rng wl(8);
  for (std::size_t i = 0; i < objects; ++i) {
    batch.push_back({a.ids[wl.next_u64(a.ids.size())], make_guid(*a.net, i)});
    servers.insert(batch.back().server.value());
  }
  Trace serial_trace, batch_trace;
  for (const auto& r : batch) a.net->publish(r.server, r.guid, &serial_trace);
  b.net->publish_batch(batch, 4, &batch_trace);

  QuorumReplicator* ra = a.net->directory().replicator();
  QuorumReplicator* rb = b.net->directory().replicator();
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_GT(ra->stats().replica_writes, 0u);
  EXPECT_EQ(ra->stats().replica_writes, rb->stats().replica_writes);
  EXPECT_EQ(serial_trace.messages(), batch_trace.messages());
  EXPECT_EQ(fingerprint_stores(*a.net), fingerprint_stores(*b.net));
  for (const auto& r : batch) {
    const auto* ha = ra->holders(r.guid);
    const auto* hb = rb->holders(r.guid);
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(*ha, *hb);
  }

  // Kill every root that is not itself a server: the quorum read at the
  // new surrogate roots must still find every object on both networks.
  for (const auto& r : batch) {
    const NodeId root = a.net->router().surrogate_root(r.guid);
    if (servers.count(root.value()) != 0 || !a.net->contains(root)) continue;
    a.net->fail(root);
    b.net->fail(root);
  }
  std::size_t found_a = 0, found_b = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const NodeId client = a.net->node_ids()[i % a.net->size()];
    found_a += a.net->locate(client, batch[i].guid).found ? 1 : 0;
    found_b += b.net->locate(client, batch[i].guid).found ? 1 : 0;
  }
  EXPECT_EQ(found_a, objects);
  EXPECT_EQ(found_b, objects);
}

TEST(ParallelBuild, PublishBatchDeterministicAcrossWorkers) {
  const std::size_t n = 300, objects = 100;
  std::optional<std::uint64_t> want;
  for (const std::size_t workers : {1ul, 4ul, 8ul}) {
    auto b = bulk_ring_network(n, 22, workers);
    std::vector<ObjectDirectory::PublishRequest> batch;
    Rng wl(5);
    for (std::size_t i = 0; i < objects; ++i)
      batch.push_back(
          {b.ids[wl.next_u64(b.ids.size())], make_guid(*b.net, 500 + i)});
    b.net->publish_batch(batch, workers);
    const std::uint64_t got = fingerprint_stores(*b.net);
    if (!want.has_value()) want = got;
    EXPECT_EQ(got, *want) << "stores diverged at " << workers << " workers";
  }
}

// ---------------------------------------------------------------------
// Sharded registry: lock-free reads racing a bulk registration
// ---------------------------------------------------------------------

TEST(ShardedRegistry, LockFreeReadsStayCoherentDuringBulkRegistration) {
  Rng rng(33);
  RingMetric space(4096, rng);
  TapestryParams params = small_params();
  Network net(space, params, 77);
  NodeRegistry& reg = net.registry();

  // A settled prefix the readers hammer while the writer lands batches.
  std::vector<Location> first(256);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = i;
  const std::vector<NodeId> known = net.insert_static_bulk(first, 2);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> read_errors{0};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rr(100 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId& id = known[rr.next_u64(known.size())];
        const TapestryNode* n = reg.find(id);
        if (n == nullptr || !(n->id() == id) || !reg.is_live(id))
          read_errors.fetch_add(1, std::memory_order_relaxed);
        // Random probes may hit or miss, but a hit must never surface a
        // half-published entry: the node handed back carries the probed id.
        const std::uint64_t probe = rr() & 0xFFFFFFFFull;
        const TapestryNode* m = reg.find(Id(params.id, probe));
        if (m != nullptr && m->id().value() != probe)
          read_errors.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: several bulk batches, each internally parallel, forcing many
  // in-place inserts and several grow-and-republish table swaps per shard.
  std::size_t next_loc = first.size();
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<Location> locs(384);
    for (std::size_t i = 0; i < locs.size(); ++i) locs[i] = next_loc + i;
    net.insert_static_bulk(locs, 2);
    next_loc += locs.size();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(reg.live_count(), next_loc);
  // Every id registered across all batches is findable afterwards.
  for (const auto& n : reg.nodes())
    EXPECT_EQ(reg.find(n->id()), n.get());
}

// ---------------------------------------------------------------------
// thread_pool basics backing it all
// ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  }, 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, FirstExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

}  // namespace
}  // namespace tap
