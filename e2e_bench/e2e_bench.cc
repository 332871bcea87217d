// e2e_bench: the end-to-end benchmark of the tapestry library, with a
// per-layer ledger measured from outside the library.
//
//   e2e_bench --workload lookup_mix|churn_event|repair_threaded
//             --seed N --seconds S --trace 0|1 [--size full|tiny]
//             [--out DIR]
//
// Each workload builds a fixed ring-metric overlay with the bulk static
// builder, then runs an op stream generated from --seed (clients, zipf
// targets, fresh guids, join locations, churn victims) for --seconds of
// wall time, so the library only ever receives generated inputs.  The first part of every stream is a fixed
// "deterministic window" (a fixed op count, simulated-time span or round
// count); the paper-cost metrics (hops, stretch, messages, fail_ratio,
// per-kind message counts) are taken over that window only, so two runs
// with one seed print identical values whatever the host speed.
//
// With --trace 1 the benchmark records a span around every call it makes
// into a layer (NodeRegistry, Router, ObjectDirectory, MaintenanceEngine,
// the threaded join/repair entry points, EventQueue) and reads the layers
// it cannot call directly (stores, transport) through their public stats.
// End-to-end numbers come only from --trace 0 runs.  README.md documents
// every metric, its unit and the layer -> end-to-end map.
//
// Output: a human-readable table, then one JSON line holding every metric
// with its unit.  A wrong answer (a found locate naming a server that is
// not a live publisher of the guid) or a violated invariant exits non-zero
// before any result is printed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/common/rng.h"
#include "src/metric/ring.h"
#include "src/sim/churn_driver.h"
#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/network.h"
#include "src/tapestry/transport.h"

namespace {

using namespace tap;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secs_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

/// Nearest-rank quantile of `v` (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::size_t>(std::ceil(q * v.size()));
  k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A bounded uniform sample of a stream of values (reservoir sampling):
/// quantiles are exact up to kCap values and unbiased beyond, and the
/// benchmark's own memory stops growing with the run length, so
/// peak_rss_mb measures the library rather than the sample buffers.
class Samples {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 18;

  void add(double x) {
    ++n_;
    if (v_.size() < kCap) {
      v_.push_back(x);
      return;
    }
    const std::uint64_t j = rng_.next_u64(n_);
    if (j < kCap) v_[j] = x;
  }
  [[nodiscard]] double q(double p) const { return quantile(v_, p); }
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

 private:
  std::vector<double> v_;
  std::uint64_t n_ = 0;
  Rng rng_{0x5a3b1e};
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// In-memory span recorder for the traced mode.  A span covers one call
/// the benchmark makes into a layer; its name is "<layer>.<call>".  Self
/// time is the span minus the spans opened inside it (EventQueue slices
/// contain the benchmark's own event callbacks).  Per-name aggregates
/// cover every span; the first kKeep spans are also kept verbatim for the
/// span file written at exit.  Disabled, span() is a plain call.
class Tracer {
 public:
  static constexpr std::size_t kKeep = 200'000;

  explicit Tracer(bool on) : on_(on), epoch_(now_ns()) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  template <class F>
  decltype(auto) span(const char* name, std::uint64_t op, F&& f) {
    if (!on_) return f();
    open(name, op);
    struct Closer {
      Tracer* t;
      ~Closer() { t->close(); }
    } closer{this};
    return f();
  }

  /// Self time of every layer span closed so far.  Spans named "bench.*"
  /// wrap the benchmark's own code (event callbacks) and are not a layer.
  [[nodiscard]] std::int64_t layer_ns() const noexcept { return layer_ns_; }

  [[nodiscard]] double p(const std::string& name, double q) const {
    const Agg* a = find(name);
    return a == nullptr ? 0.0 : a->us.q(q);
  }
  [[nodiscard]] double total_s(const std::string& name) const {
    const Agg* a = find(name);
    return a == nullptr ? 0.0 : a->incl_ns * 1e-9;
  }
  /// Forgets everything recorded so far (the setup reps before the kept
  /// overlay, the untraced reference window).
  void clear() {
    aggs_.clear();
    names_.clear();
    is_bench_.clear();
    by_ptr_.clear();
    by_name_.clear();
    kept_.clear();
    layer_ns_ = 0;
    next_id_ = 1;
  }

  /// Per-layer ledger lines plus the raw span file.
  void print_ledger(std::FILE* out) const {
    std::fprintf(out, "  %-36s %10s %12s %12s %10s %10s\n", "span", "calls",
                 "incl_ms", "self_ms", "p50_us", "p99_us");
    for (std::size_t i = 0; i < aggs_.size(); ++i) {
      const Agg& a = aggs_[i];
      std::fprintf(out, "  %-36s %10llu %12.3f %12.3f %10.2f %10.2f\n",
                   names_[i].c_str(), static_cast<unsigned long long>(a.count),
                   a.incl_ns * 1e-6, a.self_ns * 1e-6, a.us.q(0.5),
                   a.us.q(0.99));
    }
  }
  bool write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,name,op,start_ns,end_ns\n");
    for (const Kept& k : kept_)
      std::fprintf(f, "%llu,%llu,%s,%llu,%lld,%lld\n",
                   static_cast<unsigned long long>(k.id),
                   static_cast<unsigned long long>(k.parent),
                   names_[k.name].c_str(),
                   static_cast<unsigned long long>(k.op),
                   static_cast<long long>(k.t0 - epoch_),
                   static_cast<long long>(k.t1 - epoch_));
    return std::fclose(f) == 0;
  }

 private:
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t incl_ns = 0;
    std::int64_t self_ns = 0;
    Samples us;  ///< per-call durations
  };

  [[nodiscard]] const Agg* find(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &aggs_[it->second];
  }

  struct Open {
    std::uint32_t name;
    std::uint64_t id, parent, op;
    std::int64_t t0;
    std::int64_t child_ns = 0;
  };
  struct Kept {
    std::uint32_t name;
    std::uint64_t id, parent, op;
    std::int64_t t0, t1;
  };

  std::uint32_t intern(const char* name) {
    const auto it = by_ptr_.find(name);
    if (it != by_ptr_.end()) return it->second;
    std::uint32_t idx;
    const auto named = by_name_.find(name);
    if (named != by_name_.end()) {
      idx = named->second;
    } else {
      idx = static_cast<std::uint32_t>(aggs_.size());
      aggs_.emplace_back();
      names_.emplace_back(name);
      is_bench_.push_back(std::strncmp(name, "bench.", 6) == 0);
      by_name_.emplace(name, idx);
    }
    by_ptr_.emplace(name, idx);
    return idx;
  }
  void open(const char* name, std::uint64_t op) {
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back(Open{intern(name), next_id_++, parent, op, now_ns()});
  }
  void close() {
    const std::int64_t t1 = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t1 - o.t0;
    Agg& a = aggs_[o.name];
    ++a.count;
    a.incl_ns += dur;
    a.self_ns += dur - o.child_ns;
    a.us.add(dur * 1e-3);
    if (!is_bench_[o.name]) layer_ns_ += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (kept_.size() < kKeep)
      kept_.push_back(Kept{o.name, o.id, o.parent, o.op, o.t0, t1});
  }

  bool on_;
  std::int64_t epoch_;
  std::vector<Agg> aggs_;
  std::vector<std::string> names_;
  std::unordered_map<const char*, std::uint32_t> by_ptr_;
  std::unordered_map<std::string, std::uint32_t> by_name_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::vector<bool> is_bench_;
  std::int64_t layer_ns_ = 0;
  std::uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------
// Options, report
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.  `attempted`/`failed` count workload ops
/// over the whole run; a failure is a miss on an object that has a live
/// published replica, or a CheckError thrown by an op.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

[[noreturn]] void wrong_answer(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "e2e_bench: WRONG ANSWER: %s\n", what.c_str());
  std::exit(3);
}

// ---------------------------------------------------------------------
// Layer counters read through public stats
// ---------------------------------------------------------------------

/// Cumulative counters of the layers the benchmark cannot time directly.
/// Snapshots are subtracted to attribute counts to a window.
struct Counters {
  std::uint64_t messages = 0, bytes = 0;  ///< TransportStats
  std::array<std::uint64_t, kWireKindCount> kinds{};
  std::uint64_t acct = 0;     ///< tapestry_messages_total (registry acct)
  std::uint64_t events = 0;   ///< EventQueue::fired
  std::uint64_t upserts = 0, removes = 0, expired = 0;  ///< StoreStats sums
  std::uint64_t replica_writes = 0, quorum_reads = 0, read_repairs = 0,
                rereplications = 0;  ///< tapestry_replica_* counters
  std::uint64_t contention = 0;      ///< stripe-lock contention counter

  /// `stores` = false skips the per-node store sums (cheap enough to
  /// bracket a single call).
  static Counters sample(const Network& net, bool stores = true) {
    Counters c;
    const TransportStats& ts = net.transport().stats();
    c.messages = ts.messages.load(std::memory_order_relaxed);
    c.bytes = ts.bytes.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < kWireKindCount; ++k)
      c.kinds[k] = ts.kind_count(static_cast<MessageKind>(k));
    c.acct = metrics::messages_total().value();
    c.events = net.events().fired();
    for (const auto& n : net.registry().nodes()) {
      if (!stores) break;
      const StoreStats s = n->store().stats();
      c.upserts += s.upserts;
      c.removes += s.removes;
      c.expired += s.expired;
    }
    c.replica_writes = metrics::replica_writes_total().value();
    c.quorum_reads = metrics::replica_quorum_reads_total().value();
    c.read_repairs = metrics::replica_read_repairs_total().value();
    c.rereplications = metrics::replica_rereplications_total().value();
    c.contention = metrics::stripe_lock_contention_total().value();
    return c;
  }
  void add_transport(const Counters& d) {
    messages += d.messages;
    bytes += d.bytes;
    for (std::size_t k = 0; k < kWireKindCount; ++k) kinds[k] += d.kinds[k];
    acct += d.acct;
  }
  [[nodiscard]] Counters minus(const Counters& o) const {
    Counters d;
    d.messages = messages - o.messages;
    d.bytes = bytes - o.bytes;
    for (std::size_t k = 0; k < kWireKindCount; ++k)
      d.kinds[k] = kinds[k] - o.kinds[k];
    d.acct = acct - o.acct;
    d.events = events - o.events;
    d.upserts = upserts - o.upserts;
    d.removes = removes - o.removes;
    d.expired = expired - o.expired;
    d.replica_writes = replica_writes - o.replica_writes;
    d.quorum_reads = quorum_reads - o.quorum_reads;
    d.read_repairs = read_repairs - o.read_repairs;
    d.rereplications = rereplications - o.rereplications;
    d.contention = contention - o.contention;
    return d;
  }
};

/// Paper-cost tallies of the locates and ops in one window.
struct OpStats {
  std::uint64_t ops = 0;       ///< workload ops completed
  std::uint64_t attempted = 0;
  std::uint64_t misses = 0;    ///< first attempts that failed (fail_ratio)
  std::uint64_t failed = 0;    ///< ops that failed for good
  std::uint64_t retries = 0;   ///< client retries after a first miss
  std::uint64_t locates = 0, found = 0;
  double hops = 0.0;
  double latency = 0.0, direct = 0.0;  ///< stretch numerator, denominator
};

// ---------------------------------------------------------------------
// Overlay construction (shared by all workloads)
// ---------------------------------------------------------------------

std::size_t workers() {
  return std::min<std::size_t>(4, default_worker_count());
}

/// Independent deterministic stream per purpose, all derived from --seed.
std::uint64_t stream(std::uint64_t seed, std::uint64_t purpose) {
  return hash_combine(seed, purpose);
}

struct Shape {
  std::size_t nodes = 0;       ///< initial overlay size
  std::size_t space = 0;       ///< ring points (headroom for joins)
  std::size_t objects = 0;     ///< single-replica objects published at setup
  TapestryParams params{};
};

/// One built overlay.  `net` refers to `space`, so code that drops an
/// overlay early resets `net` first (member-wise assignment would not).
struct Overlay {
  std::unique_ptr<RingMetric> space;
  std::unique_ptr<Network> net;
  std::vector<Guid> objects;
  std::unordered_set<std::uint64_t> server_set;  ///< servers of `objects`
  std::unordered_set<std::uint64_t> used_guids;
  std::vector<Location> free_locs;
};

TapestryParams base_params() {
  TapestryParams p;
  p.id = IdSpec{4, 8};
  p.redundancy = 3;
  return p;
}

/// The overlay (ring points, node ids, object guids and servers) is a
/// fixed input of each workload, like its size; --seed varies the op
/// schedule run against it.  Across seeds the stretch of a 4096-node ring
/// overlay alone varies by about 10%, which would drown the changes the
/// benchmark exists to detect.
constexpr std::uint64_t kOverlaySeed = 1;

/// Builds the overlay with the bulk static path and publishes the initial
/// objects: insert_static_bulk -> rebuild_static_tables -> publish_batch.
Overlay build_overlay(const Shape& shape, Tracer& tr) {
  const std::uint64_t seed = kOverlaySeed;
  Overlay ov;
  Rng space_rng(stream(seed, 1));
  ov.space = std::make_unique<RingMetric>(shape.space, space_rng);
  ov.net = std::make_unique<Network>(*ov.space, shape.params,
                                     stream(seed, 2));
  Network& net = *ov.net;

  Rng rng(stream(seed, 3));
  std::vector<Location> locs(shape.space);
  for (std::size_t i = 0; i < locs.size(); ++i) locs[i] = i;
  rng.shuffle(locs);
  ov.free_locs.assign(locs.begin() + static_cast<long>(shape.nodes),
                      locs.end());
  locs.resize(shape.nodes);

  const std::vector<NodeId> ids = tr.span("registry.insert_bulk", 0, [&] {
    return net.insert_static_bulk(locs, workers());
  });
  tr.span("maintenance.rebuild_tables", 0,
          [&] { net.rebuild_static_tables(workers()); });

  std::vector<ObjectDirectory::PublishRequest> batch;
  for (std::size_t i = 0; i < shape.objects; ++i) {
    Guid g;
    do {
      g = Guid::random(shape.params.id, rng);
    } while (!ov.used_guids.insert(g.value()).second);
    const NodeId server = ids[rng.next_u64(ids.size())];
    ov.objects.push_back(g);
    ov.server_set.insert(server.value());
    batch.push_back({server, g});
  }
  tr.span("directory.publish_batch", 0,
          [&] { net.publish_batch(batch, workers()); });
  if (shape.params.store_backend == StoreBackend::kReplicated) {
    // publish_batch deposits the path pointers but writes no quorum
    // mirrors (publish() does); without this republish, a root that dies
    // before the first soft-state republish loses its objects' pointers.
    tr.span("directory.republish_all", 0, [&] { net.republish_all(); });
  }
  return ov;
}

/// Sets the overlay up kReps times (setup_s is their median) and keeps
/// the last one; in the traced mode the setup spans of that last build
/// are the ones reported.
Overlay setup(const Shape& shape, Tracer& tr, std::vector<double>* setup_s) {
  constexpr int kReps = 5;
  Overlay ov;
  for (int rep = 0; rep < kReps; ++rep) {
    ov.net.reset();  // free the previous build before timing the next
    tr.clear();
    const std::int64_t t0 = now_ns();
    ov = build_overlay(shape, tr);
    setup_s->push_back(secs_since(t0));
  }
  return ov;
}

/// Checks one locate answer.  A found locate must name a live server that
/// published the guid (anything else exits as a wrong answer).  Returns
/// true for a miss on an object that still has a live replica.
bool missed_live(Network& net, Tracer& tr, std::uint64_t op,
                 const NodeId& client, const Guid& g, const LocateResult& r) {
  const std::vector<NodeId> servers =
      tr.span("directory.servers_of", op, [&] { return net.servers_of(g); });
  if (r.found &&
      std::find(servers.begin(), servers.end(), r.server) == servers.end())
    wrong_answer("op " + std::to_string(op) + ": locate(" + g.to_string() +
                 " from " + client.to_string() + ") named server " +
                 r.server.to_string() +
                 ", which is not a live publisher of that guid");
  return !r.found && !servers.empty();
}

/// Checks a locate and books it into `st`; `direct` is the stretch
/// denominator.  Returns true for a miss on an object with a live replica
/// (the caller decides whether that op has failed).
bool account_locate(Network& net, Tracer& tr, std::uint64_t op,
                    const NodeId& client, const Guid& g,
                    const LocateResult& r, double direct, OpStats& st) {
  ++st.locates;
  ++st.attempted;
  const bool missed = missed_live(net, tr, op, client, g, r);
  if (missed) ++st.misses;
  if (r.found) {
    ++st.found;
    st.hops += static_cast<double>(r.hops);
    if (direct > 1e-9 && std::isfinite(direct)) {
      st.latency += r.latency;
      st.direct += direct;
    }
  }
  return missed;
}

/// Router replay of a sampled locate target (traced mode only): the
/// route_to_root_peek walk from the same client toward the same guid.
/// The replay's own wire messages are tallied in `cost` so the windows
/// can leave them out: the traced run reports the same counts as the
/// untraced one.
struct RouteSample {
  double hops = 0.0, surrogate_hops = 0.0;
  std::uint64_t n = 0;
  Counters cost;
};

void replay_route(Network& net, Tracer& tr, std::uint64_t op,
                  const NodeId& client, const Guid& g, RouteSample& rs) {
  const Counters before = Counters::sample(net, false);
  const RouteResult r = tr.span("router.route_peek", op, [&] {
    return net.router().route_to_root_peek(client, g);
  });
  rs.cost.add_transport(Counters::sample(net, false).minus(before));
  rs.hops += static_cast<double>(r.hops);
  rs.surrogate_hops += static_cast<double>(r.surrogate_hops);
  ++rs.n;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Everything the deterministic window fixes: its op tallies, its layer
/// counts (router replays left out) and the overlay's state at its end.
/// The peak RSS is read there too, so it does not depend on how far the
/// rest of the run got.
struct Window {
  OpStats ops;
  Counters counts;
  double entries_per_node = 0.0, pointers_per_node = 0.0;
  double records_per_node = 0.0;  ///< summed StoreStats::records
  double peak_rss_mb = 0.0;       ///< set-up included
  double wall_s = 0.0;
};

Window close_window(const Network& net, const OpStats& st,
                    const Counters& start, const RouteSample& replays,
                    std::int64_t t0) {
  Window w;
  w.wall_s = secs_since(t0);
  w.ops = st;
  w.counts = Counters::sample(net).minus(start).minus(replays.cost);
  const double live = static_cast<double>(net.size());
  w.entries_per_node = ratio(net.total_table_entries(), live);
  w.pointers_per_node = ratio(net.total_object_pointers(), live);
  std::size_t records = 0;
  for (const auto& n : net.registry().nodes())
    if (n->alive) records += n->store().stats().records;
  w.records_per_node = ratio(records, live);
  w.peak_rss_mb = peak_rss_mb();
  return w;
}

// ---------------------------------------------------------------------
// Metrics shared by all workloads
// ---------------------------------------------------------------------

/// The paper-cost metrics of the deterministic window.
void add_deterministic(Report& rep, const Window& w) {
  const OpStats& det = w.ops;
  const Counters& dc = w.counts;
  const double ops = static_cast<double>(det.ops);
  rep.add("hops_mean", ratio(det.hops, det.found), "count");
  // Distance-weighted: a plain mean of per-locate ratios is dominated by
  // the few clients that sit next to a replica.
  rep.add("stretch_mean", ratio(det.latency, det.direct), "ratio");
  rep.add("messages_per_op", ratio(dc.messages, ops), "count");
  rep.add("fail_ratio", ratio(det.misses, det.attempted), "ratio");
  rep.add("det.ops", ops, "count");
  rep.add("det.locates", static_cast<double>(det.locates), "count");
  for (std::size_t k = 0; k < kWireKindCount; ++k)
    rep.add(std::string("transport.kind.") +
                message_kind_name(static_cast<MessageKind>(k)) + "_per_op",
            ratio(dc.kinds[k], ops), "count");
}

/// Per-layer counters over the deterministic window.
void add_layer_counts(Report& rep, const Window& w) {
  const OpStats& det = w.ops;
  const Counters& dc = w.counts;
  const double ops = static_cast<double>(det.ops);
  rep.add("registry.table_entries_per_node", w.entries_per_node, "count");
  rep.add("registry.pointers_per_node", w.pointers_per_node, "count");
  rep.add("registry.acct_messages_per_op", ratio(dc.acct, ops), "count");
  rep.add("directory.found_ratio", ratio(det.found, det.locates), "ratio");
  rep.add("store.upserts_per_op", ratio(dc.upserts, ops), "count");
  rep.add("store.removes_per_op", ratio(dc.removes, ops), "count");
  rep.add("store.expired", static_cast<double>(dc.expired), "count");
  rep.add("store.records_per_node", w.records_per_node, "count");
  rep.add("store.replica_writes_per_op", ratio(dc.replica_writes, ops),
          "count");
  rep.add("store.quorum_reads", static_cast<double>(dc.quorum_reads),
          "count");
  rep.add("store.read_repairs", static_cast<double>(dc.read_repairs),
          "count");
  rep.add("store.rereplications", static_cast<double>(dc.rereplications),
          "count");
  rep.add("transport.messages_per_op", ratio(dc.messages, ops), "count");
  rep.add("transport.bytes_per_op", ratio(dc.bytes, ops), "B");
  rep.add("transport.bytes_per_message", ratio(dc.bytes, dc.messages), "B");
  rep.add("event_queue.events_per_op", ratio(dc.events, ops), "count");
}

void add_setup_layers(Report& rep, const Tracer& tr) {
  rep.add("registry.insert_bulk_s", tr.total_s("registry.insert_bulk"), "s");
  rep.add("maintenance.rebuild_tables_s",
          tr.total_s("maintenance.rebuild_tables"), "s");
  rep.add("directory.publish_batch_s", tr.total_s("directory.publish_batch"),
          "s");
}

void add_router(Report& rep, const Tracer& tr, const RouteSample& rs) {
  rep.add("router.route_us_p50", tr.p("router.route_peek", 0.5), "us");
  rep.add("router.route_us_p99", tr.p("router.route_peek", 0.99), "us");
  rep.add("router.hops_mean", ratio(rs.hops, rs.n), "count");
  rep.add("router.surrogate_hops_mean", ratio(rs.surrogate_hops, rs.n),
          "count");
  rep.add("router.replays", static_cast<double>(rs.n), "count");
}

/// Timing summary of one class of blocking calls: p50 and the highest of
/// p99/p90 that keeps at least ten samples beyond it, plus the count.
void add_timing(Report& rep, const std::string& stem, const Samples& us,
                const std::string& unit, double scale, bool with_p99) {
  rep.add(stem + "_p50_" + unit, us.q(0.5) * scale, unit);
  rep.add(stem + "_p90_" + unit, us.q(0.9) * scale, unit);
  if (with_p99) rep.add(stem + "_p99_" + unit, us.q(0.99) * scale, unit);
  rep.add(stem + "_samples", static_cast<double>(us.count()), "count");
  if (us.count() < 100 || (with_p99 && us.count() < 1000))
    rep.notes.push_back(stem + ": only " + std::to_string(us.count()) +
                        " samples; its tail percentile has fewer than ten "
                        "samples beyond it");
}

/// The end-to-end metrics every workload reports.
void add_end_to_end(Report& rep, const std::vector<double>& setup_s,
                    double ops, double wall_s, const Window& window,
                    const Samples& call_us) {
  rep.add("setup_s", quantile(setup_s, 0.5), "s");
  rep.add("ops_per_s", ratio(ops, wall_s), "1/s");
  rep.add("latency_p50_us", call_us.q(0.5), "us");
  rep.add("latency_p90_us", call_us.q(0.9), "us");
  rep.add("latency_samples", static_cast<double>(call_us.count()), "count");
  rep.add("measured_s", wall_s, "s");
  rep.add("window_s", window.wall_s, "s");
  rep.add("peak_rss_mb", window.peak_rss_mb, "MB");
}

/// The traced-mode tail every workload shares: the unattributed share of
/// the measured phase, the tracing overhead against an untraced run of the
/// same deterministic window (`untraced_window` runs it on a fresh overlay,
/// after the traced run so both find a warm process heap), the ledger and
/// the span file.
template <class UntracedWindow>
void finish_trace(Report& rep, const Options& opt, const Shape& shape,
                  Tracer& tr, Overlay& ov, double phase_s,
                  std::int64_t layer_ns, double window_s,
                  UntracedWindow&& untraced_window) {
  rep.add("trace.unattributed_share",
          phase_s > 0.0 ? std::max(0.0, 1.0 - layer_ns * 1e-9 / phase_s) : 0.0,
          "ratio");
  ov.net.reset();
  Tracer off(false);
  std::vector<double> ref_setup_s;
  Overlay ref = setup(shape, off, &ref_setup_s);
  rep.add("trace.overhead_ratio", ratio(window_s, untraced_window(ref, off)),
          "ratio");
  tr.print_ledger(stdout);
  tr.write_spans(opt.out_dir + "/spans_" + opt.workload + "_seed" +
                 std::to_string(opt.seed) + ".csv");
}

// ---------------------------------------------------------------------
// lookup_mix: zipf sync locates with a 10% publish/unpublish share
// ---------------------------------------------------------------------

struct LookupMix {
  Shape shape;
  std::uint64_t det_ops;
  std::size_t fresh_window = 64;  ///< fresh objects kept published
  double write_share = 0.10;
};

LookupMix lookup_mix_config(bool tiny) {
  LookupMix c;
  c.shape.nodes = tiny ? 256 : 4096;
  c.shape.space = c.shape.nodes;
  c.shape.objects = tiny ? 128 : 2048;
  c.shape.params = base_params();
  c.det_ops = tiny ? 5000 : 100000;
  return c;
}

struct LookupResult {
  OpStats all;
  Window det;
  double wall_s = 0.0;
  Samples locate_us, write_us, publish_us, unpublish_us, call_us;
  RouteSample route;
  std::int64_t layer_ns = 0;
};

/// Runs the op stream on `ov` until --seconds have passed, and at least
/// the deterministic window.  With `stop_after_window` the run ends at the
/// window (the untraced reference of trace.overhead_ratio).  The churn and
/// repair runners below follow the same shape.
LookupResult run_lookup_mix(const LookupMix& c, Overlay& ov,
                            const Options& opt, Tracer& tr,
                            bool stop_after_window) {
  Network& net = *ov.net;
  LookupResult res;
  const std::vector<NodeId> ids =
      tr.span("registry.node_ids", 0, [&] { return net.node_ids(); });
  const PopularityDist zipf = PopularityDist::zipf(ov.objects.size(), 1.0);
  Rng wl(stream(opt.seed, 10));
  std::deque<std::pair<Guid, NodeId>> fresh;
  std::uint64_t writes_full = 0;

  const Counters c0 = Counters::sample(net);
  const std::int64_t layer0 = tr.layer_ns();
  const std::int64_t t0 = now_ns();
  OpStats& st = res.all;
  for (std::uint64_t op = 0;; ++op) {
    if (op == c.det_ops) {
      res.det = close_window(net, st, c0, res.route, t0);
      if (stop_after_window) break;
    }
    if (op >= c.det_ops && (op & 255) == 0 && secs_since(t0) >= opt.seconds)
      break;
    const bool is_locate = wl.next_double() >= c.write_share;
    try {
      if (is_locate) {
        const NodeId client = ids[wl.next_u64(ids.size())];
        const Guid& g = ov.objects[zipf.draw(wl)];
        const std::int64_t s0 = now_ns();
        const LocateResult r = tr.span("directory.locate", op, [&] {
          return net.locate(client, g);
        });
        const double us = (now_ns() - s0) * 1e-3;
        res.locate_us.add(us);
        res.call_us.add(us);
        const double direct = tr.span("directory.nearest_replica", op, [&] {
          return net.distance_to_nearest_replica(client, g);
        });
        if (account_locate(net, tr, op, client, g, r, direct, st))
          ++st.failed;
        if (tr.on() && (op & 15) == 0) replay_route(net, tr, op, client, g,
                                                     res.route);
      } else {
        ++st.attempted;
        const bool publish =
            fresh.size() < c.fresh_window || (writes_full++ & 1) == 0;
        const std::int64_t s0 = now_ns();
        if (publish) {
          Guid g;
          do {
            g = Guid::random(net.params().id, wl);
          } while (!ov.used_guids.insert(g.value()).second);
          const NodeId server = ids[wl.next_u64(ids.size())];
          tr.span("directory.publish", op, [&] { net.publish(server, g); });
          fresh.emplace_back(g, server);
        } else {
          const auto [g, server] = fresh.front();
          fresh.pop_front();
          tr.span("directory.unpublish", op,
                  [&] { net.unpublish(server, g); });
        }
        const double us = (now_ns() - s0) * 1e-3;
        (publish ? res.publish_us : res.unpublish_us).add(us);
        res.write_us.add(us);
        res.call_us.add(us);
      }
    } catch (const CheckError&) {
      // A thrown op is attempted and failed, never completed.
      ++st.misses;
      ++st.failed;
      if (is_locate) {
        ++st.attempted;
        ++st.locates;
      }
      continue;
    }
    ++st.ops;
  }
  res.wall_s = secs_since(t0);
  res.layer_ns = tr.layer_ns() - layer0;
  return res;
}

Report lookup_mix(const Options& opt) {
  const LookupMix c = lookup_mix_config(opt.tiny);
  Report rep;
  std::vector<double> setup_s;
  Tracer tr(opt.trace);
  Overlay ov = setup(c.shape, tr, &setup_s);
  const LookupResult r = run_lookup_mix(c, ov, opt, tr, false);

  rep.attempted = r.all.attempted;
  rep.failed = r.all.failed;
  add_end_to_end(rep, setup_s, static_cast<double>(r.all.ops), r.wall_s,
                 r.det, r.call_us);
  add_timing(rep, "locate", r.locate_us, "us", 1.0, true);
  add_timing(rep, "write", r.write_us, "us", 1.0, true);
  add_deterministic(rep, r.det);
  if (opt.trace) {
    add_setup_layers(rep, tr);
    add_layer_counts(rep, r.det);
    add_router(rep, tr, r.route);
    rep.add("directory.locate_us_p50", tr.p("directory.locate", 0.5), "us");
    rep.add("directory.locate_self_us_p50",
            tr.p("directory.locate", 0.5) - tr.p("router.route_peek", 0.5),
            "us");
    rep.add("directory.publish_us_p50", tr.p("directory.publish", 0.5), "us");
    rep.add("directory.unpublish_us_p50", tr.p("directory.unpublish", 0.5),
            "us");
    rep.add("threaded.stripe_contention_per_wave", 0.0, "count");
    finish_trace(rep, opt, c.shape, tr, ov, r.wall_s, r.layer_ns, r.det.wall_s,
                 [&](Overlay& ref, Tracer& off) {
                   return run_lookup_mix(c, ref, opt, off, true).det.wall_s;
                 });
  }
  return rep;
}

// ---------------------------------------------------------------------
// churn_event: §6.5 regime on the EventQueue
// ---------------------------------------------------------------------

struct ChurnEvent {
  Shape shape;
  double query_rate;   ///< locate_async per simulated time unit
  double join_rate, leave_rate, fail_rate;  ///< Poisson, per time unit
  double det_horizon;  ///< simulated time of the deterministic window
  double slice = 1.0;  ///< wall-clock checks happen between slices
  double republish_every = 4.0, expiry_every = 1.0, heartbeat_every = 4.0;
};

ChurnEvent churn_event_config(bool tiny) {
  ChurnEvent c;
  c.shape.nodes = tiny ? 256 : 2048;
  c.shape.space = 2 * c.shape.nodes;
  c.shape.objects = tiny ? 64 : 512;
  c.shape.params = base_params();
  c.shape.params.transport = TransportKind::kLoopback;
  c.shape.params.store_backend = StoreBackend::kReplicated;
  c.shape.params.replication = ReplicationParams{3, 2, 2};
  c.shape.params.pointer_ttl = 10.0;
  c.query_rate = tiny ? 500.0 : 8000.0;
  c.join_rate = tiny ? 2.0 : 4.0;
  c.leave_rate = tiny ? 1.0 : 2.0;
  c.fail_rate = tiny ? 1.0 : 2.0;
  c.det_horizon = tiny ? 4.0 : 24.0;
  return c;
}

struct ChurnResult {
  OpStats all;
  Window det;
  double wall_s = 0.0;
  Samples join_us, leave_us, fail_us, member_us, heartbeat_us;
  double join_messages = 0.0;
  std::uint64_t joins = 0;
  RouteSample route;
  std::int64_t layer_ns = 0;
  double run_slices_s = 0.0;
};

ChurnResult run_churn_event(const ChurnEvent& c, Overlay& ov,
                            const Options& opt, Tracer& tr,
                            bool stop_after_window) {
  Network& net = *ov.net;
  EventQueue& q = net.events();
  ChurnResult res;
  OpStats& st = res.all;
  const PopularityDist zipf = PopularityDist::zipf(ov.objects.size(), 1.0);
  Rng wl(stream(opt.seed, 20));
  bool running = true;
  std::uint64_t next_op = 0;
  Trace maint;  // soft-state and heartbeat traffic

  // The live membership, kept by the benchmark from the calls it makes
  // (clients and victims are drawn from it).
  std::vector<NodeId> live = net.node_ids();
  std::unordered_map<std::uint64_t, std::size_t> live_pos;
  for (std::size_t i = 0; i < live.size(); ++i) live_pos[live[i].value()] = i;
  auto drop_live = [&](const NodeId& id) {
    const std::size_t i = live_pos.at(id.value());
    live_pos[live.back().value()] = i;
    live[i] = live.back();
    live.pop_back();
    live_pos.erase(id.value());
  };

  // Queries: zipf targets from uniformly drawn live clients.
  std::function<void()> query;
  std::optional<EventId> query_ev, churn_ev, hb_ev;
  query = [&] {
    query_ev.reset();
    if (!running) return;
    tr.span("bench.query", 0, [&] {
      const std::uint64_t op = next_op++;
      const NodeId client = live[wl.next_u64(live.size())];
      const Guid g = ov.objects[zipf.draw(wl)];
      const double direct = tr.span("directory.nearest_replica", op, [&] {
        return net.distance_to_nearest_replica(client, g);
      });
      if (tr.on() && (op & 3) == 0)
        replay_route(net, tr, op, client, g, res.route);
      try {
        tr.span("directory.locate_async", op, [&] {
          net.locate_async(client, g, [&, op, client, g,
                                       direct](const LocateResult& r) {
            const bool missed = tr.span("bench.locate_done", op, [&] {
              return account_locate(net, tr, op, client, g, r, direct, st);
            });
            if (!missed) {
              ++st.ops;
              return;
            }
            // A query stranded on a node that fail-stops mid-flight loses
            // its attempt (the paper's availability, counted in
            // fail_ratio); the client retries once before the op fails.
            ++st.retries;
            tr.span("directory.locate_async", op, [&] {
              net.locate_async(client, g, [&, op, client,
                                           g](const LocateResult& again) {
                if (missed_live(net, tr, op, client, g, again))
                  ++st.failed;
                else
                  ++st.ops;
              });
            });
          });
        });
      } catch (const CheckError&) {
        ++st.attempted;
        ++st.misses;
        ++st.failed;
      }
      query_ev = q.schedule_in(wl.exponential(c.query_rate), query);
    });
  };

  // Membership churn: joins at free locations; leaves and fails of live
  // non-servers (the object population stays fixed, so a miss is always a
  // directory failure, never a vanished object).
  std::function<void()> churn;
  churn = [&] {
    churn_ev.reset();
    if (!running) return;
    tr.span("bench.churn", 0, [&] {
      const std::uint64_t op = next_op++;
      const double total = c.join_rate + c.leave_rate + c.fail_rate;
      const double dice = wl.next_double() * total;
      const bool join = dice < c.join_rate;
      NodeId victim{};
      if (!join) {
        do {
          victim = live[wl.next_u64(live.size())];
        } while (ov.server_set.count(victim.value()) != 0);
      }
      churn_ev = q.schedule_in(wl.exponential(total), churn);
      if (join && ov.free_locs.empty()) return;
      ++st.attempted;
      const std::int64_t s0 = now_ns();
      try {
        if (join) {
          const std::size_t pick = wl.next_u64(ov.free_locs.size());
          const Location loc = ov.free_locs[pick];
          ov.free_locs[pick] = ov.free_locs.back();
          ov.free_locs.pop_back();
          Trace t;
          const NodeId id = tr.span("maintenance.join", op, [&] {
            return net.join(loc, std::nullopt, &t);
          });
          res.join_messages += static_cast<double>(t.messages());
          ++res.joins;
          res.join_us.add((now_ns() - s0) * 1e-3);
          live_pos[id.value()] = live.size();
          live.push_back(id);
        } else if (dice < c.join_rate + c.leave_rate) {
          const Location loc = net.node(victim).location();
          tr.span("maintenance.leave", op,
                  [&] { net.leave(victim, &maint); });
          res.leave_us.add((now_ns() - s0) * 1e-3);
          ov.free_locs.push_back(loc);
          drop_live(victim);
        } else {
          tr.span("maintenance.fail", op, [&] { net.fail(victim); });
          res.fail_us.add((now_ns() - s0) * 1e-3);
          drop_live(victim);
        }
        res.member_us.add((now_ns() - s0) * 1e-3);
        ++st.ops;
      } catch (const CheckError&) {
        ++st.misses;
        ++st.failed;
      }
    });
  };

  // §5.2 heartbeat sweep on the benchmark's own timer so it can be timed.
  std::function<void()> heartbeat;
  heartbeat = [&] {
    hb_ev.reset();
    if (!running) return;
    const std::int64_t s0 = now_ns();
    tr.span("maintenance.heartbeat_sweep", 0,
            [&] { net.heartbeat_sweep(&maint); });
    res.heartbeat_us.add((now_ns() - s0) * 1e-3);
    hb_ev = q.schedule_in(c.heartbeat_every, heartbeat);
  };

  const Counters c0 = Counters::sample(net);
  const std::int64_t layer0 = tr.layer_ns();
  const std::int64_t t0 = now_ns();
  const double start = q.now();
  tr.span("directory.start_soft_state", 0, [&] {
    net.start_soft_state(c.republish_every, c.expiry_every, &maint);
  });
  hb_ev = q.schedule_in(c.heartbeat_every, heartbeat);
  query_ev = q.schedule_in(wl.exponential(c.query_rate), query);
  churn_ev = q.schedule_in(
      wl.exponential(c.join_rate + c.leave_rate + c.fail_rate), churn);

  bool window_done = false;
  for (std::uint64_t slice = 1;; ++slice) {
    const double until = start + static_cast<double>(slice) * c.slice;
    const std::int64_t s0 = now_ns();
    tr.span("event_queue.run_until", 0, [&] { q.run_until(until); });
    res.run_slices_s += secs_since(s0);
    if (!window_done && until >= start + c.det_horizon - 1e-9) {
      window_done = true;
      res.det = close_window(net, st, c0, res.route, t0);
      if (stop_after_window) break;
    }
    if (window_done && secs_since(t0) >= opt.seconds) break;
  }

  // Stop the recurring processes and drain the ops still in flight.
  running = false;
  for (auto* ev : {&query_ev, &churn_ev, &hb_ev})
    if (ev->has_value()) q.cancel(**ev);
  net.stop_soft_state();
  {
    const std::int64_t s0 = now_ns();
    tr.span("event_queue.run", 0, [&] { q.run(); });
    res.run_slices_s += secs_since(s0);
  }
  if (net.async_in_flight() != 0) {
    std::fprintf(stderr, "e2e_bench: operations still in flight after drain\n");
    std::exit(3);
  }
  res.wall_s = secs_since(t0);
  res.layer_ns = tr.layer_ns() - layer0;
  return res;
}

Report churn_event(const Options& opt) {
  const ChurnEvent c = churn_event_config(opt.tiny);
  Report rep;
  std::vector<double> setup_s;
  Tracer tr(opt.trace);
  Overlay ov = setup(c.shape, tr, &setup_s);
  const ChurnResult r = run_churn_event(c, ov, opt, tr, false);

  rep.attempted = r.all.attempted;
  rep.failed = r.all.failed;
  // The e2e latency of this workload is the serial join: membership calls
  // are half joins, so a p50 over all of them would sit on the boundary
  // between the join and the leave/fail modes.
  add_end_to_end(rep, setup_s, static_cast<double>(r.all.ops), r.wall_s,
                 r.det, r.join_us);
  rep.add("first_attempt_misses", static_cast<double>(r.all.misses), "count");
  rep.add("retries", static_cast<double>(r.all.retries), "count");
  add_timing(rep, "membership", r.member_us, "ms", 1e-3, false);
  add_deterministic(rep, r.det);
  if (opt.trace) {
    const double ms = 1e-3;
    add_setup_layers(rep, tr);
    add_layer_counts(rep, r.det);
    add_router(rep, tr, r.route);
    rep.add("directory.locate_us_p50", tr.p("directory.locate_async", 0.5),
            "us");
    rep.add("maintenance.join_ms_p50", r.join_us.q(0.5) * ms, "ms");
    rep.add("maintenance.leave_ms_p50", r.leave_us.q(0.5) * ms, "ms");
    rep.add("maintenance.fail_ms_p50", r.fail_us.q(0.5) * ms, "ms");
    rep.add("maintenance.heartbeat_sweep_ms_p50",
            r.heartbeat_us.q(0.5) * ms, "ms");
    rep.add("maintenance.heartbeat_share",
            ratio(tr.total_s("maintenance.heartbeat_sweep"), r.wall_s),
            "ratio");
    rep.add("maintenance.join_messages_mean",
            ratio(r.join_messages, r.joins), "count");
    rep.add("event_queue.run_share", ratio(r.run_slices_s, r.wall_s),
            "ratio");
    rep.add("threaded.stripe_contention_per_wave", 0.0, "count");
    finish_trace(rep, opt, c.shape, tr, ov, r.wall_s, r.layer_ns, r.det.wall_s,
                 [&](Overlay& ref, Tracer& off) {
                   return run_churn_event(c, ref, opt, off, true).det.wall_s;
                 });
  }
  return rep;
}

// ---------------------------------------------------------------------
// repair_threaded: join / leave / fail-and-repair waves on real threads
// ---------------------------------------------------------------------

struct RepairThreaded {
  Shape shape;
  std::size_t joins_per_wave, leaves_per_wave, fails_per_wave;
  std::size_t det_rounds;
};

RepairThreaded repair_threaded_config(bool tiny) {
  RepairThreaded c;
  c.shape.nodes = tiny ? 256 : 4096;
  c.shape.space = 2 * c.shape.nodes;
  c.shape.objects = tiny ? 128 : 1024;
  c.shape.params = base_params();
  c.shape.params.store_backend = StoreBackend::kSharded;
  c.joins_per_wave = tiny ? 8 : 32;
  c.leaves_per_wave = tiny ? 4 : 16;
  c.fails_per_wave = tiny ? 4 : 16;
  c.det_rounds = tiny ? 2 : 4;
  return c;
}

struct RepairResult {
  OpStats all;
  Window det;
  double wall_s = 0.0;
  Samples join_us, leave_us, fail_us, wave_us;
  double wave_s = 0.0;   ///< inside the bulk calls
  double sweep_s = 0.0;  ///< inside the verification sweeps
  std::uint64_t members = 0, waves = 0;
  RouteSample route;
  std::int64_t layer_ns = 0;
};

/// Sync locate of every tracked object from a uniformly drawn live client,
/// with no republish since the waves.
void locate_sweep(Overlay& ov, Rng& wl, Tracer& tr, std::uint64_t& next_op,
                  OpStats& st, RouteSample& route) {
  Network& net = *ov.net;
  const std::vector<NodeId> ids =
      tr.span("registry.node_ids", 0, [&] { return net.node_ids(); });
  for (const Guid& g : ov.objects) {
    const std::uint64_t op = next_op++;
    const NodeId client = ids[wl.next_u64(ids.size())];
    try {
      const LocateResult r =
          tr.span("directory.locate", op, [&] { return net.locate(client, g); });
      const double direct = tr.span("directory.nearest_replica", op, [&] {
        return net.distance_to_nearest_replica(client, g);
      });
      if (account_locate(net, tr, op, client, g, r, direct, st))
        ++st.failed;
      else
        ++st.ops;
      if (tr.on()) replay_route(net, tr, op, client, g, route);
    } catch (const CheckError&) {
      ++st.attempted;
      ++st.misses;
      ++st.failed;
      ++st.locates;
    }
  }
}

RepairResult run_repair_threaded(const RepairThreaded& c, Overlay& ov,
                                 const Options& opt, Tracer& tr,
                                 bool stop_after_window) {
  Network& net = *ov.net;
  RepairResult res;
  OpStats& st = res.all;
  Rng wl(stream(opt.seed, 30));
  std::uint64_t next_op = 0;
  const std::size_t w = workers();

  auto wave = [&](const char* name, std::size_t members,
                  Samples& per_kind, auto&& call) {
    const std::uint64_t op = next_op;
    next_op += members;
    st.attempted += members;
    const std::int64_t s0 = now_ns();
    try {
      tr.span(name, op, call);
      st.ops += members;
    } catch (const CheckError&) {
      st.misses += members;
      st.failed += members;
    }
    const double us = (now_ns() - s0) * 1e-3;
    per_kind.add(us);
    res.wave_us.add(us);
    res.wave_s += us * 1e-6;
    res.members += members;
    ++res.waves;
  };

  const Counters c0 = Counters::sample(net);
  const std::int64_t layer0 = tr.layer_ns();
  const std::int64_t t0 = now_ns();
  for (std::size_t round = 1;; ++round) {
    // Plan the round from the workload stream: join locations, then
    // disjoint leave and fail victims among live non-servers.
    std::vector<JoinRequest> joins;
    for (std::size_t i = 0; i < c.joins_per_wave && !ov.free_locs.empty();
         ++i) {
      const std::size_t pick = wl.next_u64(ov.free_locs.size());
      JoinRequest jr;
      jr.loc = ov.free_locs[pick];
      ov.free_locs[pick] = ov.free_locs.back();
      ov.free_locs.pop_back();
      joins.push_back(jr);
    }
    wave("threaded.join_bulk", joins.size(), res.join_us,
         [&] { (void)net.join_bulk(joins, w); });
    // join_bulk leaves pointer redistribution to the §6.5 republish (its
    // documented contract); without it a joiner that becomes an object's
    // root strands that object.  Leave and fail waves reroute in-wave, so
    // the sweeps below run with no republish after them.
    tr.span("directory.republish_all", 0, [&] { net.republish_all(); });

    const std::vector<NodeId> ids =
        tr.span("registry.node_ids", 0, [&] { return net.node_ids(); });
    std::unordered_set<std::uint64_t> doomed;
    auto draw = [&](std::size_t want) {
      std::vector<NodeId> out;
      while (out.size() < want) {
        const NodeId v = ids[wl.next_u64(ids.size())];
        if (ov.server_set.count(v.value()) != 0) continue;
        if (!doomed.insert(v.value()).second) continue;
        out.push_back(v);
      }
      return out;
    };
    const std::vector<NodeId> leavers = draw(c.leaves_per_wave);
    const std::vector<NodeId> victims = draw(c.fails_per_wave);
    for (const NodeId& v : leavers)
      ov.free_locs.push_back(net.node(v).location());
    wave("threaded.leave_bulk", leavers.size(), res.leave_us,
         [&] { net.leave_bulk(leavers, w); });
    wave("threaded.fail_and_repair_bulk", victims.size(), res.fail_us,
         [&] { net.fail_and_repair_bulk(victims, w); });

    if (round == c.det_rounds) {
      const std::int64_t s0 = now_ns();
      locate_sweep(ov, wl, tr, next_op, st, res.route);
      res.sweep_s += secs_since(s0);
      res.det = close_window(net, st, c0, res.route, t0);
      if (stop_after_window) break;
    }
    if (round >= c.det_rounds && secs_since(t0) >= opt.seconds) break;
  }
  if (!stop_after_window) {
    const std::int64_t s0 = now_ns();
    locate_sweep(ov, wl, tr, next_op, st, res.route);
    res.sweep_s += secs_since(s0);
  }
  res.wall_s = secs_since(t0);
  res.layer_ns = tr.layer_ns() - layer0;
  return res;
}

Report repair_threaded(const Options& opt) {
  const RepairThreaded c = repair_threaded_config(opt.tiny);
  Report rep;
  std::vector<double> setup_s;
  Tracer tr(opt.trace);
  Overlay ov = setup(c.shape, tr, &setup_s);
  const RepairResult r = run_repair_threaded(c, ov, opt, tr, false);

  // The waves must leave the §5 invariants intact.
  try {
    tr.span("registry.check_property1", 0, [&] { ov.net->check_property1(); });
    tr.span("registry.check_backpointer_symmetry", 0,
            [&] { ov.net->check_backpointer_symmetry(); });
  } catch (const CheckError& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_bench: invariant violated after the waves: %s\n",
                 e.what());
    std::exit(3);
  }

  rep.attempted = r.all.attempted;
  rep.failed = r.all.failed;
  // Throughput counts the membership ops of the rounds; the verification
  // sweeps are checked and counted in attempted/failed but not timed.
  add_end_to_end(rep, setup_s, static_cast<double>(r.members),
                 r.wall_s - r.sweep_s, r.det, r.wave_us);
  add_timing(rep, "membership", r.wave_us, "ms", 1e-3, false);
  add_deterministic(rep, r.det);
  if (opt.trace) {
    const double ms = 1e-3;
    const std::size_t repushed =
        tr.span("directory.repair_pointer_chains", 0, [&] {
          return ov.net->directory().repair_pointer_chains();
        });
    add_setup_layers(rep, tr);
    add_layer_counts(rep, r.det);
    add_router(rep, tr, r.route);
    rep.add("directory.locate_us_p50", tr.p("directory.locate", 0.5), "us");
    rep.add("directory.locate_self_us_p50",
            tr.p("directory.locate", 0.5) - tr.p("router.route_peek", 0.5),
            "us");
    rep.add("directory.repair_pointer_chains_s",
            tr.total_s("directory.repair_pointer_chains"), "s");
    rep.add("directory.chains_repushed", static_cast<double>(repushed),
            "count");
    rep.add("threaded.join_wave_ms_p50", r.join_us.q(0.5) * ms, "ms");
    rep.add("threaded.leave_wave_ms_p50", r.leave_us.q(0.5) * ms,
            "ms");
    rep.add("threaded.fail_wave_ms_p50", r.fail_us.q(0.5) * ms, "ms");
    rep.add("threaded.members_per_s", ratio(r.members, r.wave_s), "1/s");
    rep.add("threaded.stripe_contention_per_wave",
            ratio(r.det.counts.contention, 3.0 * c.det_rounds), "count");
    finish_trace(rep, opt, c.shape, tr, ov, r.wall_s, r.layer_ns, r.det.wall_s,
                 [&](Overlay& ref, Tracer& off) {
                   return run_repair_threaded(c, ref, opt, off, true).det.wall_s;
                 });
  }
  return rep;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "lookup_mix|churn_event|repair_threaded --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--out DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") usage("--size must be full or tiny");
      o.tiny = v == "tiny";
    } else if (a == "--out") {
      o.out_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::fputc('\\', f);
    std::fputc(ch, f);
  }
  std::fputc('"', f);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report (*fn)(const Options&) = nullptr;
  if (opt.workload == "lookup_mix") fn = lookup_mix;
  if (opt.workload == "churn_event") fn = churn_event;
  if (opt.workload == "repair_threaded") fn = repair_threaded;
  if (fn == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::printf("e2e_bench workload=%s seed=%llu seconds=%g trace=%d size=%s "
              "workers=%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full",
              workers());
  const Report rep = fn(opt);

  for (const Metric& m : rep.metrics)
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& n : rep.notes) std::printf("  note: %s\n", n.c_str());
  std::printf("  attempted %llu failed %llu\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));

  std::printf("{\"workload\":");
  json_string(stdout, opt.workload);
  std::printf(",\"seed\":%llu,\"trace\":%d,\"size\":\"%s\",\"attempted\":%llu,"
              "\"failed\":%llu,\"metrics\":{",
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              opt.tiny ? "tiny" : "full",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i != 0) std::printf(",");
    json_string(stdout, m.name);
    std::printf(":{\"value\":%.17g,\"unit\":", m.value);
    json_string(stdout, m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
