// Object publication / location (§2.2), soft state (§6.5), and the
// object-pointer redistribution of §4.2 (Figure 9).
//
// Redistribution: when the routing mesh changes the expected path from some
// object to its root (a closer primary was adopted, a node vanished, a new
// node filled a hole), the node whose forward route changed pushes the
// object pointer up the *new* path.  Where the new path meets the old one —
// detected by finding an existing record whose last-hop differs — a delete
// message walks the old path backward via the stored last-hop links,
// removing the outdated pointers (DELETEPOINTERSBACKWARD).  This keeps
// Property 4 without republish-from-scratch traffic; plain soft-state
// republish remains as the backstop (§6.5).
#include "src/tapestry/object_directory.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/replicated_store.h"
#include "src/tapestry/sharded_store.h"

namespace tap {

namespace {

void record_locate_metrics(const LocateResult& res) {
  metrics::locate_total().inc();
  if (res.found) metrics::locate_found_total().inc();
  metrics::locate_hops().observe(static_cast<double>(res.hops));
}

}  // namespace

ObjectDirectory::ObjectDirectory(NodeRegistry& registry, Router& router,
                                 const TapestryParams& params,
                                 EventQueue& events, Rng& rng)
    : reg_(registry), router_(router), params_(params), events_(events),
      rng_(rng), cache_(params.locate_cache_size, params.locate_cache_ttl) {
  if (params.store_backend == StoreBackend::kReplicated ||
      params.store_backend == StoreBackend::kReplicatedPersistent) {
    replicator_ = std::make_unique<QuorumReplicator>(registry, params);
  }
}

ObjectDirectory::~ObjectDirectory() = default;

void ObjectDirectory::bind_transport(Transport* transport) noexcept {
  transport_ = transport;
  if (replicator_) replicator_->bind_transport(transport);
}

void ObjectDirectory::invalidate_node_cache(const NodeId& id) {
  cache_.invalidate_node(id);
  if (replicator_) replicator_->on_node_death(id);
  if (node_death_hook_) node_death_hook_(id);
}

// ---------------------------------------------------------------------
// Publish / unpublish
// ---------------------------------------------------------------------

// Publish and locate are each one per-node step run by two drivers (see
// object_directory.h).  Only the event driver can deliver to a node that
// died in the meantime, so the carrier checks (at the top of locate_step,
// and before each deposit_hop in schedule_deposit) never fire inline.

// One publish or unpublish walk toward one salted root (§2.2): the message
// in flight and the node it is being delivered to.  Node pointers stay
// valid for the registry's lifetime (dead nodes are tombstones).
struct ObjectDirectory::PointerWalk {
  Guid target{};
  TapestryNode* cur = nullptr;
  RouteState state{};
  // The record a node deposits is exactly the payload of the message that
  // arrived there (the server starts the chain locally).
  PointerRecord rec{};
  bool withdraw = false;  ///< unpublish: drop rec.server's pointer instead
};

struct ObjectDirectory::AsyncPublish {
  NodeId server{};
  Guid base{};
  unsigned salt = 0;
  PointerWalk walk{};
  Trace cost{false};
  Trace* external = nullptr;
  PublishCallback done;
};

void ObjectDirectory::check_guid(const Guid& guid) const {
  TAP_CHECK(guid.valid() && guid.spec() == params_.id,
            "guid does not match the network's IdSpec");
}

void ObjectDirectory::register_replica(const NodeId& server,
                                       const Guid& guid) {
  auto& servers = replicas_[guid];
  if (std::find(servers.begin(), servers.end(), server) == servers.end())
    servers.push_back(server);
}

PointerRecord ObjectDirectory::forward_pointer(
    MessageKind kind, const TapestryNode& from, const TapestryNode& to,
    const Guid& target, const NodeId& server, const RouteState& state,
    double expires, Trace* trace) {
  Message m = make_message(kind, from.id(), to.id(), target);
  m.server = server;
  m.last_hop = from.id();
  m.level = state.level;
  m.flag = state.past_hole;
  m.expires_at = expires;
  m = transport_->deliver(m);
  reg_.acct(trace, from, to);
  return PointerRecord{m.server, m.last_hop, m.level, m.flag, m.expires_at};
}

std::vector<TapestryNode*> ObjectDirectory::secondaries(
    const TapestryNode& cur, unsigned slot_level, const NodeId& next,
    bool live_only) const {
  std::vector<TapestryNode*> out;
  for (const auto& member :
       cur.table().at(slot_level, next.digit(slot_level)).entries()) {
    if (member.id == next || member.id == cur.id()) continue;
    TapestryNode* m = reg_.find(member.id);
    if (m == nullptr) continue;
    if (live_only && (!m->alive || !reg_.reachable(cur.id(), member.id)))
      continue;
    out.push_back(m);
  }
  return out;
}

ObjectDirectory::PointerWalk ObjectDirectory::start_walk(
    TapestryNode& server, const Guid& salted, bool withdraw) const {
  return PointerWalk{salted, &server, RouteState{},
                     PointerRecord{server.id(), std::nullopt, 0, false,
                                   events_.now() + params_.pointer_ttl},
                     withdraw};
}

std::optional<double> ObjectDirectory::deposit_hop(PointerWalk& w,
                                                   Trace* trace) {
  TapestryNode& cur = *w.cur;
  if (w.withdraw) {
    cur.store().remove(w.target, w.rec.server);
  } else {
    cur.store().upsert(w.target, w.rec);
  }
  const auto next = router_.route_step(cur, w.target, w.state, trace);
  if (!next.has_value()) {  // cur is the root
    if (replicator_ != nullptr) {
      if (w.withdraw) {
        replicator_->mirror_remove(cur, w.target, w.rec.server, trace);
      } else {
        replicator_->mirror_publish(cur, w.target, w.rec, trace);
      }
    }
    return std::nullopt;
  }
  // §2.4 PRR variant: also deposit on the secondaries of the slot being
  // routed through ("equivalent to publishing on all the secondary
  // neighbors"); queries under the same flag probe those secondaries.  A
  // withdrawal reaches every copy, even on members a deposit would skip.
  if (params_.prr_secondary_search && w.state.level >= 1) {
    for (TapestryNode* m :
         secondaries(cur, w.state.level - 1, *next, !w.withdraw)) {
      reg_.acct(trace, cur, *m, 1);
      if (w.withdraw) {
        m->store().remove(w.target, w.rec.server);
      } else {
        m->store().upsert(w.target,
                          PointerRecord{w.rec.server, cur.id(), w.state.level,
                                        w.state.past_hole, w.rec.expires_at});
      }
    }
  }
  TapestryNode& nxt = reg_.live(*next);
  w.rec = forward_pointer(
      w.withdraw ? MessageKind::kUnpublish : MessageKind::kPublishDeposit,
      cur, nxt, w.target, w.rec.server, w.state, w.rec.expires_at, trace);
  w.cur = &nxt;
  return hop_delay(cur, nxt);
}

void ObjectDirectory::walk_all_roots(TapestryNode& server, const Guid& guid,
                                     bool withdraw, Trace* trace) {
  for (unsigned salt = 0; salt < params_.root_multiplicity; ++salt) {
    PointerWalk w = start_walk(server, salted_guid(guid, salt), withdraw);
    while (deposit_hop(w, trace).has_value()) {
    }
  }
}

void ObjectDirectory::publish(NodeId server, const Guid& guid, Trace* trace) {
  TapestryNode& s = reg_.live(server);
  check_guid(guid);
  metrics::publish_total().inc();
  walk_all_roots(s, guid, /*withdraw=*/false, trace);
  register_replica(server, guid);
}

void ObjectDirectory::publish_batch(const std::vector<PublishRequest>& batch,
                                    std::size_t workers, Trace* trace,
                                    bool guarded) {
  if (batch.empty()) return;
  if (params_.prr_secondary_search) {
    // Secondary deposits mutate neighbor stores mid-walk; keep the serial
    // semantics rather than complicating the concurrent drain.  That
    // fallback routes with the unguarded mutating walk, so it must never
    // be reached from a caller racing a join wave.
    TAP_CHECK(!guarded,
              "publish_batch: guarded mode is incompatible with the "
              "prr_secondary_search serial fallback");
    for (const PublishRequest& r : batch) publish(r.server, r.guid, trace);
    return;
  }

  // Phase 0 (serial): validate and register every replica in batch order.
  for (const PublishRequest& r : batch) {
    check_guid(r.guid);
    TAP_CHECK(reg_.is_live(r.server), "publish_batch: server must be alive");
    register_replica(r.server, r.guid);
  }
  const double expires = events_.now() + params_.pointer_ttl;

  // One task per (request, salt), grouped by the salted guid's leading
  // digit: every path in a group converges into the same root region.
  struct Task {
    NodeId server{};
    Guid target{};
  };
  struct Deposit {
    TapestryNode* at = nullptr;
    PointerRecord rec{};
  };
  const unsigned radix = params_.id.radix();
  // Tasks stay in request order — every later phase applies effects in
  // task order, which makes the result match the serial publish loop
  // (down to store iteration order; trace latency up to floating-point
  // summation order).  The per-root groups
  // only schedule phase 1: group g holds the indices of the tasks whose
  // salted guid leads with digit g, the root region their paths share.
  std::vector<Task> tasks;
  std::vector<std::vector<std::size_t>> groups(radix);
  for (const PublishRequest& r : batch) {
    for (unsigned salt = 0; salt < params_.root_multiplicity; ++salt) {
      const Guid target = salted_guid(r.guid, salt);
      groups[target.digit(0)].push_back(tasks.size());
      tasks.push_back(Task{r.server, target});
    }
  }
  const std::size_t n_tasks = tasks.size();

  // Phase 1: walk every publish path with the mutation-free peek router —
  // any number of threads may read the quiescent mesh — collecting the
  // deposits and per-task cost accounting.  Drained group by group.  In
  // guarded mode each routing decision additionally takes the current
  // node's stripe lock, so the walk synchronises with a thread-parallel
  // join wave mutating the tables underneath it.
  std::vector<std::vector<Deposit>> deposits(n_tasks);
  std::vector<Trace> task_traces(n_tasks);
  const NodeLockTable& locks = reg_.node_locks();
  parallel_for(
      radix,
      [&](std::size_t d) {
        for (const std::size_t t : groups[d]) {
          const Task& task = tasks[t];
          TapestryNode* cur = &reg_.live(task.server);
          RouteState state;
          // As in deposit_hop: each deposit is the payload of the publish
          // message that arrived at the depositing node.
          PointerRecord arriving{task.server, std::nullopt, 0, false,
                                 expires};
          for (;;) {
            deposits[t].push_back(Deposit{cur, arriving});
            std::optional<NodeLockTable::Guard> g;
            if (guarded) g.emplace(locks, cur->id());
            const auto next =
                router_.route_step_peek(cur->id(), task.target, state);
            g.reset();
            if (!next.has_value()) break;  // cur is the root
            TapestryNode* nxt = reg_.find(*next);
            TAP_ASSERT(nxt != nullptr);
            arriving = forward_pointer(MessageKind::kPublishDeposit, *cur,
                                       *nxt, task.target, task.server, state,
                                       expires, &task_traces[t]);
            cur = nxt;
          }
        }
      },
      workers);

  // Phase 2: drain the deposits concurrently.  The safety partition
  // depends on the backend: a plain store may only be touched by one
  // worker at a time, so deposits group by the registry shard of the
  // receiving node (the PR 3 scheme).  A striped backend (ShardedStore)
  // additionally splits each shard's work by the target guid's lock
  // stripe — workers hitting the same node's store then always hold
  // different stripes, so up to kShardCount * kStripeCount groups drain
  // at once instead of serializing whole shards.  Either way a given
  // (node, guid) pair always lands in exactly one group and each group
  // applies its deposits in task order, so the store contents match the
  // serial publish loop record for record, whatever the worker count.
  const std::size_t stripes =
      params_.store_backend == StoreBackend::kSharded
          ? ShardedStore::kStripeCount
          : 1;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_group(
      NodeRegistry::kShardCount * stripes);  // (task, deposit) indices
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const std::size_t stripe =
        stripes == 1 ? 0 : ShardedStore::stripe_of(tasks[t].target);
    for (std::size_t k = 0; k < deposits[t].size(); ++k)
      by_group[reg_.shard_of(deposits[t][k].at->id()) * stripes + stripe]
          .emplace_back(t, k);
  }
  parallel_for(
      by_group.size(),
      [&](std::size_t g) {
        for (const auto& [t, k] : by_group[g]) {
          const Deposit& dep = deposits[t][k];
          dep.at->store().upsert(tasks[t].target, dep.rec);
        }
      },
      workers);

  // Phase 3 (serial): the quorum mirrors of each path's root deposit, in
  // task order — the order the serial publish loop writes them.  Mirrors
  // land in the holders' replica areas, which phase 2 never touches.
  if (replicator_ != nullptr) {
    for (std::size_t t = 0; t < n_tasks; ++t) {
      const Deposit& root = deposits[t].back();
      replicator_->mirror_publish(*root.at, tasks[t].target, root.rec,
                                  &task_traces[t]);
    }
  }

  // Accounting lands in task order, independent of phase scheduling.
  if (trace != nullptr)
    for (const Trace& t : task_traces) trace->absorb(t);
}

void ObjectDirectory::unpublish(NodeId server, const Guid& guid,
                                Trace* trace) {
  TapestryNode& s = reg_.checked(server);
  metrics::unpublish_total().inc();
  walk_all_roots(s, guid, /*withdraw=*/true, trace);
  auto it = replicas_.find(guid);
  if (it != replicas_.end()) {
    auto& servers = it->second;
    servers.erase(std::remove(servers.begin(), servers.end(), server),
                  servers.end());
    if (servers.empty()) replicas_.erase(it);
  }
  // Cached hints may name the withdrawn replica; drop them all rather than
  // letting every holder verification discover the removal one probe at a
  // time.  (Verification would still keep the answers correct — this is
  // the eager half of the invalidation contract.)
  cache_.invalidate_object(guid);
}

void ObjectDirectory::publish_async(NodeId server, const Guid& guid,
                                    Trace* trace, PublishCallback done) {
  check_guid(guid);
  TAP_CHECK(reg_.is_live(server), "publish_async: server must be alive");
  metrics::publish_total().inc();
  // The replica exists from this instant; the directory catches up hop by
  // hop (queries racing the deposit may legitimately miss meanwhile).
  register_replica(server, guid);
  auto op = std::make_shared<AsyncPublish>();
  op->server = server;
  op->base = guid;
  op->external = trace;
  op->done = std::move(done);
  ++in_flight_;
  begin_publish_path(op);
}

void ObjectDirectory::begin_publish_path(
    const std::shared_ptr<AsyncPublish>& op) {
  if (op->salt >= params_.root_multiplicity || !reg_.is_live(op->server)) {
    if (op->external != nullptr) op->external->absorb(op->cost);
    --in_flight_;
    if (op->done) op->done();
    return;
  }
  op->walk = start_walk(reg_.live(op->server), salted_guid(op->base, op->salt),
                        /*withdraw=*/false);
  schedule_deposit(op, 0.0);
}

void ObjectDirectory::schedule_deposit(const std::shared_ptr<AsyncPublish>& op,
                                       double delay) {
  events_.schedule_in(delay, [this, op] {
    // A carrier that died under the message loses this path; soft-state
    // republish restores it (§6.5).  Either way a finished path moves on
    // to the next root name.
    if (op->walk.cur->alive) {
      if (const auto next = deposit_hop(op->walk, &op->cost)) {
        schedule_deposit(op, *next);
        return;
      }
    }
    ++op->salt;
    begin_publish_path(op);
  });
}

// ---------------------------------------------------------------------
// Locate
// ---------------------------------------------------------------------

std::optional<PointerRecord> ObjectDirectory::pick_live_replica(
    TapestryNode& holder, const Guid& target,
    const TapestryNode& relative_to) {
  // Prefer the replica closest to the reference node (§2.2); prune
  // pointers to dead servers that would have been examined on the way to
  // it (lazy soft-state decay).  One visitor pass over the backend instead
  // of copy-and-sort: the winner is the live record minimizing
  // (distance, server), and a dead record is pruned iff its key sorts
  // ahead of the winner's — exactly the records the old sorted loop
  // stepped over.  Each record's distance is computed once.
  const double now = events_.now();
  std::optional<PointerRecord> best;
  double best_d = 0.0;
  struct DeadRecord {
    double d;
    NodeId server;
  };
  std::vector<DeadRecord> dead;  // removal deferred: the visitor must not
                                 // mutate the store it is iterating
  holder.store().for_each_of(
      target, [&](const Guid&, const PointerRecord& r) {
        if (r.expires_at < now) return;  // expired records are invisible
        // A replica on the far side of an active partition is unavailable
        // but *alive*: skip it without pruning — its record must survive
        // the cut so healing restores it for free.
        if (!reg_.reachable(holder.id(), r.server)) return;
        const double d = reg_.distance(relative_to.id(), r.server);
        if (reg_.is_live(r.server)) {
          if (!best.has_value() || d < best_d ||
              (d == best_d && r.server < best->server)) {
            best = r;
            best_d = d;
          }
        } else {
          dead.push_back(DeadRecord{d, r.server});
        }
      });
  for (const auto& dr : dead) {
    if (best.has_value() &&
        !(dr.d < best_d || (dr.d == best_d && dr.server < best->server)))
      continue;  // sorts after the winner: the old loop never reached it
    holder.store().remove(target, dr.server);
  }
  return best;
}

void ObjectDirectory::cache_fill_path(const Guid& base,
                                      const std::vector<NodeId>& path,
                                      const Guid& via, const NodeId& holder,
                                      const PointerRecord& rec) {
  if (!cache_.enabled()) return;
  const double now = events_.now();
  for (const NodeId& at : path) {
    if (at == holder) continue;  // the holder has the real record
    cache_.insert(at, base,
                  LocateCache::Entry{via, holder, rec.server, rec.expires_at},
                  now);
  }
}

// One locate (§2.2): what a synchronous walk would keep on its stack, made
// explicit so either driver can run locate_step over it.  Node pointers
// stay valid for the registry's lifetime (dead nodes are tombstones).
struct ObjectDirectory::LocateOp {
  enum class Phase {
    kWalk,    ///< at `cur` on the walk toward the salted root
    kVerify,  ///< jumped to a cached holder (`cur`): verify its store there
    kLeg,     ///< pointer found: heading for `replica` (§2.2, Figure 3)
  };
  Guid base{};
  TapestryNode* client = nullptr;
  unsigned first_salt = 0;
  unsigned attempts = 1;
  unsigned attempt = 0;
  // Set by the event driver: other events fire between two steps, so a
  // replica may die while the final leg is heading for it.
  bool interleaved = false;
  // Per-attempt cursor (reset by begin_locate_attempt).
  Phase phase = Phase::kWalk;
  Guid target{};
  TapestryNode* cur = nullptr;
  RouteState state{};
  std::unordered_set<std::uint64_t> visited{};  // loop guard (§4.3)
  Router::ExcludeSet excluded{};  // inserting nodes bounced off (Figure 10)
  // Nodes this attempt's walk has passed through; on success each one gets
  // a locate-cache hint pointing at the resolving holder.
  std::vector<NodeId> path{};
  // kVerify: the hint's salted name (it may differ from this attempt's
  // target) and the node the walk resumes at if verification fails.
  Guid cache_target{};
  TapestryNode* cache_from = nullptr;
  // kLeg: the replica the found pointer names, and the exact-id route to it.
  NodeId replica{};
  RouteState leg_state{};
  // Every message of the op is charged to *trace; the result's hops and
  // latency are the trace's growth over the whole op.
  Trace* trace = nullptr;
  std::size_t msgs0 = 0;
  double lat0 = 0.0;
  LocateResult res{};
};

struct ObjectDirectory::AsyncLocate {
  LocateOp op;
  // Overlapping operations would interleave in a shared trace, so each one
  // accounts privately and the total is absorbed at completion.
  Trace cost{false};
  Trace* external = nullptr;
  LocateCallback done;
};

ObjectDirectory::LocateOp ObjectDirectory::start_locate(TapestryNode& client,
                                                        const Guid& guid,
                                                        Trace* cost) {
  LocateOp op;
  op.base = guid;
  op.client = &client;
  // "At the beginning of the query, we select a root randomly from R_psi."
  op.first_salt = params_.root_multiplicity == 1
                      ? 0
                      : static_cast<unsigned>(
                            rng_.next_u64(params_.root_multiplicity));
  // Observation 1: when enabled, a miss retries the remaining independent
  // root names, accumulating cost; the first hit wins.
  op.attempts = params_.retry_all_roots ? params_.root_multiplicity : 1;
  op.trace = cost;
  op.msgs0 = cost->messages();
  op.lat0 = cost->latency();
  begin_locate_attempt(op);
  return op;
}

void ObjectDirectory::begin_locate_attempt(LocateOp& op) const {
  op.phase = LocateOp::Phase::kWalk;
  op.target = salted_guid(
      op.base, (op.first_salt + op.attempt) % params_.root_multiplicity);
  op.cur = op.client;
  op.state = RouteState{};
  op.visited.clear();
  op.excluded.clear();
  op.path.clear();
  op.res = LocateResult{};  // a diverted leg may have left partial fields
}

std::optional<double> ObjectDirectory::end_locate_attempt(LocateOp& op) {
  if (++op.attempt < op.attempts) {
    begin_locate_attempt(op);
    return 0.0;
  }
  // A miss reports no "last known location", even if a diverted final leg
  // had already named a pointer holder and server.
  op.res = LocateResult{};
  return finish_locate(op);
}

std::optional<double> ObjectDirectory::finish_locate(LocateOp& op) {
  op.res.hops = op.trace->messages() - op.msgs0;
  op.res.latency = op.trace->latency() - op.lat0;
  record_locate_metrics(op.res);
  return std::nullopt;
}

double ObjectDirectory::send_locate_message(const LocateOp& op,
                                            const TapestryNode& from,
                                            const TapestryNode& to,
                                            std::size_t msgs) {
  (void)transport_->deliver(
      make_message(MessageKind::kLocateStep, from.id(), to.id(), op.target));
  reg_.acct(op.trace, from, to, msgs);
  return hop_delay(from, to);
}

std::optional<double> ObjectDirectory::resolve_at(LocateOp& op,
                                                  TapestryNode& holder,
                                                  const PointerRecord& rec,
                                                  const Guid& via) {
  op.res.pointer_node = holder.id();
  // The pointer hit travels as a message naming the replica; the final leg
  // routes toward the server the delivered copy names.
  Message found =
      make_message(MessageKind::kLocateFound, holder.id(), rec.server, via);
  found.server = rec.server;
  found = transport_->deliver(found);
  op.res.server = found.server;
  cache_fill_path(op.base, op.path, via, holder.id(), rec);
  if (found.server == holder.id()) {  // the pointer holder is the replica
    op.res.found = true;
    return finish_locate(op);
  }
  op.phase = LocateOp::Phase::kLeg;
  op.replica = found.server;
  op.leg_state = RouteState{};
  op.cur = &holder;
  return 0.0;
}

std::optional<double> ObjectDirectory::locate_step(LocateOp& op) {
  using Phase = LocateOp::Phase;
  TapestryNode* at = op.cur;
  const bool delivered = at->alive;

  if (op.phase == Phase::kVerify) {
    // The jump to a remembered holder has landed (or tried to): re-read its
    // real store.  Everything may have changed since the hint was learned —
    // holder crashed, record unpublished, expired or rerouted away, named
    // replica dead — and each of those must behave exactly as the uncached
    // walk would have: resume routing, don't fail.
    if (delivered) {
      if (auto rec = pick_live_replica(*at, op.cache_target, *at);
          rec.has_value())
        return resolve_at(op, *at, *rec, op.cache_target);
    }
    // Verification failed: drop the hint, bounce back to where the walk
    // left off, and re-run that node's handler from the top (which records
    // it on the path again).  If that node died meanwhile, the attempt is
    // lost like any other carrier death.
    cache_.erase(op.cache_from->id(), op.base);
    cache_.note_fallback();
    op.path.pop_back();
    TapestryNode* from = op.cache_from;
    if (!from->alive) return end_locate_attempt(op);
    op.phase = Phase::kWalk;
    op.cur = op.cache_from;
    return send_locate_message(op, *at, *from);
  }

  // The node carrying the query died while the message was in flight: this
  // root attempt is lost (retried on the remaining roots under
  // retry_all_roots).
  if (!delivered) return end_locate_attempt(op);
  TapestryNode& cur = *at;
  Trace* t = op.trace;

  if (op.phase == Phase::kLeg) {
    if (cur.id() == op.replica) {  // arrived at the replica
      op.res.found = true;
      return finish_locate(op);
    }
    // One exact-id routing decision toward the replica.  route_step hands
    // back live nodes only; if the replica crashed after the pointer was
    // read, lazy repair purges it and the walk ends at its surrogate
    // instead — a lost attempt, like any other in-flight casualty.
    const auto next = router_.route_step(cur, op.replica, op.leg_state, t);
    if (!next.has_value()) {
      // Otherwise only a partition can divert exact-id routing: the replica
      // is alive and same-side as the holder, but the side-local digit path
      // may lack the entries needed to land on it exactly.  The query
      // dead-ends at a surrogate — a miss, not a bug.
      TAP_ASSERT_MSG(op.interleaved || reg_.partition_active(),
                     "exact-id routing must terminate at the server");
      return end_locate_attempt(op);
    }
    TapestryNode& nxt = reg_.live(*next);
    Message hop =
        make_message(MessageKind::kRouteHop, cur.id(), nxt.id(), op.replica);
    hop.level = op.leg_state.level;
    hop.flag = op.leg_state.past_hole;
    hop = transport_->deliver(hop);
    op.leg_state = RouteState{hop.level, hop.flag};
    reg_.acct(t, cur, nxt);
    op.cur = &nxt;
    return hop_delay(cur, nxt);
  }

  // Check the current node for a pointer before routing further.
  if (auto rec = pick_live_replica(cur, op.target, cur); rec.has_value()) {
    op.path.push_back(cur.id());
    return resolve_at(op, cur, *rec, op.target);
  }

  // A remembered resolution short-circuits the walk: jump one message to
  // the cached holder and verify its real store when the message lands
  // (kVerify).  Checked after the authoritative store and before the loop
  // guard: a failed verification resumes the walk here, and that
  // resumption must not count as a revisit.
  if (cache_.enabled()) {
    if (auto ce = cache_.lookup(cur.id(), op.base, events_.now());
        ce.has_value()) {
      TapestryNode* h = reg_.find(ce->holder);
      if (h != nullptr && h->alive && !(h->id() == cur.id()) &&
          reg_.reachable(cur.id(), h->id())) {
        op.path.push_back(cur.id());
        op.phase = Phase::kVerify;
        op.cache_target = ce->target;
        op.cache_from = &cur;
        op.cur = h;
        return send_locate_message(op, cur, *h);
      }
      cache_.erase(cur.id(), op.base);
    }
  }

  op.path.push_back(cur.id());
  if (!op.visited.insert(cur.id().value()).second)  // loop -> miss (§4.3)
    return end_locate_attempt(op);

  const unsigned level_before = op.state.level;
  const auto next = router_.route_step(
      cur, op.target, op.state, t,
      op.excluded.empty() ? nullptr : &op.excluded);
  if (next.has_value()) {
    // §2.4 PRR variant: before taking the hop, probe the *secondary*
    // members of the slot being routed through for pointers (the primary
    // is about to be visited anyway).
    if (params_.prr_secondary_search) {
      TAP_ASSERT(op.state.level >= 1);
      const unsigned slot_level = op.state.level - 1 >= level_before
                                      ? op.state.level - 1
                                      : level_before;
      for (TapestryNode* m : secondaries(cur, slot_level, *next, true)) {
        (void)send_locate_message(op, cur, *m, 2);  // probe round trip
        if (auto rec = pick_live_replica(*m, op.target, cur);
            rec.has_value())
          return resolve_at(op, *m, *rec, op.target);
      }
    }
    TapestryNode& nxt = reg_.live(*next);
    Message q =
        make_message(MessageKind::kLocateStep, cur.id(), nxt.id(), op.target);
    q.level = op.state.level;
    q.flag = op.state.past_hole;
    q = transport_->deliver(q);
    op.state = RouteState{q.level, q.flag};
    reg_.acct(t, cur, nxt);
    op.cur = &nxt;
    return hop_delay(cur, nxt);
  }

  // cur is the root and has no pointer.  If cur is still inserting, the
  // pointer may not have been transferred yet: send the request back out at
  // the hole level to the surrogate, which routes it as if the new node had
  // not yet entered the network (Figure 10).
  if (cur.inserting && cur.psurrogate.has_value() &&
      reg_.is_live(*cur.psurrogate)) {
    op.excluded.insert(cur.id().value());
    TapestryNode& sur = reg_.live(*cur.psurrogate);
    const double delay = send_locate_message(op, cur, sur);
    // Resume at the level of the hole the inserting node fills.  The
    // re-route may legally revisit earlier nodes; termination is guaranteed
    // because each bounce permanently excludes one more inserting node.
    op.state.level = cur.id().common_prefix_len(sur.id());
    op.visited.clear();
    op.cur = &sur;
    return delay;
  }

  // Quorum fallback: the root lost its records (typically it is a fresh
  // surrogate after the old root died).  Read R-of-N from the holder set,
  // install the merged records here so future queries hit the fast path,
  // and resolve as if the root had held them all along.
  if (replicator_ != nullptr) {
    const auto merged =
        replicator_->quorum_read(cur, op.target, events_.now(), t);
    if (!merged.empty()) {
      for (const PointerRecord& r : merged) cur.store().upsert(op.target, r);
      if (auto rec = pick_live_replica(cur, op.target, cur); rec.has_value())
        return resolve_at(op, cur, *rec, op.target);
    }
  }
  return end_locate_attempt(op);  // definitive miss for this root
}

LocateResult ObjectDirectory::locate(NodeId client, const Guid& guid,
                                     Trace* trace) {
  TapestryNode& c = reg_.live(client);
  check_guid(guid);
  Trace local(false);
  LocateOp op = start_locate(c, guid, trace != nullptr ? trace : &local);
  while (locate_step(op).has_value()) {
  }
  return op.res;
}

void ObjectDirectory::locate_async(NodeId client, const Guid& guid,
                                   LocateCallback done, Trace* trace) {
  TAP_CHECK(static_cast<bool>(done), "locate_async requires a callback");
  check_guid(guid);
  TAP_CHECK(reg_.is_live(client), "locate_async: client must be alive");
  auto op = std::make_shared<AsyncLocate>();
  op->op = start_locate(reg_.live(client), guid, &op->cost);
  op->op.interleaved = true;
  op->external = trace;
  op->done = std::move(done);
  ++in_flight_;
  schedule_locate(op, 0.0);
}

void ObjectDirectory::schedule_locate(const std::shared_ptr<AsyncLocate>& op,
                                      double delay) {
  events_.schedule_in(delay, [this, op] {
    if (const auto next = locate_step(op->op)) {
      schedule_locate(op, *next);
      return;
    }
    if (op->external != nullptr) op->external->absorb(op->cost);
    --in_flight_;
    op->done(op->op.res);
  });
}

// ---------------------------------------------------------------------
// Soft state (§6.5)
// ---------------------------------------------------------------------

void ObjectDirectory::republish_server(NodeId server, Trace* trace) {
  if (!reg_.is_live(server)) return;
  for (const auto& [guid, servers] : replicas_) {
    if (std::find(servers.begin(), servers.end(), server) != servers.end())
      walk_all_roots(reg_.live(server), guid, /*withdraw=*/false, trace);
  }
}

void ObjectDirectory::republish_all(Trace* trace) {
  for (const auto& [guid, servers] : replicas_) {
    for (const NodeId& server : servers) {
      if (reg_.is_live(server))
        walk_all_roots(reg_.live(server), guid, /*withdraw=*/false, trace);
    }
  }
}

void ObjectDirectory::expire_pointers(std::size_t workers) {
  const double now = events_.now();
  // Snapshot under the registry's append mutex rather than iterating
  // nodes_ raw: a thread-parallel join wave may be registering nodes while
  // this sweep races it, and the snapshot pins a stable prefix (joins
  // never touch stores, so the per-node sweeps themselves race nothing —
  // with a striped backend not even concurrent guarded deposits).
  const std::vector<TapestryNode*> nodes = reg_.nodes_snapshot();
  if (workers <= 1) {
    for (TapestryNode* n : nodes)
      if (n->alive) n->store().remove_expired(now);
    return;
  }
  // Per-node sweeps are independent (one store each), so the fan-out is
  // safe with every backend and the result identical to the serial loop.
  parallel_for(
      nodes.size(),
      [&](std::size_t i) {
        if (nodes[i]->alive) nodes[i]->store().remove_expired(now);
      },
      workers);
}

// ---------------------------------------------------------------------
// Checkpoint / restore (persistent backend)
// ---------------------------------------------------------------------

void ObjectDirectory::checkpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  TAP_CHECK(!ec, "checkpoint: cannot create " + dir);
  // Push every store's buffered durable state first: the manifest must
  // never describe records the WALs have not seen.
  for (const auto& n : reg_.nodes()) n->store().flush();

  const std::string tmp = dir + "/manifest.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  TAP_CHECK(f != nullptr, "checkpoint: cannot write " + tmp);
  std::fprintf(f, "T %.17g\n", events_.now());
  for (const auto& n : reg_.nodes())
    if (n->alive)
      std::fprintf(f, "N %llx %zu\n",
                   static_cast<unsigned long long>(n->id().value()),
                   n->location());
  for (const auto& [guid, servers] : replicas_)
    for (const NodeId& s : servers)
      std::fprintf(f, "O %llx %llx\n",
                   static_cast<unsigned long long>(guid.value()),
                   static_cast<unsigned long long>(s.value()));
  // Verify before the atomic publish: renaming a truncated manifest over
  // the previous good one would make the next restore silently rebuild a
  // smaller overlay.
  const bool wrote = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  TAP_CHECK(wrote && closed, "checkpoint: manifest write failed in " + dir);
  std::filesystem::rename(tmp, dir + "/manifest", ec);
  TAP_CHECK(!ec, "checkpoint: cannot publish " + dir + "/manifest");
}

ObjectDirectory::CheckpointManifest ObjectDirectory::read_manifest(
    const std::string& dir) {
  CheckpointManifest m;
  const std::string path = dir + "/manifest";
  std::FILE* f = std::fopen(path.c_str(), "r");
  TAP_CHECK(f != nullptr, "read_manifest: cannot read " + path);
  char line[128];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == 'T') {
      TAP_CHECK(std::sscanf(line, "T %lf", &m.time) == 1,
                "read_manifest: bad T line");
    } else if (line[0] == 'N') {
      unsigned long long id = 0;
      std::size_t loc = 0;
      TAP_CHECK(std::sscanf(line, "N %llx %zu", &id, &loc) == 2,
                "read_manifest: bad N line");
      m.nodes.emplace_back(id, loc);
    } else if (line[0] == 'O') {
      unsigned long long g = 0, s = 0;
      TAP_CHECK(std::sscanf(line, "O %llx %llx", &g, &s) == 2,
                "read_manifest: bad O line");
      m.replicas.emplace_back(g, s);
    } else {
      TAP_CHECK(line[0] == '\n' || line[0] == '\0',
                "read_manifest: unknown line kind in " + path);
    }
  }
  std::fclose(f);
  return m;
}

double ObjectDirectory::restore(const std::string& dir) {
  const CheckpointManifest m = read_manifest(dir);
  replicas_.clear();
  for (const auto& [g, s] : m.replicas)
    replicas_[Guid(params_.id, g)].push_back(NodeId(params_.id, s));
  return m.time;
}

void ObjectDirectory::start_soft_state(double republish_every,
                                       double expiry_every, Trace* trace) {
  stop_soft_state();
  if (republish_every > 0.0) schedule_republish_tick(republish_every, trace);
  if (expiry_every > 0.0) schedule_expiry_tick(expiry_every);
}

void ObjectDirectory::stop_soft_state() {
  if (republish_event_.has_value()) {
    events_.cancel(*republish_event_);
    republish_event_.reset();
  }
  if (expiry_event_.has_value()) {
    events_.cancel(*expiry_event_);
    expiry_event_.reset();
  }
}

void ObjectDirectory::schedule_republish_tick(double every, Trace* trace) {
  republish_event_ = events_.schedule_in(every, [this, every, trace] {
    republish_event_.reset();
    // Each live replica refreshes event-driven, so the refresh walks
    // interleave with everything else on the queue — unlike the atomic
    // republish_all the synchronous experiments use.  Snapshot first:
    // publish_async touches the registry we are iterating.
    const auto pairs = published();
    for (const auto& [guid, server] : pairs)
      if (reg_.is_live(server)) publish_async(server, guid, trace);
    schedule_republish_tick(every, trace);
  });
}

void ObjectDirectory::schedule_expiry_tick(double every) {
  expiry_event_ = events_.schedule_in(every, [this, every] {
    expiry_event_.reset();
    expire_pointers();
    schedule_expiry_tick(every);
  });
}

// ---------------------------------------------------------------------
// Pointer maintenance (§4.2, Figure 9)
// ---------------------------------------------------------------------

std::optional<NodeId> ObjectDirectory::pointer_next_hop(
    const TapestryNode& at, const Guid& guid,
    const PointerRecord& record) const {
  // Raw table walk: selection ignores liveness, exactly as the node itself
  // would route before discovering a corpse.  Deterministic in the table
  // contents, which is what "did the path change" must compare.
  RouteState state{record.level, record.past_hole};
  const unsigned digits = params_.id.num_digits;
  while (state.level < digits) {
    auto j = router_.select_slot(at, state.level, guid.digit(state.level),
                                 state.past_hole);
    TAP_ASSERT_MSG(j.has_value(), "routing row with no filled slot");
    const auto prim = at.table().at(state.level, *j).primary();
    TAP_ASSERT(prim.has_value());
    ++state.level;
    if (!(*prim == at.id())) return prim;
  }
  return std::nullopt;
}

std::vector<ObjectDirectory::PendingReroute>
ObjectDirectory::snapshot_pointer_hops(const TapestryNode& at,
                                       const NodeLockTable* locks) const {
  // The store snapshot synchronises itself (sharded backend); under
  // `locks` the table walk per record runs under `at`'s stripe so no
  // concurrent repair half-writes a row out from under the selector.
  const auto records = at.store().snapshot();
  std::vector<PendingReroute> out;
  out.reserve(records.size());
  std::optional<NodeLockTable::Guard> g;
  if (locks != nullptr) g.emplace(*locks, at.id());
  for (const auto& [guid, rec] : records)
    out.push_back(PendingReroute{guid, rec, pointer_next_hop(at, guid, rec)});
  return out;
}

void ObjectDirectory::reroute_changed_pointers(
    TapestryNode& at, const std::vector<PendingReroute>& before, Trace* trace,
    const NodeLockTable* locks) {
  for (const auto& p : before) {
    // The record may have been refreshed or dropped meanwhile; re-read.
    const auto current = at.store().find(p.guid, p.record.server);
    if (!current.has_value()) continue;
    std::optional<NodeId> now_hop;
    {
      std::optional<NodeLockTable::Guard> g;
      if (locks != nullptr) g.emplace(*locks, at.id());
      now_hop = pointer_next_hop(at, p.guid, *current);
    }
    if (now_hop == p.next_hop) continue;
    optimize_pointer(at, p.guid, *current, trace, locks);
  }
}

void ObjectDirectory::optimize_pointer(TapestryNode& from, const Guid& guid,
                                       const PointerRecord& record,
                                       Trace* trace,
                                       const NodeLockTable* locks) {
  const NodeId changed = from.id();
  RouteState state{record.level, record.past_hole};
  TapestryNode* prev = &from;
  for (;;) {
    std::optional<NodeId> step;
    if (locks == nullptr) {
      step = router_.route_step(*prev, guid, state, trace);
    } else {
      // Inside a thread-parallel wave every routing decision uses the
      // mutation-free peek under the deciding node's stripe — never the
      // mutating route_step, whose lazy repair would re-enter the table
      // surgery that belongs to the wave itself.  A row left transiently
      // without a live slot mid-wave aborts the walk;
      // repair_pointer_chains() re-pushes whatever was cut short once the
      // wave settles.
      try {
        NodeLockTable::Guard g(*locks, prev->id());
        step = router_.route_step_peek(prev->id(), guid, state);
      } catch (const CheckError&) {
        return;  // transiently unroutable under the race
      }
    }
    if (!step.has_value()) return;
    TapestryNode& v = reg_.live(*step);
    const PointerRecord arriving =
        forward_pointer(MessageKind::kPointerOptimize, *prev, v, guid,
                        record.server, state, record.expires_at, trace);
    const auto existing = v.store().find(guid, record.server);
    const std::optional<NodeId> old_sender =
        existing.has_value() ? existing->last_hop : std::nullopt;
    v.store().upsert(guid, arriving);
    if (existing.has_value() && old_sender.has_value() &&
        !(*old_sender == prev->id())) {
      // Converged onto the old path: above here nothing changed.  Prune the
      // outdated branch backward along last-hop links.  delete_backward
      // touches only stores (backend-synchronised), never routing tables,
      // and its confirm-then-delete structure keeps racy interleavings on
      // the under-deletion side, which soft-state expiry absorbs.
      if (!(*old_sender == changed))
        delete_backward(v.id(), *old_sender, guid, record.server, changed, trace);
      return;
    }
    prev = &v;
  }
}

void ObjectDirectory::delete_backward(const NodeId& notifier,
                                      const NodeId& start, const Guid& guid,
                                      const NodeId& server,
                                      const NodeId& changed, Trace* trace) {
  // Two passes.  The paper's delete message walks the *changed node's* old
  // branch backward via last-hop links; but a record's last hop may belong
  // to a different deposit (the server's own publish path), in which case
  // walking blindly would destroy live pointers — including, ultimately,
  // the server's own record.  So first confirm that the chain actually
  // leads back to the changed node; only then delete it.  Unconfirmed
  // chains are left to soft-state expiry (§6.5) — under-deletion is safe,
  // over-deletion breaks Property 4.
  std::vector<NodeId> chain;
  bool confirmed = false;
  NodeId cur = start;
  for (unsigned i = 0; i <= params_.id.num_digits + 1; ++i) {
    if (cur == changed) {
      confirmed = true;
      break;
    }
    TapestryNode* w = reg_.find(cur);
    if (w == nullptr) break;
    const auto rec = w->store().find(guid, server);
    if (!rec.has_value()) break;
    if (!rec->last_hop.has_value()) break;  // reached the server's record
    chain.push_back(cur);
    cur = *rec->last_hop;
  }
  if (!confirmed) return;
  const TapestryNode* prev = nullptr;
  NodeId victim = server;
  NodeId sender = notifier;
  for (const NodeId& id : chain) {
    TapestryNode* w = reg_.find(id);
    TAP_ASSERT(w != nullptr);
    // Every link of the backward chain is a wire message — the converge
    // node originates the first; accounting stays on the chain links the
    // pre-seam code charged.
    Message m = make_message(MessageKind::kDeleteBackward, sender, id, guid);
    m.server = victim;
    m = transport_->deliver(m);
    victim = m.server;
    if (prev != nullptr) reg_.acct(trace, *prev, *w);
    w->store().remove(guid, victim);
    prev = w;
    sender = id;
  }
}

std::size_t ObjectDirectory::repair_pointer_chains(Trace* trace) {
  // Serial, quiescent.  Interleaved guarded reroutes can strand a record:
  // thread A snapshots holder H, thread B's walk then deposits a record on
  // H, and A's table mutation + reroute never revisits it (A's snapshot
  // predates the deposit).  Detect exactly that — a record whose current
  // next hop does not hold it — and re-push forward from the holder.
  std::size_t fixed = 0;
  for (unsigned round = 0; round <= params_.id.num_digits; ++round) {
    std::size_t fixed_this_round = 0;
    for (const auto& n : reg_.nodes()) {
      if (!n->alive) continue;
      for (const auto& [guid, rec] : n->store().snapshot()) {
        const auto hop = pointer_next_hop(*n, guid, rec);
        if (!hop.has_value()) continue;  // at the record's root
        TapestryNode* h = reg_.find(*hop);
        if (h != nullptr && h->alive &&
            h->store().find(guid, rec.server).has_value())
          continue;
        optimize_pointer(*n, guid, rec, trace);
        ++fixed_this_round;
      }
    }
    fixed += fixed_this_round;
    if (fixed_this_round == 0) break;
  }
  return fixed;
}

// ---------------------------------------------------------------------
// Ground truth / oracle accessors
// ---------------------------------------------------------------------

std::vector<NodeId> ObjectDirectory::servers_of(const Guid& guid) const {
  std::vector<NodeId> out;
  auto it = replicas_.find(guid);
  if (it == replicas_.end()) return out;
  for (const NodeId& s : it->second)
    if (reg_.is_live(s)) out.push_back(s);
  return out;
}

std::vector<std::pair<Guid, NodeId>> ObjectDirectory::published() const {
  std::vector<std::pair<Guid, NodeId>> out;
  for (const auto& [guid, servers] : replicas_)
    for (const NodeId& s : servers) out.emplace_back(guid, s);
  return out;
}

std::vector<Guid> ObjectDirectory::guids_served_by(
    const NodeId& server) const {
  std::vector<Guid> out;
  for (const auto& [guid, servers] : replicas_)
    if (std::find(servers.begin(), servers.end(), server) != servers.end())
      out.push_back(guid);
  return out;
}

double ObjectDirectory::distance_to_nearest_replica(const NodeId& client,
                                                    const Guid& guid) const {
  double best = std::numeric_limits<double>::infinity();
  auto it = replicas_.find(guid);
  if (it == replicas_.end()) return best;
  for (const NodeId& s : it->second)
    if (reg_.is_live(s)) best = std::min(best, reg_.distance(client, s));
  return best;
}

void ObjectDirectory::check_property4() {
  const double now = events_.now();
  for (const auto& [guid, servers] : replicas_) {
    for (const NodeId& server : servers) {
      if (!reg_.is_live(server)) continue;
      for (unsigned salt = 0; salt < params_.root_multiplicity; ++salt) {
        const Guid target = salted_guid(guid, salt);
        RouteState state;
        TapestryNode* cur = &reg_.live(server);
        for (;;) {
          const auto recs = cur->store().find_live(target, now);
          bool has = false;
          for (const auto& r : recs)
            if (r.server == server) has = true;
          TAP_CHECK(has, "Property 4 violated: node " + cur->id().to_string() +
                             " on the publish path of " + target.to_string() +
                             " (server " + server.to_string() +
                             ") lacks the pointer");
          auto next = router_.route_step(*cur, target, state, nullptr);
          if (!next.has_value()) break;
          cur = &reg_.live(*next);
        }
      }
    }
  }
}

}  // namespace tap
