// ObjectDirectory: object publication, location and pointer maintenance.
//
// Covers the paper's object layer: publish / locate / unpublish (§2.2),
// object-pointer redistribution when the routing mesh changes (§4.2,
// Figure 9), and soft-state republish/expiry (§6.5).  It also owns the
// ground-truth replica registry (base guid -> servers) that drives
// republish_all and the test oracles; the routing algorithms never read it.
//
// The directory routes through the Router (so publishes and queries pay
// real routing costs and trigger the same lazy repair) and stores pointers
// in the per-node ObjectStores held by the registry.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/tapestry/hotspot.h"
#include "src/tapestry/registry.h"
#include "src/tapestry/router.h"

namespace tap {

class QuorumReplicator;

class ObjectDirectory {
 public:
  /// A pointer record paired with its next hop at snapshot time; used to
  /// detect path changes around table mutations (§4.2).
  struct PendingReroute {
    Guid guid{};
    PointerRecord record{};
    std::optional<NodeId> next_hop{};  ///< hop at snapshot time
  };

  ObjectDirectory(NodeRegistry& registry, Router& router,
                  const TapestryParams& params, EventQueue& events, Rng& rng);
  ~ObjectDirectory();  // out of line: replicator_ is incomplete here

  /// Wires the transport all pointer traffic (publish/locate/unpublish
  /// deposits, §4.2 reroutes, quorum replica RPCs) travels through and
  /// forwards it to the replicator when one exists.  Network binds the
  /// overlay's; standalone directories use the shared direct fallback.
  void bind_transport(Transport* transport) noexcept;

  // --- publication and location (§2.2) ---
  // Publish/unpublish and locate are each written once, as a per-node
  // step over explicit op state: it handles the message just delivered at
  // the op's current node and returns the delay to the next delivery, or
  // "finished".  These inline drivers loop over the step on the caller's
  // stack (no event, shared_ptr or std::function) and charge every message
  // straight to `trace`; the event driver below schedules each step.
  void publish(NodeId server, const Guid& guid, Trace* trace = nullptr);
  void unpublish(NodeId server, const Guid& guid, Trace* trace = nullptr);
  LocateResult locate(NodeId client, const Guid& guid, Trace* trace = nullptr);

  /// One replica registration for publish_batch.
  struct PublishRequest {
    NodeId server{};
    Guid guid{};
  };
  /// Batched publish for bulk overlay construction.  Registers every
  /// replica up front, then deposits the pointers in two concurrent
  /// phases drained through sim/thread_pool: the publish paths are walked
  /// with the Router's mutation-free peek (grouped by the salted guid's
  /// leading digit — the root region each path converges into), and the
  /// collected deposits land per registry shard, each shard applying its
  /// deposits in batch order.  On the replicated backends a last serial
  /// phase writes each path's quorum mirrors at its root, in batch order.
  /// The result is identical to calling publish() per request on a
  /// quiescent, fully-live mesh (the bulk-build setting): stores, quorum
  /// mirrors and holder sets, replica registry and per-kind message counts
  /// match exactly; trace latency matches up to floating-point summation
  /// order.  The §2.4 secondary-deposit variant falls back to the serial
  /// loop.
  /// `guarded` switches the path walks from the lock-free peek to the
  /// per-hop node-stripe locks (the Router::route_to_root_guarded
  /// discipline): required when the mesh is NOT quiescent — i.e. when a
  /// thread-parallel join wave is mutating routing tables while this
  /// batch deliberately races it.  On a quiescent mesh the result is
  /// identical either way; under a race each hop observes whatever table
  /// state the contacted node holds at that instant, and the §6.5
  /// republish backstop restores Property 4 once the wave settles.
  void publish_batch(const std::vector<PublishRequest>& batch,
                     std::size_t workers = 0, Trace* trace = nullptr,
                     bool guarded = false);

  // --- event-driven publication and location ---
  // The same steps, one EventQueue event per delivery, delayed by the hop's
  // metric distance scaled by params.hop_delay_scale, so repairs,
  // republishes and expiry genuinely interleave with in-flight operations
  // (the execution model §6.5's churn results assume); only here can a
  // message reach a node that died after it was sent.  Each operation
  // accounts in a private Trace absorbed into `trace` at completion, so
  // per-query figures stay exact when operations overlap.  On a quiescent
  // mesh the results equal the inline driver's.
  using LocateCallback = std::function<void(const LocateResult&)>;
  using PublishCallback = std::function<void()>;

  /// Event-driven publish.  The replica registration is immediate (the
  /// server stores the object from now on); the pointer deposits walk each
  /// salted root path hop by hop.  A path whose carrier node dies mid-walk
  /// aborts quietly — soft-state republish is the backstop, as in §6.5.
  void publish_async(NodeId server, const Guid& guid, Trace* trace = nullptr,
                     PublishCallback done = nullptr);

  /// Event-driven locate: one routing decision per event.  The query
  /// observes whatever directory state holds when each hop fires.  A query
  /// stranded on a node that dies mid-flight loses that root attempt (and
  /// retries remaining roots under retry_all_roots, like any miss).
  void locate_async(NodeId client, const Guid& guid, LocateCallback done,
                    Trace* trace = nullptr);

  /// Operations currently in flight on the event queue (tests/drivers use
  /// this to drain deterministically).
  [[nodiscard]] std::size_t async_in_flight() const noexcept {
    return in_flight_;
  }

  // --- soft state (§6.5) ---
  void republish_all(Trace* trace = nullptr);
  void republish_server(NodeId server, Trace* trace = nullptr);
  /// Sweeps expired pointers from every live node's store.  `workers` > 1
  /// fans the per-node sweeps out through sim/thread_pool — safe with any
  /// backend (stores are per node) and deterministic (each sweep is
  /// independent); requires quiescence, like every whole-network pass.
  void expire_pointers(std::size_t workers = 1);

  // --- checkpoint / restore (persistent backend) ---
  /// Membership and replica-registry state a checkpoint records alongside
  /// the per-node store files; enough to rebuild an equivalent overlay.
  struct CheckpointManifest {
    double time = 0.0;  ///< simulated clock at checkpoint
    std::vector<std::pair<std::uint64_t, Location>> nodes;  ///< live (id, loc)
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
        replicas;  ///< registered (guid, server) pairs, manifest order
  };

  /// Flushes every node store to disk and writes `dir`/manifest (atomic
  /// tmp + rename): the checkpoint clock, the live membership, and the
  /// ground-truth replica registry.  Pairs with restore(); meaningful for
  /// the persistent backend (other backends flush nothing but the
  /// manifest still lets tests audit published() state).
  void checkpoint(const std::string& dir);
  /// Loads the replica registry from `dir`/manifest into this directory
  /// (replacing it) and returns the checkpoint clock.  The caller must
  /// already have rebuilt the membership (see read_manifest) so that the
  /// per-node persistent stores recovered their records at construction —
  /// and should then advance the event clock to the returned time
  /// (events().run_until): recovered PointerRecord deadlines are absolute,
  /// so resuming finite-TTL soft state at clock 0 would let every pointer
  /// outlive its deadline by the whole checkpoint time.
  double restore(const std::string& dir);
  /// Parses `dir`/manifest: checkpoint clock, live membership, replica
  /// registry.  The single reader of the format — restore() consumes it.
  [[nodiscard]] static CheckpointManifest read_manifest(
      const std::string& dir);

  /// Starts the §6.5 soft-state timers as recurring events: every
  /// `republish_every`, each registered live replica re-publishes
  /// (event-driven, so refresh traffic interleaves with queries); every
  /// `expiry_every`, expired pointers are swept.  Zero disables either
  /// timer.  Restarting replaces any running timers.  The recurring
  /// events hold `trace` until stop_soft_state(): it must outlive them.
  void start_soft_state(double republish_every, double expiry_every,
                        Trace* trace = nullptr);
  void stop_soft_state();

  // --- pointer maintenance (§4.2, Figure 9) ---
  // `locks` as in Router::walk_to_root_peek.  Null: the serial mesh, routed
  // with the mutating route_step.  Non-null: a thread-parallel repair wave
  // mutates routing tables, so every table read takes the owning node's
  // stripe, one guard at a time (node_locks.h), routing uses route_step_peek
  // and stops at a row with no live slot (repair_pointer_chains finishes
  // the walk), and deposits rely on the store backend's own
  // synchronisation (StoreBackend::kSharded when genuinely racing).
  /// Snapshot the records of `at` whose next hop will change if tables
  /// change; used around table mutations.
  [[nodiscard]] std::vector<PendingReroute> snapshot_pointer_hops(
      const TapestryNode& at, const NodeLockTable* locks = nullptr) const;
  /// Re-push the affected records along the new paths (OPTIMIZEOBJECTPTRS).
  void reroute_changed_pointers(TapestryNode& at,
                                const std::vector<PendingReroute>& before,
                                Trace* trace,
                                const NodeLockTable* locks = nullptr);
  void optimize_pointer(TapestryNode& from, const Guid& guid,
                        const PointerRecord& record, Trace* trace,
                        const NodeLockTable* locks = nullptr);
  /// `notifier` is the converge node that discovered the outdated branch:
  /// it originates the first delete message of the backward chain (§4.2).
  void delete_backward(const NodeId& notifier, const NodeId& start,
                       const Guid& guid, const NodeId& server,
                       const NodeId& changed, Trace* trace);
  [[nodiscard]] std::optional<NodeId> pointer_next_hop(
      const TapestryNode& at, const Guid& guid,
      const PointerRecord& record) const;

  /// Quiescent convergence pass after a threaded wave: re-pushes every
  /// record whose snapshot-time next hop no longer holds it (two waves'
  /// locked reroutes can interleave so a deposit lands after its holder's
  /// snapshot was taken; serial execution cannot).  Iterates to a fixed
  /// point (bounded by the digit count) and returns the number of records
  /// re-pushed.  With this pass, threaded repair restores Property-4-style
  /// locatability inside the wave — the §6.5 republish backstop is not
  /// involved.
  std::size_t repair_pointer_chains(Trace* trace = nullptr);

  // --- ground truth / oracle accessors (tests and benches only) ---
  /// Registered replica servers of a (base) guid, live ones only.
  [[nodiscard]] std::vector<NodeId> servers_of(const Guid& guid) const;
  /// All registered (guid, server) pairs, including dead servers.
  [[nodiscard]] std::vector<std::pair<Guid, NodeId>> published() const;
  /// Base guids whose replica registry lists `server` (dead or alive).
  [[nodiscard]] std::vector<Guid> guids_served_by(const NodeId& server) const;
  /// Distance from client to the nearest live replica (stretch denominator).
  [[nodiscard]] double distance_to_nearest_replica(const NodeId& client,
                                                   const Guid& guid) const;

  /// Property 4: every node on each (server -> root) publish path holds
  /// the pointer.  Non-const because walking routes may prune dead links.
  void check_property4();

  // --- locate cache (hotspot.h) ---
  /// The per-node locate cache (disabled when params.locate_cache_size is
  /// 0).  The locate step consults it at every node of the walk before
  /// routing onward, under either driver, and repopulates it on success;
  /// every hit re-reads the remembered holder's store before resolving, so
  /// cached and uncached locates agree on found/not-found (see hotspot.h).
  [[nodiscard]] LocateCache& locate_cache() noexcept { return cache_; }
  [[nodiscard]] const LocateCache& locate_cache() const noexcept {
    return cache_;
  }
  /// Drops every cache entry involving a dead/departed node — its own LRU
  /// and any hint naming it as holder or replica.  MaintenanceEngine calls
  /// this from fail()/leave(); queries already in flight toward the corpse
  /// fail holder verification and fall back to the walk regardless.  Also
  /// the death seam of the replication layer: the QuorumReplicator (when
  /// the replicated backend is active) re-replicates every holder set the
  /// dead node belonged to before the external hook fires.
  void invalidate_node_cache(const NodeId& id);

  /// Quorum replication coordinator; nullptr unless params.store_backend
  /// is kReplicated / kReplicatedPersistent (tests and benches introspect
  /// holder sets and stats through it).
  [[nodiscard]] QuorumReplicator* replicator() noexcept {
    return replicator_.get();
  }

  /// Registers a callback fired from invalidate_node_cache — i.e. on every
  /// §5 death/departure the maintenance layer reports.  HotspotManager uses
  /// it to drop dead hosts from its replica bookkeeping the moment they
  /// die.  Pass nullptr to unregister; at most one hook at a time.
  void set_node_death_hook(std::function<void(const NodeId&)> hook) {
    node_death_hook_ = std::move(hook);
  }

 private:
  struct PointerWalk;
  struct AsyncPublish;
  struct LocateOp;
  struct AsyncLocate;

  void check_guid(const Guid& guid) const;
  void register_replica(const NodeId& server, const Guid& guid);

  // Publish / unpublish (one salted path each).
  [[nodiscard]] PointerWalk start_walk(TapestryNode& server,
                                       const Guid& salted,
                                       bool withdraw) const;
  /// The publish step: w.cur applies the delivered record (deposit, or
  /// withdrawal of rec.server's pointer) and forwards it one routing step,
  /// with the §2.4 secondary copies; nullopt once the root applied it.
  std::optional<double> deposit_hop(PointerWalk& w, Trace* trace);
  /// Inline driver: one full walk per salted root name.
  void walk_all_roots(TapestryNode& server, const Guid& guid, bool withdraw,
                      Trace* trace);
  void begin_publish_path(const std::shared_ptr<AsyncPublish>& op);
  void schedule_deposit(const std::shared_ptr<AsyncPublish>& op,
                        double delay);
  /// Sends a pointer record (deposit, withdrawal or §4.2 optimize) from
  /// `from`, stamped as last hop, to `to`; returns the delivered payload.
  PointerRecord forward_pointer(MessageKind kind, const TapestryNode& from,
                                const TapestryNode& to, const Guid& target,
                                const NodeId& server, const RouteState& state,
                                double expires, Trace* trace);

  // Locate.
  /// Draws the first root and opens attempt 0, charging `cost`.
  LocateOp start_locate(TapestryNode& client, const Guid& guid, Trace* cost);
  void begin_locate_attempt(LocateOp& op) const;
  /// The locate step (§2.2, §2.4, Figure 10); nullopt once op.res is final.
  std::optional<double> locate_step(LocateOp& op);
  /// A pointer was found on `holder`: start the leg to its replica.
  std::optional<double> resolve_at(LocateOp& op, TapestryNode& holder,
                                   const PointerRecord& rec, const Guid& via);
  /// Wires and books a payload-free locate message (jump, bounce, probe).
  double send_locate_message(const LocateOp& op, const TapestryNode& from,
                             const TapestryNode& to, std::size_t msgs = 1);
  /// This root attempt missed: open the next one, or finish with a miss.
  std::optional<double> end_locate_attempt(LocateOp& op);
  std::optional<double> finish_locate(LocateOp& op);
  void schedule_locate(const std::shared_ptr<AsyncLocate>& op, double delay);

  void schedule_republish_tick(double every, Trace* trace);
  void schedule_expiry_tick(double every);

  /// Deposits a locate-cache hint pointing at `holder` on every node the
  /// successful query walked through (paths toward a root converge, so
  /// hot objects get cached exactly where future queries will pass).
  void cache_fill_path(const Guid& base, const std::vector<NodeId>& path,
                       const Guid& via, const NodeId& holder,
                       const PointerRecord& rec);
  /// §2.4: the other members of the slot `cur` routes through to `next`
  /// (`live_only`: just the live, reachable ones).
  std::vector<TapestryNode*> secondaries(const TapestryNode& cur,
                                         unsigned slot_level,
                                         const NodeId& next,
                                         bool live_only) const;
  /// Picks the closest live replica among records; prunes dead-server
  /// records it trips over.  Returns nullopt when none is live.
  std::optional<PointerRecord> pick_live_replica(
      TapestryNode& holder, const Guid& target,
      const TapestryNode& relative_to);

  /// Event delay of one message between two nodes.
  [[nodiscard]] double hop_delay(const TapestryNode& a,
                                 const TapestryNode& b) const {
    return reg_.dist(a, b) * params_.hop_delay_scale;
  }

  NodeRegistry& reg_;
  Router& router_;
  const TapestryParams& params_;
  EventQueue& events_;
  Rng& rng_;

  // Ground-truth replica registry: base guid -> servers.
  std::unordered_map<Guid, std::vector<NodeId>> replicas_;

  // Per-node locate cache (sized by params.locate_cache_size; 0 = off).
  LocateCache cache_;

  // Quorum replication layer; null for the non-replicated backends, which
  // keeps every default code path identical to the pre-replication build.
  std::unique_ptr<QuorumReplicator> replicator_;

  // Event-driven state.
  std::size_t in_flight_ = 0;
  std::optional<EventId> republish_event_;
  std::optional<EventId> expiry_event_;

  // Fired from invalidate_node_cache on node death/departure.
  std::function<void(const NodeId&)> node_death_hook_;

  // Wire layer for all cross-node pointer traffic (see bind_transport).
  Transport* transport_ = default_transport();
};

}  // namespace tap
