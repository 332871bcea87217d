// Thread-parallel §5.1/§5.2 repair (see threaded_repair.h for the model,
// the locking discipline and the determinism contract).  The protocol
// steps mirror leave.cc / maintenance.cc; what differs is only *where*
// synchronisation comes from: per-node stripe locks instead of a single
// thread of control, plus the guarded §4.2 reroutes and the quiescent
// chain-repair pass that replace the serial path's in-line rerouting.
#include "src/tapestry/threaded_repair.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <unordered_set>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/striped_links.h"

namespace tap {

ThreadedRepairDriver::ThreadedRepairDriver(NodeRegistry& registry,
                                           Router& router,
                                           ObjectDirectory& directory,
                                           const TapestryParams& params)
    : reg_(registry), router_(router), dir_(directory), params_(params),
      locks_(registry.node_locks()) {}

void ThreadedRepairDriver::index_live_nodes() {
  live_values_.clear();
  for (TapestryNode* n : reg_.nodes_snapshot())
    if (n->alive) live_values_.push_back(n->id().value());
  std::sort(live_values_.begin(), live_values_.end());
}

// ---------------------------------------------------------------------
// Voluntary delete (§5.1, Figure 12) on real threads
// ---------------------------------------------------------------------

void ThreadedRepairDriver::run_leave(const std::vector<NodeId>& victims,
                                     std::size_t workers, Trace* trace) {
  TAP_CHECK(!victims.empty(), "no leave victims");
  std::unordered_set<std::uint64_t> batch;
  for (const NodeId& v : victims) {
    TAP_CHECK(reg_.is_live(v), "leave victim must be a live node");
    TAP_CHECK(batch.insert(v.value()).second,
              "duplicate victim within the leave batch");
  }
  TAP_CHECK(victims.size() < reg_.live_count(),
            "leave_bulk would empty the network");

  // Serial preamble.  (a) Withdraw every victim's replicas while the mesh
  // still routes through them — the replica registry and the locate cache
  // have no internal synchronisation, so all of this stays on one thread.
  for (const NodeId& v : victims)
    for (const Guid& g : dir_.guids_served_by(v)) dir_.unpublish(v, g, trace);

  // (b) Mark every victim dead before capturing anything: hint and holder
  // lists must never name a co-departing node, no matter how the threads
  // would have interleaved.
  for (const NodeId& v : victims) {
    reg_.mark_dead(reg_.live(v));
    dir_.invalidate_node_cache(v);
  }
  index_live_nodes();

  // (c) Capture each victim's per-level replacement hints (live
  // secondaries of its own-digit slot — one more shared digit, exactly
  // what a holder's vacated slot requires) and live backpointer holders.
  const unsigned digits = params_.id.num_digits;
  std::vector<Session> sessions(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    Session& s = sessions[i];
    s.victim = victims[i];
    s.hints.resize(digits);
    s.holders.resize(digits);
    const TapestryNode& a = reg_.checked(s.victim);
    for (unsigned l = 0; l < digits; ++l) {
      for (const auto& e : a.table().at(l, s.victim.digit(l)).entries())
        if (!(e.id == s.victim) && reg_.is_live(e.id))
          s.hints[l].push_back(e.id);
      for (const NodeId& h : a.table().backpointers(l))
        if (reg_.is_live(h)) s.holders[l].push_back(h);
    }
  }

  parallel_for(
      sessions.size(), [&](std::size_t i) { leave_one(sessions[i]); },
      workers);

  finish_wave(sessions, trace);
}

void ThreadedRepairDriver::leave_one(Session& s) {
  TapestryNode& a = reg_.checked(s.victim);
  const unsigned digits = params_.id.num_digits;

  // 1. Notify every backpointer holder, level by level, with the hints.
  for (unsigned l = 0; l < digits; ++l) {
    const unsigned digit = s.victim.digit(l);
    for (const NodeId& holder : s.holders[l]) {
      TapestryNode* bp = reg_.find(holder);
      if (bp == nullptr || !bp->alive) continue;
      reg_.acct(&s.trace, a, *bp, 1);  // LEAVINGNETWORK with hints
      const auto before = dir_.snapshot_pointer_hops(*bp, &locks_);
      striped::unlink(reg_, locks_, *bp, l, s.victim);
      for (const NodeId& hint : s.hints[l]) {
        if (hint == holder) continue;
        if (TapestryNode* h = reg_.find(hint); h != nullptr && h->alive)
          striped::link(reg_, locks_, *bp, l, *h);
      }
      bool empty;
      {
        NodeLockTable::Guard g(locks_, holder);
        empty = bp->table().slot_empty(l, digit);
      }
      if (empty) {
        if (auto rep = find_replacement(*bp, l, digit, &s.trace);
            rep.has_value())
          striped::link(reg_, locks_, *bp, l, reg_.live(*rep));
      }
      // §4.2 inside the wave: re-push local pointers whose paths crossed
      // the leaver — including those the leaver rooted, which now flow on
      // to their new surrogate roots.
      dir_.reroute_changed_pointers(*bp, before, &s.trace, &locks_);
    }
  }

  // 2. REMOVELINK: retract the victim's own forward links so no one holds
  //    a backpointer to a ghost.
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      std::vector<NodeId> members;
      {
        NodeLockTable::Guard g(locks_, s.victim);
        for (const auto& e : a.table().at(l, j).entries())
          members.push_back(e.id);
      }
      for (const NodeId& m : members) {
        if (m == s.victim) continue;
        TapestryNode* other = reg_.find(m);
        if (other != nullptr) reg_.acct(&s.trace, a, *other, 1);
        NodeLockTable::Guard g(locks_, s.victim, m);
        if (other != nullptr) other->table().remove_backpointer(l, s.victim);
        a.table().remove(l, j, m);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Fail-stop plus eager repair (§5.2) on real threads
// ---------------------------------------------------------------------

void ThreadedRepairDriver::run_fail(const std::vector<NodeId>& victims,
                                    std::size_t workers, Trace* trace) {
  TAP_CHECK(!victims.empty(), "no fail victims");
  std::unordered_set<std::uint64_t> batch;
  for (const NodeId& v : victims) {
    TAP_CHECK(reg_.is_live(v), "fail victim must be a live node");
    TAP_CHECK(batch.insert(v.value()).second,
              "duplicate victim within the fail batch");
  }
  TAP_CHECK(victims.size() < reg_.live_count(),
            "fail_and_repair_bulk would empty the network");

  // Serial preamble: all victims stop responding at once (tombstones keep
  // their tables and stores, as in fail()), then the holder lists are
  // captured — backpointer symmetry makes them exactly the set of nodes
  // lazy repair would eventually have discovered the corpse from.
  for (const NodeId& v : victims) {
    reg_.mark_dead(reg_.live(v));
    dir_.invalidate_node_cache(v);
  }
  index_live_nodes();

  std::vector<Session> sessions(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    Session& s = sessions[i];
    s.victim = victims[i];
    s.holders.resize(1);
    for (const NodeId& h : reg_.checked(s.victim).table().all_backpointers())
      if (reg_.is_live(h)) s.holders[0].push_back(h);
  }

  parallel_for(
      sessions.size(), [&](std::size_t i) { fail_one(sessions[i]); },
      workers);

  finish_wave(sessions, trace);
}

void ThreadedRepairDriver::fail_one(Session& s) {
  const TapestryNode& dead = reg_.checked(s.victim);
  for (const NodeId& holder : s.holders[0]) {
    TapestryNode* bp = reg_.find(holder);
    if (bp == nullptr || !bp->alive) continue;
    // The holder's detection cost: one heartbeat probe that goes
    // unanswered (no ack — the victim is dead), then the purge.
    (void)router_.transport().deliver(make_message(
        MessageKind::kHeartbeatProbe, holder, s.victim, s.victim));
    reg_.acct(&s.trace, *bp, dead, 1);
    purge_holder(*bp, s.victim, &s.trace);
  }
}

void ThreadedRepairDriver::purge_holder(TapestryNode& at, const NodeId& dead,
                                        Trace* trace) {
  const auto before = dir_.snapshot_pointer_hops(at, &locks_);
  const unsigned gcp = at.id().common_prefix_len(dead);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l <= gcp && l < digits; ++l) {
    const unsigned digit = dead.digit(l);
    striped::unlink(reg_, locks_, at, l, dead);
    bool empty;
    {
      NodeLockTable::Guard g(locks_, at.id());
      empty = at.table().slot_empty(l, digit);
    }
    if (empty) {
      // A hole appeared; Property 1 obliges us to find a replacement or
      // establish that none exists (§5.2).
      if (auto rep = find_replacement(at, l, digit, trace); rep.has_value())
        striped::link(reg_, locks_, at, l, reg_.live(*rep));
    }
    NodeLockTable::Guard g(locks_, at.id());
    at.table().remove_backpointer(l, dead);
  }
  dir_.reroute_changed_pointers(at, before, trace, &locks_);
}

// ---------------------------------------------------------------------
// Replacement search
// ---------------------------------------------------------------------

std::optional<NodeId> ThreadedRepairDriver::find_replacement(TapestryNode& at,
                                                             unsigned level,
                                                             unsigned digit,
                                                             Trace* trace) {
  std::optional<NodeId> best;
  double best_dist = 0.0;
  auto offer = [&](const NodeId& cand) {
    if (cand == at.id() || !reg_.is_live(cand)) return;
    // Racy sources are filtered here rather than trusted structurally.
    if (cand.digit(level) != digit || !at.id().matches_prefix(cand, level))
      return;
    const double d = reg_.dist(at, reg_.checked(cand));
    if (!best.has_value() || d < best_dist ||
        (d == best_dist && cand < *best)) {
      best = cand;
      best_dist = d;
    }
  };

  // Local search first, as in the serial path: the remaining level-`level`
  // contacts all share our length-`level` prefix; ask each for its own
  // entry in the vacated slot.
  std::vector<NodeId> peers;
  {
    NodeLockTable::Guard g(locks_, at.id());
    peers = at.table().row_members(level);
    for (const NodeId& b : at.table().backpointers(level))
      peers.push_back(b);
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  for (const NodeId& peer : peers) {
    if (peer == at.id() || !reg_.is_live(peer)) continue;
    TapestryNode& p = reg_.live(peer);
    reg_.acct(trace, at, p, 2);  // ask for its (level, digit) entries
    std::vector<NodeId> cands;
    {
      NodeLockTable::Guard g(locks_, peer);
      for (const auto& e : p.table().at(level, digit).entries())
        cands.push_back(e.id);
    }
    for (const NodeId& c : cands) offer(c);
  }
  if (best.has_value()) return best;

  // Fallback, replacing the serial path's acknowledged multicast (an
  // unguarded recursive walk, unusable mid-wave): ids sharing our length-
  // `level` prefix with `digit` next occupy one contiguous value range, so
  // the sorted live-id index enumerates exactly the candidate set the
  // multicast would have visited — and the (distance, id) minimum is the
  // same winner regardless of enumeration order.
  const unsigned shift =
      (params_.id.num_digits - level - 1) * params_.id.digit_bits;
  const std::uint64_t lo =
      ((at.id().prefix_value(level) << params_.id.digit_bits) | digit)
      << shift;
  const std::uint64_t span = std::uint64_t{1} << shift;
  for (auto it =
           std::lower_bound(live_values_.begin(), live_values_.end(), lo);
       it != live_values_.end() && *it - lo < span; ++it) {
    const NodeId cand(params_.id, *it);
    if (cand == at.id()) continue;
    if (TapestryNode* c = reg_.find(cand); c != nullptr && c->alive) {
      reg_.acct(trace, at, *c, 1);  // the multicast-equivalent probe
      offer(cand);
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// Threaded heartbeat sweep (§5.2, §6.5)
// ---------------------------------------------------------------------

bool ThreadedRepairDriver::sweep_node(TapestryNode& n, Trace* trace) {
  bool changed = false;
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();

  // Probe pass: ping every table member under our own stripe, collect the
  // corpses, purge them after the guard drops (purge takes guards of its
  // own).  Replacements are always live, so one pass finds every corpse.
  std::vector<NodeId> corpses;
  {
    NodeLockTable::Guard g(locks_, n.id());
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < radix; ++j) {
        for (const auto& e : n.table().at(l, j).entries()) {
          if (e.id == n.id()) continue;
          const TapestryNode* other = reg_.find(e.id);
          TAP_ASSERT(other != nullptr);
          (void)router_.transport().deliver(make_message(
              MessageKind::kHeartbeatProbe, n.id(), e.id, e.id));
          reg_.acct(trace, n, *other, 1);  // heartbeat probe
          if (!other->alive) {
            corpses.push_back(e.id);
          } else {
            Message ack = make_message(MessageKind::kHeartbeatAck, e.id,
                                       n.id(), n.id());
            ack.flag = true;  // alive
            (void)router_.transport().deliver(ack);
          }
        }
      }
    }
  }
  std::sort(corpses.begin(), corpses.end());
  corpses.erase(std::unique(corpses.begin(), corpses.end()), corpses.end());
  for (const NodeId& dead : corpses) {
    purge_holder(n, dead, trace);
    changed = true;
  }

  // Fill pass: every empty slot hunts a replacement.  The prefix-range
  // fallback makes the search complete, so one pass fills every slot that
  // has a live candidate at all — Property 1 at quiescence by
  // construction, independent of thread interleaving.
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < radix; ++j) {
      bool empty;
      {
        NodeLockTable::Guard g(locks_, n.id());
        empty = n.table().slot_empty(l, j);
      }
      if (!empty) continue;
      if (auto rep = find_replacement(n, l, j, trace); rep.has_value()) {
        striped::link(reg_, locks_, n, l, reg_.live(*rep));
        changed = true;
      }
    }
  }
  return changed;
}

void ThreadedRepairDriver::run_sweep(std::size_t workers, Trace* trace) {
  index_live_nodes();
  const std::vector<TapestryNode*> nodes = reg_.nodes_snapshot();
  // The complete replacement search converges in one pass; the loop (with
  // the serial sweep's round cap) is belt and braces for interleavings
  // where a purge empties a slot after the fill pass walked it.
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> changed{false};
    std::vector<Trace> traces(nodes.size());
    parallel_for(
        nodes.size(),
        [&](std::size_t i) {
          if (!nodes[i]->alive) return;
          if (sweep_node(*nodes[i], &traces[i]))
            changed.store(true, std::memory_order_relaxed);
        },
        workers);
    if (trace != nullptr)
      for (const Trace& t : traces) trace->absorb(t);
    if (!changed.load()) break;
  }
}

void ThreadedRepairDriver::finish_wave(const std::vector<Session>& sessions,
                                       Trace* trace) {
  // Merge per-victim traces in request order (deterministic counters up to
  // scheduling-dependent repair overlap; invariants never depend on them).
  if (trace != nullptr)
    for (const Session& s : sessions) trace->absorb(s.trace);
  // Property 1 already holds: the holders repaired every slot a victim
  // vacated, and no other slot changed (threaded_repair.h).  What remains
  // is the one §4.2 window threads open that serial execution cannot:
  // records deposited on a holder after that holder's snapshot was taken.
  dir_.repair_pointer_chains(trace);
}

// ---------------------------------------------------------------------
// MaintenanceEngine facade
// ---------------------------------------------------------------------

namespace {

// Wall-clock wave timing feeds a *volatile* metric: it is scrape-visible
// but excluded from deterministic snapshots (see metrics.h).
class WaveTimer {
 public:
  WaveTimer() : t0_(std::chrono::steady_clock::now()) {}
  ~WaveTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    metrics::repair_wave_seconds().observe(
        std::chrono::duration<double>(dt).count());
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

void MaintenanceEngine::leave_bulk(const std::vector<NodeId>& victims,
                                   std::size_t workers, Trace* trace) {
  WaveTimer timer;
  ThreadedRepairDriver driver(reg_, router_, dir_, params_);
  driver.run_leave(victims, workers, trace);
}

void MaintenanceEngine::fail_and_repair_bulk(const std::vector<NodeId>& victims,
                                             std::size_t workers,
                                             Trace* trace) {
  WaveTimer timer;
  ThreadedRepairDriver driver(reg_, router_, dir_, params_);
  driver.run_fail(victims, workers, trace);
}

void MaintenanceEngine::heartbeat_sweep_bulk(std::size_t workers,
                                             Trace* trace) {
  WaveTimer timer;
  ThreadedRepairDriver driver(reg_, router_, dir_, params_);
  driver.run_sweep(workers, trace);
}

}  // namespace tap
