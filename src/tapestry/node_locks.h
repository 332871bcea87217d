// NodeLockTable: striped per-node mutexes for the thread-parallel
// protocol paths — §4.4 joins (threaded_join.h), §5.1 leaves / §5.2
// fail-stop repair / heartbeat sweeps (threaded_repair.h), and the
// guarded §4.2 pointer reroutes those repair waves perform inline
// (ObjectDirectory's pointer maintenance given a NodeLockTable*).
//
// The registry's index is already lock-free for readers, and the object
// stores bring their own synchronisation (ShardedStore's guid stripes) —
// what has none is the per-node *protocol* state: the RoutingTable (slots,
// occupancy masks, backpointers) and the transient insertion flags
// (`inserting`, `psurrogate`).  When joins run on real threads, every
// access to that state goes through this table: node ids hash onto a fixed
// array of mutexes, so the lock footprint is O(stripes) regardless of
// overlay size and nodes registered mid-wave are covered automatically.
//
// Deadlock discipline: a thread holds at most one Guard at a time.  The
// two-node Guard (table mutation + backpointer mirror on the other side)
// acquires its stripes in address order — the global order every thread
// shares — and collapses to a single lock when both ids hash to the same
// stripe.  Operations that would touch a third node (eviction side
// effects) drop their locks first and then re-synchronise the affected
// pair; see striped::sync_backpointer (striped_links.h), the one copy of
// these rules every threaded driver delegates to.
#pragma once

#include <array>
#include <mutex>

#include "src/common/rng.h"
#include "src/sim/metrics.h"
#include "src/tapestry/id.h"

namespace tap {

class NodeLockTable {
 public:
  static constexpr std::size_t kStripeCount = 1024;

  [[nodiscard]] std::mutex& stripe(const NodeId& id) const noexcept {
    return mu_[splitmix64(id.value()) & (kStripeCount - 1)];
  }

  /// RAII lock over one node's stripe, or over two nodes' stripes acquired
  /// in address order (deduplicated when they collide).
  class Guard {
   public:
    Guard(const NodeLockTable& t, const NodeId& a) : first_(&t.stripe(a)) {
      lock_counted(first_);
    }
    Guard(const NodeLockTable& t, const NodeId& a, const NodeId& b) {
      std::mutex* x = &t.stripe(a);
      std::mutex* y = &t.stripe(b);
      if (x == y) {
        first_ = x;
        lock_counted(first_);
        return;
      }
      if (x > y) std::swap(x, y);
      first_ = x;
      second_ = y;
      lock_counted(first_);
      lock_counted(second_);
    }
    ~Guard() {
      if (second_ != nullptr) second_->unlock();
      first_->unlock();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    // A failed try_lock is a contended acquisition — the volatile
    // contention counter measures real waiting, not lock traffic.
    static void lock_counted(std::mutex* m) {
      if (m->try_lock()) return;
      metrics::stripe_lock_contention_total().inc();
      m->lock();
    }

    std::mutex* first_ = nullptr;
    std::mutex* second_ = nullptr;
  };

 private:
  mutable std::array<std::mutex, kStripeCount> mu_;
};

}  // namespace tap
