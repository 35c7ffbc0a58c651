// The dispatch layer: how admitted sandboxes travel from the listener
// shards (and, for sb_invoke children, from worker threads) to a worker
// core. It fixes the order in which a worker *receives* work; the
// per-worker SchedulerPolicy orders what the worker then *runs*. Three
// queue structures serve five placements:
//
//   Chase–Lev work stealing (the paper's design, §3.4): one global
//     lock-free deque that any idle worker steals from, plus a mutexed side
//     entrance for worker-thread injects and a hinted queue per worker for
//     invoke locality. Work-conserving, deadline-blind.
//   Mutexed FIFO shards, which differ only in their placement rule:
//     global_lock    — one shard that every worker drains (work-conserving,
//                      not scalable);
//     per_worker     — one shard per worker, round-robin placement, no
//                      stealing (scalable, not work-conserving);
//     sharded_module — one shard per worker, picked by hashing the target
//                      module (Sandbox::user_tag), so a module's requests
//                      always run on the same core.
//   Deadline heap (global_edf): one mutexed (deadline, seq) min-heap; every
//     fetch, from any worker, pops the globally earliest deadline (the
//     SLEdgeScale-style deadline-aware hand-out).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sledge/sandbox.hpp"

namespace sledge::runtime {

// Selects the structure. kWorkStealing defers to DistPolicy (the queue
// ablation of DESIGN.md); the other two ignore it.
enum class DispatchPolicy : uint8_t {
  kWorkStealing = 0,
  kGlobalEdf = 1,
  kShardedByModule = 2,
};

// Under DispatchPolicy::kWorkStealing: the Chase–Lev deque, or the
// global_lock / per_worker FIFO-shard ablations.
enum class DistPolicy : uint8_t { kWorkStealing, kGlobalLock, kPerWorker };

const char* to_string(DispatchPolicy p);
const char* to_string(DistPolicy p);

// Contracts shared by every structure: each pushed or injected sandbox is
// returned by exactly one successful fetch (no loss, no duplication).
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  // Listener-shard admit of a whole epoll tick: one owner-end session (or
  // lock acquisition) for the batch instead of one per request.
  virtual void push_batch(Sandbox* const* sbs, size_t n) = 0;
  void push(Sandbox* sb) { push_batch(&sb, 1); }
  // Any-thread side entrance (sb_invoke children are admitted from worker
  // threads). `worker_hint` >= 0 asks for that worker (invoke locality).
  // Returns true iff the sandbox landed on the hinted worker's own queue;
  // false means the normal placement (no hint, the hinted queue is full, or
  // the structure's placement rule ignores hints).
  virtual bool inject(Sandbox* sb, int worker_hint = -1) = 0;
  // Worker-side dequeue; false when nothing is available to `worker_index`.
  virtual bool fetch(int worker_index, Sandbox** out) = 0;
  // Racy size probe for drain and observability.
  virtual int64_t backlog_estimate() const = 0;

  static std::unique_ptr<Dispatcher> make(DispatchPolicy policy,
                                          DistPolicy dist, int workers);
};

}  // namespace sledge::runtime
