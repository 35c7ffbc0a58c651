#include "sledge/dispatcher.hpp"

#include <atomic>
#include <deque>
#include <mutex>
#include <vector>

#include "sledge/deadline_heap.hpp"
#include "sledge/deque.hpp"

namespace sledge::runtime {

const char* to_string(DispatchPolicy p) {
  switch (p) {
    case DispatchPolicy::kWorkStealing: return "work_stealing";
    case DispatchPolicy::kGlobalEdf: return "global_edf";
    case DispatchPolicy::kShardedByModule: return "sharded_module";
  }
  return "?";
}

const char* to_string(DistPolicy p) {
  switch (p) {
    case DistPolicy::kWorkStealing: return "work_stealing";
    case DistPolicy::kGlobalLock: return "global_lock";
    case DistPolicy::kPerWorker: return "per_worker";
  }
  return "?";
}

namespace {

// A mutexed FIFO with a lock-free size probe, so an empty queue costs a
// fetch one atomic load and no lock. The side entrance, the hinted queues
// and the FIFO shards are all this structure; queues of neighbouring
// workers sit in one vector, hence the cache-line alignment.
struct alignas(64) MutexQueue {
  std::mutex mu;
  std::deque<Sandbox*> q;
  std::atomic<int64_t> count{0};

  void push(Sandbox* sb) {
    std::lock_guard<std::mutex> lock(mu);
    q.push_back(sb);
    count.fetch_add(1, std::memory_order_release);
  }
  bool pop(Sandbox** out) {
    if (count.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    *out = q.front();
    q.pop_front();
    count.fetch_sub(1, std::memory_order_release);
    return true;
  }
  int64_t size() const { return count.load(std::memory_order_acquire); }
};

// The paper's design. push_batch is listener-only; with N listener shards
// the deque's owner end has N producers, so owner sessions are serialized
// by push_mu_ (the mutex gives successive owners the happens-before edge
// the algorithm needs; steals stay lock-free). Worker threads never touch
// the owner end: their injects take the side entrance or, when hinted, the
// target worker's own queue.
class ChaseLevDispatcher final : public Dispatcher {
 public:
  explicit ChaseLevDispatcher(int workers) : hinted_(workers) {}

  void push_batch(Sandbox* const* sbs, size_t n) override {
    std::lock_guard<std::mutex> lock(push_mu_);
    for (size_t i = 0; i < n; ++i) deque_.push(sbs[i]);
  }

  bool inject(Sandbox* sb, int worker_hint) override {
    // Locality: land the child on its parent's worker (warm caches,
    // zero-hop join wake). A hinted queue past the cap means that worker
    // is busier than the caller's slack check believed, so the child takes
    // the side entrance where any worker can pick it up.
    if (worker_hint >= 0 && worker_hint < static_cast<int>(hinted_.size()) &&
        hinted_[worker_hint].size() < kHintCap) {
      hinted_[worker_hint].push(sb);
      return true;
    }
    side_.push(sb);
    return false;
  }

  bool fetch(int worker_index, Sandbox** out) override {
    // Own hinted queue first: those children were aimed at this worker,
    // and serving them before stolen work keeps the locality the hint paid
    // for.
    if (worker_index >= 0 && worker_index < static_cast<int>(hinted_.size()) &&
        hinted_[worker_index].pop(out)) {
      return true;
    }
    return side_.pop(out) || deque_.steal(out);
  }

  int64_t backlog_estimate() const override {
    int64_t total = side_.size() + deque_.size_estimate();
    for (const MutexQueue& q : hinted_) total += q.size();
    return total;
  }

 private:
  static constexpr int64_t kHintCap = 16;

  std::mutex push_mu_;
  WorkStealingDeque<Sandbox*> deque_;
  MutexQueue side_;
  std::vector<MutexQueue> hinted_;
};

// global_lock (one shard), per_worker (round-robin over N) and
// sharded_module (module hash over N). With one shard every worker drains
// it; otherwise worker i drains shard i only. Invoke hints are ignored:
// the placement rule is the policy.
class FifoShardDispatcher final : public Dispatcher {
 public:
  FifoShardDispatcher(int shards, bool by_module)
      : shards_(shards), by_module_(by_module) {}

  void push_batch(Sandbox* const* sbs, size_t n) override {
    for (size_t i = 0; i < n; ++i) shards_[shard_of(sbs[i])].push(sbs[i]);
  }

  bool inject(Sandbox* sb, int) override {
    shards_[shard_of(sb)].push(sb);
    return false;
  }

  bool fetch(int worker_index, Sandbox** out) override {
    if (shards_.size() == 1) return shards_[0].pop(out);
    if (worker_index < 0 || worker_index >= static_cast<int>(shards_.size())) {
      return false;
    }
    return shards_[worker_index].pop(out);
  }

  int64_t backlog_estimate() const override {
    int64_t total = 0;
    for (const MutexQueue& s : shards_) total += s.size();
    return total;
  }

 private:
  size_t shard_of(const Sandbox* sb) {
    const uint64_t n = shards_.size();
    if (n == 1) return 0;
    if (!by_module_) {
      return rr_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
    }
    // Mix the pointer bits (splitmix-style) so allocation alignment does
    // not funnel every module onto shard 0.
    uint64_t z = reinterpret_cast<uintptr_t>(sb->user_tag);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % n;
  }

  std::vector<MutexQueue> shards_;
  const bool by_module_;
  std::atomic<uint64_t> rr_cursor_{0};
};

// global_edf: under bursts the tightest requests reach a core first,
// regardless of arrival order; scalability is traded for global deadline
// order. Invoke hints are ignored: deadline order is the policy.
class DeadlineDispatcher final : public Dispatcher {
 public:
  void push_batch(Sandbox* const* sbs, size_t n) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) heap_.push(sbs[i]);
  }

  bool inject(Sandbox* sb, int) override {
    push(sb);
    return false;
  }

  bool fetch(int, Sandbox** out) override {
    std::lock_guard<std::mutex> lock(mu_);
    *out = heap_.pop();
    return *out != nullptr;
  }

  int64_t backlog_estimate() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(heap_.size());
  }

 private:
  mutable std::mutex mu_;
  DeadlineHeap heap_;
};

}  // namespace

std::unique_ptr<Dispatcher> Dispatcher::make(DispatchPolicy policy,
                                             DistPolicy dist, int workers) {
  switch (policy) {
    case DispatchPolicy::kGlobalEdf:
      return std::make_unique<DeadlineDispatcher>();
    case DispatchPolicy::kShardedByModule:
      return std::make_unique<FifoShardDispatcher>(workers, true);
    case DispatchPolicy::kWorkStealing:
      break;
  }
  switch (dist) {
    case DistPolicy::kGlobalLock:
      return std::make_unique<FifoShardDispatcher>(1, false);
    case DistPolicy::kPerWorker:
      return std::make_unique<FifoShardDispatcher>(workers, false);
    case DistPolicy::kWorkStealing:
      break;
  }
  return std::make_unique<ChaseLevDispatcher>(workers);
}

}  // namespace sledge::runtime
