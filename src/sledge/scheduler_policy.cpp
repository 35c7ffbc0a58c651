#include "sledge/scheduler_policy.hpp"

#include <deque>

#include "sledge/deadline_heap.hpp"

namespace sledge::runtime {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kRoundRobin: return "round_robin";
    case SchedPolicy::kEdf: return "edf";
  }
  return "?";
}

namespace {

class RoundRobinPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kRoundRobin; }
  void enqueue(Sandbox* sb) override { queue_.push_back(sb); }
  Sandbox* pick_next() override {
    if (queue_.empty()) return nullptr;
    Sandbox* sb = queue_.front();
    queue_.pop_front();
    return sb;
  }
  size_t size() const override { return queue_.size(); }
  bool admit_eagerly() const override { return false; }

 private:
  std::deque<Sandbox*> queue_;
};

class EdfPolicy : public SchedulerPolicy {
 public:
  SchedPolicy kind() const override { return SchedPolicy::kEdf; }
  void enqueue(Sandbox* sb) override { heap_.push(sb); }
  Sandbox* pick_next() override { return heap_.pop(); }
  size_t size() const override { return heap_.size(); }
  bool admit_eagerly() const override { return true; }

 private:
  DeadlineHeap heap_;
};

}  // namespace

std::unique_ptr<SchedulerPolicy> SchedulerPolicy::make(SchedPolicy kind) {
  if (kind == SchedPolicy::kEdf) return std::make_unique<EdfPolicy>();
  return std::make_unique<RoundRobinPolicy>();
}

}  // namespace sledge::runtime
