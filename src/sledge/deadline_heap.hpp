// The (deadline, seq) min-heap behind both deadline orders: the global_edf
// dispatcher (guarded by its mutex) and the per-worker EDF scheduler policy
// (single-threaded). pop() returns the earliest absolute deadline;
// deadline-less sandboxes sort last and equal deadlines break FIFO.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sledge/sandbox.hpp"

namespace sledge::runtime {

class DeadlineHeap {
 public:
  void push(Sandbox* sb) {
    uint64_t deadline = sb->deadline_at_ns();
    heap_.push_back(Entry{deadline == 0 ? UINT64_MAX : deadline, seq_++, sb});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // nullptr when empty.
  Sandbox* pop() {
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Sandbox* sb = heap_.back().sb;
    heap_.pop_back();
    return sb;
  }

  size_t size() const { return heap_.size(); }

 private:
  struct Entry {
    uint64_t deadline;  // absolute ns; UINT64_MAX = no deadline
    uint64_t seq;       // FIFO tie-break
    Sandbox* sb;
  };
  // Min-heap on (deadline, seq) via std::*_heap's max-heap comparator.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  uint64_t seq_ = 0;
};

}  // namespace sledge::runtime
