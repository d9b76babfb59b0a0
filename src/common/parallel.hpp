// Fork-join parallelism: parallel_for() fans an index range out over a
// small std::thread pool. It drives the embarrassingly parallel bench grids
// and the cluster engine's per-chip engine runs.
//
// Oversubscription policy. Nested users compose: a bench grid running with
// --jobs=J may execute cluster cells that each fan their chips out again.
// Every helper thread is charged against one process-wide WorkerBudget
// capped at hardware_concurrency, so the total helper count never exceeds
// the machine regardless of nesting depth. The calling thread is never
// charged (it exists either way) and always participates, so an inner loop
// that gets no budget degrades gracefully to inline execution instead of
// stacking threads. Budget is acquired at parallel_for entry and released
// at exit, so siblings re-balance as loops come and go.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace aurora {

/// Resolve a --jobs style request: 0 means "one per hardware thread"
/// (falling back to 1 when the runtime cannot tell), anything else is taken
/// literally.
inline unsigned resolve_jobs(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Process-wide helper-thread budget (see the oversubscription policy in
/// the header comment). acquire() grants at most `want` slots, bounded so
/// the total outstanding grant never exceeds the cap; callers run inline
/// with whatever they are granted (possibly 0 helpers).
class WorkerBudget {
 public:
  static WorkerBudget& instance() {
    static WorkerBudget budget;
    return budget;
  }

  /// Grant up to `want` helper slots; returns the number actually granted.
  [[nodiscard]] unsigned acquire(unsigned want) {
    if (want == 0) return 0;
    unsigned used = in_use_.load(std::memory_order_relaxed);
    for (;;) {
      const unsigned cap = cap_.load(std::memory_order_relaxed);
      const unsigned free = cap > used ? cap - used : 0;
      const unsigned grant = std::min(want, free);
      if (grant == 0) return 0;
      if (in_use_.compare_exchange_weak(used, used + grant,
                                        std::memory_order_relaxed)) {
        return grant;
      }
    }
  }

  void release(unsigned n) {
    if (n > 0) in_use_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Helper slots currently granted (diagnostic / tests).
  [[nodiscard]] unsigned in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] unsigned cap() const {
    return cap_.load(std::memory_order_relaxed);
  }
  /// Override the cap (tests; 0 restores the hardware default).
  void set_cap(unsigned cap) {
    cap_.store(cap > 0 ? cap : default_cap(), std::memory_order_relaxed);
  }

 private:
  static unsigned default_cap() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  WorkerBudget() : cap_(default_cap()) {}
  std::atomic<unsigned> in_use_{0};
  std::atomic<unsigned> cap_;
};

/// Invoke fn(i) for every i in [0, count), spread over up to `jobs` threads
/// (0 = hardware concurrency). jobs == 1 runs everything inline in the
/// caller thread — the reproducibility mode: no thread scheduling at all.
/// Helper threads are drawn from the process-wide WorkerBudget, so nested
/// parallel_for users never oversubscribe the machine; when no budget is
/// free the loop runs inline. fn must be safe to call
/// concurrently for distinct indices; writes to distinct result slots need
/// no synchronisation. The first exception thrown by any invocation is
/// rethrown here after all workers have stopped (remaining indices are
/// abandoned).
template <typename Fn>
void parallel_for(std::size_t count, unsigned jobs, Fn&& fn) {
  const unsigned workers = resolve_jobs(jobs);
  if (count <= 1 || workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const unsigned helpers = WorkerBudget::instance().acquire(
      static_cast<unsigned>(std::min<std::size_t>(workers, count)) - 1);
  if (helpers == 0) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto run = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        next.store(count, std::memory_order_relaxed);  // stop all workers
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(helpers);
  for (unsigned t = 0; t < helpers; ++t) pool.emplace_back(run);
  run();
  for (auto& t : pool) t.join();
  WorkerBudget::instance().release(helpers);
  if (error) std::rethrow_exception(error);
}

}  // namespace aurora
