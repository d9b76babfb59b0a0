// Fork-join parallelism: parallel_for() fans an index range out over a
// few std::threads. It drives the embarrassingly parallel bench grids and
// the cluster engine's per-chip engine runs; none of its callers nest it.
// The calling thread always takes part, so a loop never uses more threads
// than the machine has.
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

/// Invoke fn(i) for every i in [0, count), spread over
/// min(jobs, count, hardware threads) threads (jobs 0 = hardware
/// concurrency): the caller plus that many minus one helpers. jobs == 1
/// runs everything inline in the caller thread — the reproducibility mode:
/// no thread scheduling at all. fn must be safe to call concurrently for
/// distinct indices; writes to distinct result slots need no
/// synchronisation. The first exception thrown by any invocation is
/// rethrown here after all workers have stopped (remaining indices are
/// abandoned).
template <typename Fn>
void parallel_for(std::size_t count, unsigned jobs, Fn&& fn) {
  const auto threads = static_cast<unsigned>(std::min<std::size_t>(
      std::min(resolve_jobs(jobs), resolve_jobs(0)), count));
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const unsigned helpers = threads - 1;

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
  if (error) std::rethrow_exception(error);
}

}  // namespace aurora
