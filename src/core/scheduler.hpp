// Request-level scheduling model shared by every serving path.
//
// The paper's front end accepts a queue of host requests (Fig 3 (a));
// because mapping/partition/reconfiguration overlap with compute, the next
// request's DRAM prefetch can also ride under the current request's compute
// tail. This header holds that overlap model — the leading DRAM span a
// request can hide and the trailing compute span it leaves behind — plus a
// chip's rolling placement state and the job signature that keys batching
// and the service cache. cluster::ClusterScheduler places requests with it
// and serving::ServingEngine drives the placements; a closed-loop queue is a
// ServingEngine::replay with every arrival at cycle 0.
#pragma once

#include <string>

#include "core/aurora.hpp"

namespace aurora::core {

/// Stable identity of the partition/NoC configuration a job induces (the
/// dataset is fixed per serving engine): model plus exact layer shapes.
/// Requests with equal signatures are batch-compatible — they reuse the
/// same array configuration, so only the first pays reconfiguration — and
/// their service metrics are identical (the engines are deterministic and
/// stateless across runs), which also makes this the service-cache key.
[[nodiscard]] std::string job_signature(const GnnJob& job);

/// Rolling placement state of one chip: when it frees up and how much
/// trailing compute the last request left for the next one to hide its
/// DRAM streaming under.
struct ChipTimeline {
  Cycle busy_until = 0;
  Cycle prev_compute_tail = 0;
};

/// The request's leading DRAM span — the first subgraph's streaming, which
/// can hide under a predecessor's trailing compute.
[[nodiscard]] Cycle lead_dram_cycles(const RunMetrics& metrics);
/// The request's trailing compute span — the last subgraph's compute, under
/// which a successor's DRAM streaming can hide.
[[nodiscard]] Cycle tail_compute_cycles(const RunMetrics& metrics);
/// Cycles saved by back-to-back scheduling of `prev` then `next`.
[[nodiscard]] Cycle overlap_cycles(Cycle prev_compute_tail,
                                   const RunMetrics& next);

}  // namespace aurora::core
