#include "serving/serving_engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace aurora::serving {

namespace {

/// Decorrelates the mix/tenant draws from the arrival process without
/// coupling their stream positions (SplitMix64-style golden-ratio offset).
constexpr std::uint64_t kMixSeedSalt = 0x9E3779B97F4A7C15ull;

template <typename Selector>
double percentile_of(const std::vector<ServedRequest>& served,
                     double q, Selector select) {
  std::vector<double> samples;
  samples.reserve(served.size());
  for (const ServedRequest& r : served) {
    samples.push_back(static_cast<double>(select(r)));
  }
  return percentile(std::move(samples), q);
}

}  // namespace

double ServingReport::shed_rate() const {
  return generated == 0
             ? 0.0
             : static_cast<double>(shed) / static_cast<double>(generated);
}

std::uint64_t ServingReport::met_slo_count() const {
  std::uint64_t met = 0;
  for (const ServedRequest& r : served) met += r.met_slo() ? 1 : 0;
  return met;
}

double ServingReport::goodput_rps() const {
  if (horizon == 0 || frequency_mhz <= 0.0) return 0.0;
  const double seconds =
      static_cast<double>(horizon) / (frequency_mhz * 1e6);
  return static_cast<double>(met_slo_count()) / seconds;
}

double ServingReport::latency_percentile(double q) const {
  return percentile_of(served, q,
                       [](const ServedRequest& r) { return r.latency(); });
}

double ServingReport::queue_wait_percentile(double q) const {
  return percentile_of(served, q,
                       [](const ServedRequest& r) { return r.queue_wait(); });
}

double ServingReport::service_percentile(double q) const {
  return percentile_of(
      served, q, [](const ServedRequest& r) { return r.service_time(); });
}

CounterSet ServingReport::counters() const {
  CounterSet counters;
  counters.inc("serving.generated", generated);
  counters.inc("serving.admitted", admitted);
  counters.inc("serving.shed", shed);
  counters.inc("serving.met_slo", met_slo_count());
  counters.inc("serving.batches", batches);
  counters.inc("serving.batched_followers", batched_followers);
  counters.inc("serving.failed_attempts", failed_attempts);
  counters.inc("serving.retries", retries);
  counters.inc("serving.failed_over", failed_over);
  counters.inc("serving.failed_permanently", failed_permanently);
  counters.inc("serving.shed_expired", shed_expired);
  counters.inc("serving.shard_fallbacks", shard_fallbacks);
  counters.inc("serving.overlap_saved_cycles", overlap_savings);
  counters.inc("serving.reconfig_saved_cycles", reconfig_savings);
  counters.inc("serving.horizon_cycles", horizon);
  return counters;
}

std::string serving_report_json(const ServingReport& report) {
  std::ostringstream os;
  const auto kv = [&os](const char* key, auto value, bool last = false) {
    os << "\"" << key << "\": " << value << (last ? "" : ", ");
  };
  const auto kv_str = [&os](const char* key, const std::string& value,
                            bool last = false) {
    os << "\"" << key << "\": \"" << value << "\"" << (last ? "" : ", ");
  };
  os << "{";
  kv_str("schema", "aurora.serving.v1");
  kv_str("arrival", arrival_kind_name(report.arrival_kind));
  kv_str("mode", cluster::dispatch_mode_name(report.mode));
  kv("chips", report.num_chips);
  kv("generated", report.generated);
  kv("admitted", report.admitted);
  kv("shed", report.shed);
  kv("shed_rate", report.shed_rate());
  kv("slo_cycles", static_cast<std::uint64_t>(report.slo_cycles));
  kv("met_slo", report.met_slo_count());
  kv("goodput_rps", report.goodput_rps());
  kv("batches", report.batches);
  kv("batched_followers", report.batched_followers);
  kv("failed_attempts", report.failed_attempts);
  kv("retries", report.retries);
  kv("failed_over", report.failed_over);
  kv("failed_permanently", report.failed_permanently);
  kv("shed_expired", report.shed_expired);
  kv("shard_fallbacks", report.shard_fallbacks);
  kv("overlap_saved_cycles",
     static_cast<std::uint64_t>(report.overlap_savings));
  kv("reconfig_saved_cycles",
     static_cast<std::uint64_t>(report.reconfig_savings));
  kv("horizon_cycles", static_cast<std::uint64_t>(report.horizon));
  kv("latency_p50_cycles", report.latency_percentile(0.50));
  kv("latency_p95_cycles", report.latency_percentile(0.95));
  kv("latency_p99_cycles", report.latency_percentile(0.99));
  kv("queue_wait_p50_cycles", report.queue_wait_percentile(0.50));
  kv("queue_wait_p95_cycles", report.queue_wait_percentile(0.95));
  kv("queue_wait_p99_cycles", report.queue_wait_percentile(0.99));
  kv("service_p50_cycles", report.service_percentile(0.50));
  kv("service_p95_cycles", report.service_percentile(0.95));
  kv("service_p99_cycles", report.service_percentile(0.99));
  os << "\"requests\": [";
  for (std::size_t i = 0; i < report.served.size(); ++i) {
    const ServedRequest& r = report.served[i];
    os << "{";
    kv("id", r.id);
    kv_str("label", json_escape(r.label));
    kv("tenant", r.tenant);
    kv("priority", r.priority);
    kv("chip", r.chip);
    kv("arrival", static_cast<std::uint64_t>(r.arrival));
    kv("start", static_cast<std::uint64_t>(r.start));
    kv("finish", static_cast<std::uint64_t>(r.finish));
    kv("queue_wait", static_cast<std::uint64_t>(r.queue_wait()));
    kv("service", static_cast<std::uint64_t>(r.service_time()));
    kv("batched_follower", r.batched_follower ? "true" : "false");
    kv("retries", r.retries);
    kv("failed_over", r.failed_over ? "true" : "false");
    kv("met_slo", r.met_slo() ? "true" : "false", /*last=*/true);
    os << (i + 1 < report.served.size() ? "}, " : "}");
  }
  os << "]}";
  return os.str();
}

std::vector<std::string> diff_serving_reports(const ServingReport& a,
                                              const ServingReport& b) {
  std::vector<std::string> diffs;
  const auto field = [&diffs](const std::string& name, auto va, auto vb) {
    if (va == vb) return;
    std::ostringstream os;
    os << name << ": " << va << " vs " << vb;
    diffs.push_back(os.str());
  };
  field("generated", a.generated, b.generated);
  field("admitted", a.admitted, b.admitted);
  field("shed", a.shed, b.shed);
  field("batches", a.batches, b.batches);
  field("batched_followers", a.batched_followers, b.batched_followers);
  field("failed_attempts", a.failed_attempts, b.failed_attempts);
  field("retries", a.retries, b.retries);
  field("failed_over", a.failed_over, b.failed_over);
  field("failed_permanently", a.failed_permanently, b.failed_permanently);
  field("shed_expired", a.shed_expired, b.shed_expired);
  field("shard_fallbacks", a.shard_fallbacks, b.shard_fallbacks);
  field("overlap_savings", a.overlap_savings, b.overlap_savings);
  field("reconfig_savings", a.reconfig_savings, b.reconfig_savings);
  field("horizon", a.horizon, b.horizon);
  field("served.size", a.served.size(), b.served.size());
  const std::size_t n = std::min(a.served.size(), b.served.size());
  for (std::size_t i = 0; i < n; ++i) {
    const ServedRequest& ra = a.served[i];
    const ServedRequest& rb = b.served[i];
    const std::string p = "served[" + std::to_string(i) + "].";
    field(p + "id", ra.id, rb.id);
    field(p + "label", ra.label, rb.label);
    field(p + "tenant", ra.tenant, rb.tenant);
    field(p + "priority", ra.priority, rb.priority);
    field(p + "chip", ra.chip, rb.chip);
    field(p + "arrival", ra.arrival, rb.arrival);
    field(p + "start", ra.start, rb.start);
    field(p + "finish", ra.finish, rb.finish);
    field(p + "deadline", ra.deadline, rb.deadline);
    field(p + "batched_follower", ra.batched_follower, rb.batched_follower);
    field(p + "overlap_hidden", ra.overlap_hidden, rb.overlap_hidden);
    field(p + "reconfig_saved", ra.reconfig_saved, rb.reconfig_saved);
    field(p + "retries", ra.retries, rb.retries);
    field(p + "failed_over", ra.failed_over, rb.failed_over);
    field(p + "total_cycles", ra.metrics.total_cycles,
          rb.metrics.total_cycles);
  }
  return diffs;
}

ServingEngine::ServingEngine(const core::AuroraConfig& config,
                             const cluster::ClusterParams& cluster_params,
                             const ServingParams& params)
    : config_(config), cluster_params_(cluster_params), params_(params) {
  AURORA_CHECK_MSG(params.num_tenants >= 1, "need at least one tenant");
}

std::vector<ServingRequest> ServingEngine::generate(
    const std::vector<ModelMixEntry>& mix) const {
  AURORA_CHECK_MSG(!mix.empty(), "model mix must not be empty");
  std::vector<double> weights;
  weights.reserve(mix.size());
  for (const ModelMixEntry& entry : mix) {
    AURORA_CHECK_MSG(entry.weight >= 0.0, "mix weights must be >= 0");
    weights.push_back(entry.weight);
  }

  ArrivalProcess arrivals(params_.arrival, params_.seed);
  Rng draw(params_.seed + kMixSeedSalt);
  std::vector<ServingRequest> requests;
  requests.reserve(params_.num_requests);
  for (std::uint64_t i = 0; i < params_.num_requests; ++i) {
    const ModelMixEntry& entry = mix[draw.next_weighted(weights)];
    ServingRequest request;
    request.id = i;
    request.tenant =
        static_cast<std::uint32_t>(draw.next_below(params_.num_tenants));
    request.priority = entry.priority;
    request.job = entry.job;
    request.label = entry.label + " #" + std::to_string(i);
    request.compat_key = core::job_signature(entry.job);
    request.arrival = arrivals.next();
    request.deadline = params_.slo_cycles == 0
                           ? kNoDeadline
                           : request.arrival + params_.slo_cycles;
    requests.push_back(std::move(request));
  }
  return requests;
}

ServingReport ServingEngine::run(const graph::Dataset& dataset,
                                 const std::vector<ModelMixEntry>& mix) {
  return serve_all(dataset, generate(mix));
}

ServingReport ServingEngine::replay(const graph::Dataset& dataset,
                                    std::vector<ServingRequest> requests) {
  for (ServingRequest& request : requests) {
    if (request.compat_key.empty()) {
      request.compat_key = core::job_signature(request.job);
      if (!request.dataset_key.empty()) {
        request.compat_key = request.dataset_key + "|" + request.compat_key;
      }
    }
  }
  return serve_all(dataset, std::move(requests));
}

ServingReport ServingEngine::serve_all(const graph::Dataset& dataset,
                                       std::vector<ServingRequest> requests) {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    AURORA_CHECK_MSG(requests[i - 1].arrival <= requests[i].arrival,
                     "serving requests must be sorted by arrival");
  }

  cluster::ClusterScheduler scheduler(config_, cluster_params_);
  if (tracer_ != nullptr) scheduler.set_tracer(tracer_);
  RequestQueue queue(params_.queue_depth, params_.proactive_shedding);

  // Chip fault plan: an explicit override wins, otherwise generate one from
  // params.faults (inert unless enabled). Attaching an empty plan changes
  // nothing — the scheduler treats it as absent.
  std::shared_ptr<const fault::FaultPlan> plan = fault_plan_;
  if (plan == nullptr && params_.faults.enabled()) {
    plan = std::make_shared<fault::FaultPlan>(fault::FaultPlan::generate(
        params_.faults, cluster_params_.num_chips));
  }
  const bool faulty = plan != nullptr && !plan->empty();
  if (faulty) {
    scheduler.set_fault_plan(plan);
    if (tracer_ != nullptr) {
      // Annotate the serving clock with the chip availability timeline so
      // trace viewers can line failures up with dispatch gaps.
      for (const fault::FaultEvent& e : plan->events()) {
        if (e.kind == fault::FaultKind::kChipDown) {
          tracer_->record(e.at, sim::TraceEvent::kChipDown, e.chip);
        } else if (e.kind == fault::FaultKind::kChipUp) {
          tracer_->record(e.at, sim::TraceEvent::kChipUp, e.chip);
        }
      }
    }
  }

  ServingReport report;
  report.generated = requests.size();
  report.slo_cycles = params_.slo_cycles;
  report.frequency_mhz = config_.frequency_mhz;
  report.arrival_kind = params_.arrival.kind;
  report.mode = params_.mode;
  report.num_chips = cluster_params_.num_chips;

  // Failed attempts wait out their backoff here before re-entering the
  // queue; a min-heap on (eligible cycle, id) keeps re-admission order
  // deterministic.
  struct PendingRetry {
    Cycle eligible_at = 0;
    ServingRequest request;
  };
  const auto retry_after = [](const PendingRetry& a, const PendingRetry& b) {
    if (a.eligible_at != b.eligible_at) return a.eligible_at > b.eligible_at;
    return a.request.id > b.request.id;
  };
  std::vector<PendingRetry> retry_heap;
  const auto backoff_of = [this](std::uint32_t attempt) {
    Cycle b = params_.retry_backoff_base;
    for (std::uint32_t i = 0; i < attempt && b < params_.retry_backoff_cap;
         ++i) {
      b *= 2;
    }
    return std::min(b, params_.retry_backoff_cap);
  };

  std::size_t next = 0;
  const auto admit_until = [&](Cycle t) {
    // Merge fresh arrivals and due retries in cycle order; an arrival wins
    // ties (a retry re-enters behind traffic that arrived with it). Retries
    // bypass the admission cap — they were admitted once already.
    while (true) {
      const Cycle arr =
          next < requests.size() ? requests[next].arrival : fault::kNever;
      const Cycle ret =
          retry_heap.empty() ? fault::kNever : retry_heap.front().eligible_at;
      if (arr > t && ret > t) break;
      if (arr <= ret) {
        queue.admit(std::move(requests[next++]));
      } else {
        std::pop_heap(retry_heap.begin(), retry_heap.end(), retry_after);
        queue.readmit(std::move(retry_heap.back().request));
        retry_heap.pop_back();
      }
    }
  };

  while (next < requests.size() || !queue.empty() || !retry_heap.empty()) {
    // The dispatch clock: the earliest cycle a serving unit frees up.
    // Everything that has arrived by then is eligible (and subject to the
    // admission cap, in arrival order); if nothing waits, idle forward to
    // the next arrival or retry-eligibility cycle.
    Cycle clock = scheduler.next_free(params_.mode);
    admit_until(clock);
    if (queue.empty()) {
      Cycle idle_to =
          next < requests.size() ? requests[next].arrival : fault::kNever;
      if (!retry_heap.empty()) {
        idle_to = std::min(idle_to, retry_heap.front().eligible_at);
      }
      clock = std::max(clock, idle_to);
      admit_until(clock);
      if (queue.empty()) continue;  // the whole tranche was shed
    }

    std::vector<ServingRequest> batch =
        queue.pop_batch(params_.max_batch, clock);
    if (batch.empty()) continue;  // proactive shedding expired the backlog
    ++report.batches;
    std::optional<std::uint32_t> pin_chip;
    bool follower = false;
    for (ServingRequest& request : batch) {
      // Dynamic workloads attach a per-request mini-batch dataset; its key
      // rides along so the service cache never aliases across subgraphs.
      const graph::Dataset& request_dataset =
          request.dataset != nullptr ? *request.dataset : dataset;
      cluster::ClusterOutcome outcome = scheduler.serve(
          request_dataset, request.job, request.dataset_key, params_.mode,
          std::max(request.arrival, request.not_before), follower, pin_chip);
      if (outcome.shard_fallback) ++report.shard_fallbacks;
      if (outcome.failed) {
        // The attempt still occupied its chip until the failure instant.
        report.horizon = std::max(report.horizon, outcome.finish_cycle);
        if (!outcome.no_capacity) ++report.failed_attempts;
        if (outcome.no_capacity || request.retries >= params_.max_retries) {
          ++report.failed_permanently;
        } else {
          // Capped exponential backoff from the failure instant; the heap
          // holds the request until the dispatch clock passes eligibility.
          const Cycle eligible = outcome.failed_at + backoff_of(request.retries);
          ++report.retries;
          request.retries += 1;
          request.not_before = eligible;
          retry_heap.push_back({eligible, std::move(request)});
          std::push_heap(retry_heap.begin(), retry_heap.end(), retry_after);
        }
        // The batch head's configuration was lost with the failed chip, so
        // the follower/pin state is left untouched: the next batch member
        // dispatches as a fresh head.
        continue;
      }
      if (follower) ++report.batched_followers;
      if (!follower && params_.mode == cluster::DispatchMode::kDataParallel) {
        pin_chip = outcome.chip;
      }

      ServedRequest served;
      served.id = request.id;
      served.tenant = request.tenant;
      served.priority = request.priority;
      served.label = std::move(request.label);
      served.chip = outcome.chip;
      served.arrival = request.arrival;
      served.start = outcome.start_cycle;
      served.finish = outcome.finish_cycle;
      served.deadline = request.deadline;
      served.batched_follower = follower;
      served.overlap_hidden = outcome.overlap_hidden;
      served.reconfig_saved = outcome.reconfig_saved;
      served.retries = request.retries;
      served.failed_over = request.retries > 0;
      if (served.failed_over) ++report.failed_over;
      served.metrics = std::move(outcome.metrics);
      report.overlap_savings += served.overlap_hidden;
      report.reconfig_savings += served.reconfig_saved;
      report.horizon = std::max(report.horizon, served.finish);
      report.served.push_back(std::move(served));
      follower = true;
    }
  }

  report.admitted = queue.admitted();
  report.shed = queue.shed();
  report.shed_expired = queue.shed_expired();
  AURORA_CHECK(report.admitted + report.shed == report.generated);
  // Every admitted request is accounted for exactly once: it completed,
  // expired under proactive shedding, or failed permanently.
  AURORA_CHECK(report.admitted == report.served.size() +
                                      report.shed_expired +
                                      report.failed_permanently);
  return report;
}

}  // namespace aurora::serving
