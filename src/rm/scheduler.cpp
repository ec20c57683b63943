#include "rm/scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "util/error.hpp"

namespace ps::rm {

namespace {

/// Smoothing for the measured per-node draw: heavy enough to follow a
/// phase change within a few observations, light enough that one noisy
/// sample cannot swing admission.
constexpr double kDrawEwmaAlpha = 0.3;

}  // namespace

Scheduler::Scheduler(std::vector<std::size_t> pool,
                     const AdmissionOptions& admission)
    : admission_(admission), free_nodes_(std::move(pool)) {
  PS_REQUIRE(!free_nodes_.empty(), "scheduler needs a non-empty node pool");
  std::vector<std::size_t> sorted = free_nodes_;
  std::sort(sorted.begin(), sorted.end());
  PS_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
             "node pool contains duplicate indices");
  if (admission_.basis != AdmissionBasis::kNodes) {
    PS_REQUIRE(admission_.budget_watts > 0.0,
               "power admission needs a positive budget");
    PS_REQUIRE(admission_.node_tdp_watts > 0.0,
               "power admission needs a positive node TDP");
    PS_REQUIRE(admission_.oversubscription_ratio >= 1.0,
               "oversubscription ratio cannot be below 1");
  }
  // Keep the free list sorted descending so pop_back hands out the lowest
  // indices first (deterministic, test-friendly placement).
  std::sort(free_nodes_.begin(), free_nodes_.end(), std::greater<>());
}

Scheduler::Scheduler(std::size_t node_count, const AdmissionOptions& admission)
    : Scheduler(
          [&] {
            std::vector<std::size_t> pool(node_count);
            std::iota(pool.begin(), pool.end(), std::size_t{0});
            return pool;
          }(),
          admission) {}

void Scheduler::submit(const JobRequest& request) {
  PS_REQUIRE(try_submit(request),
             "the admission gate rejected the job; use try_submit to "
             "observe rejections as a result");
}

bool Scheduler::try_submit(const JobRequest& request) {
  request.validate();
  // Quarantined nodes count toward the configured pool: repairs are
  // temporary, so a wide job waits for them instead of being rejected.
  const std::size_t pool_size =
      free_nodes_.size() + quarantined_.size() + [&] {
        std::size_t used = 0;
        for (const auto& [name, grant] : running_) {
          used += grant.node_indices.size();
        }
        return used;
      }();
  PS_REQUIRE(request.node_count <= pool_size,
             "job requests more nodes than the pool holds");
  PS_REQUIRE(running_.find(request.name) == running_.end(),
             "a job with this name is already running");
  for (const auto& queued : queue_) {
    PS_REQUIRE(queued.name != request.name,
               "a job with this name is already queued");
  }
  // Admission policy: best_effort is the class the gate turns away —
  // higher classes always queue (they paid for the wait).
  if (request.sla_class == sim::SlaClass::kBestEffort) {
    if (admission_.best_effort_queue_limit > 0) {
      std::size_t queued_best_effort = 0;
      for (const auto& queued : queue_) {
        if (queued.sla_class == sim::SlaClass::kBestEffort) {
          ++queued_best_effort;
        }
      }
      if (queued_best_effort >= admission_.best_effort_queue_limit) {
        ++admission_rejections_;
        return false;
      }
    }
    if (admission_.basis != AdmissionBasis::kNodes &&
        reservation_for(request) > admission_.oversubscription_ratio *
                                       admission_.budget_watts) {
      // This job alone can never fit the gate: turning it away now beats
      // letting it starve in the queue forever.
      ++admission_rejections_;
      return false;
    }
  }
  queue_.push_back(request);
  return true;
}

std::vector<std::size_t> Scheduler::drain_order() const {
  std::vector<std::size_t> order(queue_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sim::sla_rank(queue_[a].sla_class) >
                            sim::sla_rank(queue_[b].sla_class);
                   });
  return order;
}

std::size_t Scheduler::head_position() const noexcept {
  std::size_t head = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    if (sim::sla_rank(queue_[i].sla_class) >
        sim::sla_rank(queue_[head].sla_class)) {
      head = i;
    }
  }
  return head;
}

double Scheduler::estimated_node_watts() const noexcept {
  if (admission_.basis == AdmissionBasis::kMeasuredDraw && measured_seen_) {
    return measured_node_watts_;
  }
  return admission_.node_tdp_watts;
}

double Scheduler::reservation_for(const JobRequest& request) const {
  return static_cast<double>(request.node_count) * estimated_node_watts();
}

bool Scheduler::power_fits(const JobRequest& request) const {
  if (admission_.basis == AdmissionBasis::kNodes) {
    return true;
  }
  return reserved_watts_ + reservation_for(request) <=
         admission_.oversubscription_ratio * admission_.budget_watts + 1e-9;
}

void Scheduler::observe_draw(double total_watts,
                             std::size_t busy_node_count) {
  PS_REQUIRE(total_watts >= 0.0, "observed draw cannot be negative");
  if (busy_node_count == 0) {
    return;
  }
  const double per_node =
      total_watts / static_cast<double>(busy_node_count);
  if (measured_seen_) {
    measured_node_watts_ = kDrawEwmaAlpha * per_node +
                           (1.0 - kDrawEwmaAlpha) * measured_node_watts_;
  } else {
    measured_node_watts_ = per_node;
    measured_seen_ = true;
  }
}

std::vector<NodeGrant> Scheduler::start_pending(
    const std::function<bool(const JobRequest&)>& backfill_ok) {
  std::vector<NodeGrant> grants;
  const auto start_job = [&](const JobRequest& request) {
    NodeGrant grant;
    grant.job_name = request.name;
    grant.node_indices.reserve(request.node_count);
    for (std::size_t i = 0; i < request.node_count; ++i) {
      grant.node_indices.push_back(free_nodes_.back());
      free_nodes_.pop_back();
    }
    if (admission_.basis != AdmissionBasis::kNodes) {
      const double reservation = reservation_for(request);
      reservations_.emplace(request.name, reservation);
      reserved_watts_ += reservation;
    }
    grants.push_back(grant);
    running_.emplace(request.name, std::move(grant));
  };
  const auto fits = [&](const JobRequest& request) {
    return request.node_count <= free_nodes_.size() && power_fits(request);
  };

  // FIFO phase: drain the head of the class-major order while it fits.
  while (!queue_.empty()) {
    const std::size_t head = head_position();
    if (!fits(queue_[head])) {
      break;
    }
    const JobRequest request = queue_[head];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(head));
    start_job(request);
  }

  // Backfill phase (EASY): the head does not fit; later jobs that fit
  // and provably do not delay the head may start now.
  if (backfill_ok && !queue_.empty()) {
    const std::vector<std::size_t> order = drain_order();
    std::vector<std::string> started;
    for (std::size_t k = 1; k < order.size(); ++k) {
      const JobRequest& request = queue_[order[k]];
      if (fits(request) && backfill_ok(request)) {
        started.push_back(request.name);
        start_job(request);
      }
    }
    for (const std::string& name : started) {
      const auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&](const JobRequest& queued) { return queued.name == name; });
      queue_.erase(it);
    }
  }
  return grants;
}

void Scheduler::complete(const std::string& job_name) {
  const auto it = running_.find(job_name);
  if (it == running_.end()) {
    throw NotFound("job '" + job_name + "' is not running");
  }
  for (std::size_t node : it->second.node_indices) {
    free_nodes_.push_back(node);
  }
  std::sort(free_nodes_.begin(), free_nodes_.end(), std::greater<>());
  const auto reservation = reservations_.find(job_name);
  if (reservation != reservations_.end()) {
    reserved_watts_ -= reservation->second;
    reservations_.erase(reservation);
  }
  running_.erase(it);
}

void Scheduler::quarantine(std::size_t node_index) {
  const auto it =
      std::find(free_nodes_.begin(), free_nodes_.end(), node_index);
  PS_REQUIRE(it != free_nodes_.end(),
             "only free nodes can be quarantined");
  free_nodes_.erase(it);
  quarantined_.push_back(node_index);
}

void Scheduler::restore(std::size_t node_index) {
  const auto it =
      std::find(quarantined_.begin(), quarantined_.end(), node_index);
  PS_REQUIRE(it != quarantined_.end(), "node is not quarantined");
  quarantined_.erase(it);
  free_nodes_.push_back(node_index);
  std::sort(free_nodes_.begin(), free_nodes_.end(), std::greater<>());
}

std::size_t Scheduler::free_node_count() const noexcept {
  return free_nodes_.size();
}

std::size_t Scheduler::queued_count() const noexcept { return queue_.size(); }

const JobRequest* Scheduler::queued_head() const noexcept {
  return queue_.empty() ? nullptr : &queue_[head_position()];
}

std::size_t Scheduler::running_count() const noexcept {
  return running_.size();
}

bool Scheduler::is_running(const std::string& job_name) const {
  return running_.find(job_name) != running_.end();
}

std::span<const std::size_t> Scheduler::nodes_of(
    const std::string& job_name) const {
  const auto it = running_.find(job_name);
  if (it == running_.end()) {
    throw NotFound("job '" + job_name + "' is not running");
  }
  return it->second.node_indices;
}

}  // namespace ps::rm
