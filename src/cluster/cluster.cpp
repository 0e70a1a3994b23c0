#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/stream.hpp"

namespace simt::cluster {

namespace rt = simt::runtime;
using Clock = std::chrono::steady_clock;

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::Pending:
      return "pending";
    case RequestStatus::Ok:
      return "ok";
    case RequestStatus::Rejected:
      return "rejected";
    case RequestStatus::Shed:
      return "shed";
    case RequestStatus::Failed:
      return "failed";
  }
  return "?";
}

const char* to_string(DeviceHealth h) {
  switch (h) {
    case DeviceHealth::Healthy:
      return "healthy";
    case DeviceHealth::Degraded:
      return "degraded";
    case DeviceHealth::Quarantined:
      return "quarantined";
    case DeviceHealth::Probation:
      return "probation";
    case DeviceHealth::Unplugged:
      return "unplugged";
  }
  return "?";
}

namespace {

/// Routable = takes new traffic.
bool routable(DeviceHealth h) {
  return h == DeviceHealth::Healthy || h == DeviceHealth::Degraded;
}

constexpr auto kNoDeadline = Clock::time_point::max();

}  // namespace

// ---- ClusterTicket ----------------------------------------------------------

struct ClusterTicket::State {
  mutable std::mutex mu;
  std::condition_variable cv;
  RequestStatus status = RequestStatus::Pending;
  std::vector<std::uint32_t> output;
  std::string error;
  double latency_us = 0.0;
  int device = -1;
  unsigned retries = 0;
  std::uint64_t seq = 0;
};

bool ClusterTicket::done() const {
  if (!state_) {
    return false;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status != RequestStatus::Pending;
}

void ClusterTicket::wait() const {
  if (!state_) {
    throw Error("wait() on an invalid ClusterTicket");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [&] { return state_->status != RequestStatus::Pending; });
}

bool ClusterTicket::wait_for(std::chrono::microseconds timeout) const {
  if (!state_) {
    throw Error("wait_for() on an invalid ClusterTicket");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [&] {
    return state_->status != RequestStatus::Pending;
  });
}

RequestStatus ClusterTicket::status() const {
  if (!state_) {
    throw Error("status() on an invalid ClusterTicket");
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

std::span<const std::uint32_t> ClusterTicket::result() const {
  if (!state_) {
    throw Error("result() on an invalid ClusterTicket");
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->status == RequestStatus::Ok) {
    return state_->output;
  }
  std::string why = to_string(state_->status);
  if (!state_->error.empty()) {
    why += ": " + state_->error;
  }
  throw Error("request has no result (" + why + ")");
}

double ClusterTicket::latency_us() const {
  if (!state_) {
    throw Error("latency_us() on an invalid ClusterTicket");
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->status == RequestStatus::Pending) {
    throw Error("request is still pending; wait() first");
  }
  return state_->latency_us;
}

int ClusterTicket::device() const {
  if (!state_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->device;
}

std::uint64_t ClusterTicket::completion_seq() const {
  if (!state_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->seq;
}

unsigned ClusterTicket::retries() const {
  if (!state_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->retries;
}

// ---- internal structures ----------------------------------------------------

/// One accepted request moving through the cluster.
struct DeviceCluster::Request {
  std::string tenant;
  std::string plan;
  std::vector<std::uint32_t> payload;
  std::vector<ScalarOverride> scalars;
  std::shared_ptr<ClusterTicket::State> ticket;
  Clock::time_point submitted{};
  Clock::time_point deadline = kNoDeadline;
  Clock::time_point not_before{};  ///< backoff: re-queue no earlier
  unsigned retries = 0;
  std::uint64_t admit_seq = 0;   ///< admission order (shed-oldest key)
};

/// One plan pre-instantiated on one device: buffers, the canonical binding
/// recipe, and the captured pipeline's GraphExec with the stable host
/// storage its copy-out was frozen against.
struct DeviceCluster::PlanEntry {
  rt::GraphExec exec;
  std::vector<std::uint32_t> host_out;  ///< frozen copy-out destination
  std::uint32_t in_words = 0;
  std::uint32_t out_words = 0;
  /// The capture-time binding; per-request rebinds clone it and patch the
  /// overridden Scalar positions (KernelArgs itself is immutable).
  std::vector<rt::KernelArgs::Value> recipe;
  double est_us = 1.0;  ///< modeled cost of one replay (routing weight)
  /// Probation canary: a deterministic payload and the golden output it
  /// produced at registration (fault injection disarmed). Re-admission
  /// requires the probe replay to reproduce it bit-exact.
  std::vector<std::uint32_t> canary_in;
  std::vector<std::uint32_t> canary_golden;
  /// The spec's verify hook, copied here so the completion path needs no
  /// registry lookup.
  std::function<bool(std::span<const std::uint32_t>,
                     const std::vector<ScalarOverride>&,
                     std::span<const std::uint32_t>)>
      verify;
};

struct DeviceCluster::DeviceState {
  explicit DeviceState(rt::DeviceDescriptor desc) : dev(std::move(desc)) {}

  rt::Device dev;
  std::thread worker;
  DeviceHealth health = DeviceHealth::Healthy;
  unsigned consecutive_faults = 0;  ///< transients since the last success
  Clock::time_point quarantined_at{};
  bool probe_pending = false;  ///< watchdog asked the worker to probe
  std::uint64_t inflight = 0;  ///< requests the worker has taken, not finished
  /// Modeled work the worker has taken (sum of est_us): the routing clock.
  /// Host-timed completions never decrement it, so routing depends only on
  /// request order and the plans' modeled costs.
  double load_us = 0.0;
  double busy_us = 0.0;        ///< modeled time spent on completed replays
  /// Watchdog's view of in-flight work: (ticket, deadline) per running
  /// replay, maintained under mu_ (the replay itself runs on the worker).
  struct Inflight {
    std::shared_ptr<ClusterTicket::State> ticket;
    Clock::time_point deadline = kNoDeadline;
    Clock::time_point submitted{};
    unsigned retries = 0;
  };
  std::deque<Inflight> inflight_reqs;
  std::unordered_map<std::string, PlanEntry> plans;
  /// Lazily created per-tenant streams (worker thread only); raw pointers
  /// into the device's stream table, which lives as long as the device.
  std::unordered_map<std::string, rt::Stream*> tenant_streams;
  /// Staging lane for plan captures: request copy-ins are captured on this
  /// stream so every plan's graph is a two-lane DAG (stage lane feeds the
  /// primary lane's launch) and replays price the copy-in on its own
  /// modeled DMA channel. Created on first register_plan.
  rt::Stream* stage_stream = nullptr;

  /// Forget a taken request once it resolves (mu_ held).
  void untrack(const std::shared_ptr<ClusterTicket::State>& ticket) {
    --inflight;
    for (auto it = inflight_reqs.begin(); it != inflight_reqs.end(); ++it) {
      if (it->ticket == ticket) {
        inflight_reqs.erase(it);
        break;
      }
    }
  }
};

namespace {

rt::KernelArgs build_args(const std::vector<rt::KernelArgs::Value>& recipe,
                          const std::vector<ScalarOverride>& scalars) {
  rt::KernelArgs args;
  for (std::size_t i = 0; i < recipe.size(); ++i) {
    const auto& v = recipe[i];
    std::uint32_t value = v.value;
    for (const auto& s : scalars) {
      if (s.param == i) {
        value = s.value;
      }
    }
    if (v.kind == core::KernelParam::Kind::Buffer) {
      args.buffer(v.value, v.size);
    } else {
      args.scalar(value);
    }
  }
  return args;
}

/// Re-arm the injectors that were armed before a disarmed section.
struct DisarmGuard {
  std::vector<faults::FaultInjector*> rearm;
  ~DisarmGuard() {
    for (auto* f : rearm) {
      f->arm();
    }
  }
};

}  // namespace

// ---- DeviceCluster ----------------------------------------------------------

DeviceCluster::DeviceCluster(std::vector<rt::DeviceDescriptor> descs,
                             ClusterConfig cfg)
    : cfg_(cfg) {
  if (descs.empty()) {
    throw Error("DeviceCluster needs at least one device");
  }
  if (!cfg_.fault_spec.empty()) {
    // Attach a per-device injector to every descriptor that does not
    // already carry one: same plan, device-decorrelated seed streams.
    for (std::size_t i = 0; i < descs.size(); ++i) {
      if (!descs[i].faults) {
        descs[i].faults = faults::FaultInjector::from_spec(
            cfg_.fault_spec,
            cfg_.fault_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
      }
    }
  }
  devices_.reserve(descs.size());
  for (auto& d : descs) {
    devices_.push_back(std::make_unique<DeviceState>(std::move(d)));
  }
  stats_.per_device_completed.assign(devices_.size(), 0);
  watchdog_ = std::thread([this] { watchdog_loop(); });
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

DeviceCluster::~DeviceCluster() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  watch_cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  for (auto& d : devices_) {
    if (d->worker.joinable()) {
      d->worker.join();
    }
  }
  // Whatever is still queued after the workers finished their in-flight
  // replays resolves Failed -- a ticket must never dangle.
  std::lock_guard<std::mutex> lock(mu_);
  fail_queued_locked([](const Request&) { return true; }, "cluster shut down");
  for (auto& req : delayed_) {
    finish_locked(req, RequestStatus::Failed, {}, "cluster shut down", -1);
  }
  delayed_.clear();
}

void DeviceCluster::register_plan(const PlanSpec& spec) {
  if (spec.name.empty()) {
    throw Error("plan needs a name");
  }
  if (spec.threads == 0) {
    throw Error("plan '" + spec.name + "' needs a thread count");
  }
  std::size_t inputs = 0, outputs = 0;
  for (const auto& a : spec.args) {
    inputs += a.kind == PlanArg::Kind::Input;
    outputs += a.kind == PlanArg::Kind::Output;
    if ((a.kind == PlanArg::Kind::Input || a.kind == PlanArg::Kind::Output) &&
        a.words == 0) {
      throw Error("plan '" + spec.name + "': zero-word request buffer");
    }
  }
  if (inputs != 1 || outputs != 1) {
    throw Error("plan '" + spec.name +
                "' needs exactly one Input and one Output argument");
  }

  // Registration traffic (warmup, canary golden) must neither trip a fault
  // nor consume trigger indices -- the armed-phase fault sequence stays
  // identical whether or not plans were (re-)registered first.
  DisarmGuard guard;
  for (auto& d : devices_) {
    if (auto* f = d->dev.fault_injector(); f != nullptr && f->armed()) {
      f->disarm();
      guard.rearm.push_back(f);
    }
  }

  for (std::size_t i = 0; i < devices_.size(); ++i) {
    auto& d = *devices_[i];
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!routable(d.health)) {
        continue;  // quarantined / unplugged devices take no plans
      }
    }
    PlanEntry entry;
    entry.verify = spec.verify;

    // Load + bind on this device. The module cache absorbs duplicate
    // sources across plans and re-registrations.
    auto& module = d.dev.load_module(spec.source);
    const auto kernel = module.kernel(spec.kernel);
    rt::KernelArgs canonical;
    rt::Buffer<std::uint32_t> in_buf;
    rt::Buffer<std::uint32_t> out_buf;
    for (const auto& a : spec.args) {
      switch (a.kind) {
        case PlanArg::Kind::Input: {
          in_buf = d.dev.alloc<std::uint32_t>(a.words);
          entry.in_words = a.words;
          canonical.arg(in_buf);
          break;
        }
        case PlanArg::Kind::Output: {
          out_buf = d.dev.alloc<std::uint32_t>(a.words);
          entry.out_words = a.words;
          canonical.arg(out_buf);
          break;
        }
        case PlanArg::Kind::Const: {
          auto buf = d.dev.alloc<std::uint32_t>(a.words);
          d.dev.write_words(buf.word_base(), a.data);
          canonical.arg(buf);
          break;
        }
        case PlanArg::Kind::Scalar:
          canonical.scalar(a.scalar);
          break;
      }
    }
    entry.recipe = canonical.values();

    // Capture the request pipeline once as a two-lane DAG on the
    // device's default stream plus a dedicated staging stream (workers
    // only ever touch their per-tenant streams, so capture cannot
    // interleave with traffic): the stage lane copies the request in and
    // the primary lane launches off it, so every replay is ONE DAG submit
    // whose copy-in is priced on its own modeled DMA channel (see
    // docs/serving.md). The copy-out freezes the entry's host_out storage
    // (its heap buffer survives the move into d.plans below).
    const std::vector<std::uint32_t> placeholder(entry.in_words, 0);
    auto& capture_stream = d.dev.stream();
    if (d.stage_stream == nullptr) {
      d.stage_stream = &d.dev.create_stream();
    }
    entry.host_out.assign(entry.out_words, 0);
    rt::Graph graph;
    capture_stream.begin_capture(graph);
    d.stage_stream->begin_capture(graph);  // joins as the stage lane
    d.stage_stream->copy_in(in_buf,
                            std::span<const std::uint32_t>(placeholder));
    rt::Event staged = d.stage_stream->record();
    capture_stream.wait(staged);  // DAG edge: launch waits on the stage
    capture_stream.launch(kernel, spec.threads, canonical);
    capture_stream.copy_out(out_buf, std::span<std::uint32_t>(entry.host_out));
    d.stage_stream->end_capture();
    capture_stream.end_capture();
    entry.exec = graph.instantiate();

    // Warmup replay: primes the resident image (a prologue kernel never
    // touches I-MEM again) and measures the routing cost estimate.
    auto warm = entry.exec.launch(capture_stream);
    warm.wait();
    const auto& stats = warm.stats();
    entry.est_us = std::max(
        stats.overlap_wall_us > 0.0 ? stats.overlap_wall_us : stats.wall_us,
        1e-3);

    // Canary: a deterministic payload replayed once more, its output kept
    // as the golden the probation probe must reproduce bit-exact.
    entry.canary_in.resize(entry.in_words);
    SplitMix64 g(0x950c0de ^ static_cast<std::uint64_t>(i));
    for (auto& w : entry.canary_in) {
      w = static_cast<std::uint32_t>(g.next());
    }
    rt::GraphUpdates canary_updates;
    canary_updates.copy_in(0, entry.canary_in);
    auto canary = entry.exec.launch(capture_stream, std::move(canary_updates));
    canary.wait();
    entry.canary_golden = entry.host_out;

    std::lock_guard<std::mutex> lock(mu_);
    d.plans[spec.name] = std::move(entry);
  }

  std::lock_guard<std::mutex> lock(mu_);
  specs_[spec.name] = spec;
}

ClusterTicket DeviceCluster::submit(std::string_view tenant,
                                    std::string_view plan,
                                    std::span<const std::uint32_t> payload,
                                    std::vector<ScalarOverride> scalars,
                                    SubmitOptions opts) {
  ClusterTicket ticket;
  ticket.state_ = std::make_shared<ClusterTicket::State>();

  Request req;
  req.tenant = std::string(tenant);
  req.plan = std::string(plan);
  req.payload.assign(payload.begin(), payload.end());
  req.scalars = std::move(scalars);
  req.ticket = ticket.state_;
  req.submitted = Clock::now();
  const std::int64_t deadline_us =
      opts.deadline_us < 0 ? cfg_.default_deadline_us : opts.deadline_us;
  if (deadline_us > 0) {
    req.deadline = req.submitted + std::chrono::microseconds(deadline_us);
  }

  std::unique_lock<std::mutex> lock(mu_);

  const auto it = specs_.find(req.plan);
  if (it == specs_.end()) {
    throw Error("unknown plan '" + req.plan + "'");
  }
  const auto& spec = it->second;
  for (const auto& a : spec.args) {
    if (a.kind == PlanArg::Kind::Input && payload.size() != a.words) {
      throw Error("plan '" + req.plan + "' takes " + std::to_string(a.words) +
                  " payload words, got " + std::to_string(payload.size()));
    }
  }
  for (const auto& s : req.scalars) {
    if (s.param >= spec.args.size() ||
        spec.args[s.param].kind != PlanArg::Kind::Scalar) {
      throw Error("plan '" + req.plan + "': override position " +
                  std::to_string(s.param) + " is not a Scalar parameter");
    }
  }
  ++stats_.submitted;

  if (stopping_ || route_locked(req.plan) < 0) {
    finish_locked(req, RequestStatus::Rejected, {},
                  stopping_ ? "cluster shut down" : "no alive devices", -1);
    return ticket;
  }

  if (queued_ >= cfg_.queue_capacity) {
    switch (cfg_.policy) {
      case OverloadPolicy::Reject:
        finish_locked(req, RequestStatus::Rejected, {}, "admission queue full",
                      -1);
        return ticket;
      case OverloadPolicy::ShedOldest:
        shed_oldest_locked();
        break;
      case OverloadPolicy::Block: {
        const auto space = [&] {
          return stopping_ || route_locked(req.plan) < 0 ||
                 queued_ < cfg_.queue_capacity;
        };
        bool woke = true;
        if (req.deadline != kNoDeadline) {
          woke = space_cv_.wait_until(lock, req.deadline, space);
        } else {
          space_cv_.wait(lock, space);
        }
        if (!woke) {
          // Never admitted: the deadline expired while blocked. Failed,
          // but not accepted -- in_system_ was never incremented.
          ++stats_.deadline_failures;
          finish_locked(req, RequestStatus::Failed, {},
                        "DeadlineExceeded: blocked at admission past the "
                        "request deadline",
                        -1, /*accepted=*/false);
          return ticket;
        }
        if (stopping_ || route_locked(req.plan) < 0) {
          finish_locked(req, RequestStatus::Rejected, {},
                        stopping_ ? "cluster shut down" : "no alive devices",
                        -1);
          return ticket;
        }
        break;
      }
    }
  }

  ++stats_.accepted;
  ++in_system_;
  req.admit_seq = admit_seq_++;
  const bool has_deadline = req.deadline != kNoDeadline;
  enqueue_locked(std::move(req), /*front=*/false);
  work_cv_.notify_all();  // only the routing argmin's worker may take it
  if (has_deadline) {
    watch_cv_.notify_all();  // the watchdog re-times against the new work
  }
  return ticket;
}

void DeviceCluster::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return in_system_ == 0; });
}

void DeviceCluster::unplug(std::size_t i) {
  if (i >= devices_.size()) {
    throw Error("unplug: no device " + std::to_string(i));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (devices_[i]->health == DeviceHealth::Unplugged) {
      return;
    }
    retire_device_locked(i, /*fault=*/false);
  }
}

bool DeviceCluster::alive(std::size_t i) const {
  if (i >= devices_.size()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return routable(devices_[i]->health);
}

DeviceHealth DeviceCluster::health(std::size_t i) const {
  if (i >= devices_.size()) {
    throw Error("health: no device " + std::to_string(i));
  }
  std::lock_guard<std::mutex> lock(mu_);
  return devices_[i]->health;
}

std::size_t DeviceCluster::alive_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& d : devices_) {
    n += routable(d->health);
  }
  return n;
}

faults::FaultInjector* DeviceCluster::fault_injector(std::size_t i) {
  if (i >= devices_.size()) {
    throw Error("fault_injector: no device " + std::to_string(i));
  }
  return devices_[i]->dev.fault_injector();
}

void DeviceCluster::arm_faults() {
  for (auto& d : devices_) {
    if (auto* f = d->dev.fault_injector()) {
      f->arm();
    }
  }
}

void DeviceCluster::disarm_faults() {
  for (auto& d : devices_) {
    if (auto* f = d->dev.fault_injector()) {
      f->disarm();
    }
  }
}

void DeviceCluster::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void DeviceCluster::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

ClusterStats DeviceCluster::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ClusterStats out = stats_;
  out.queued = queued_;
  out.per_device_busy_us.reserve(devices_.size());
  out.per_device_health.reserve(devices_.size());
  for (const auto& d : devices_) {
    out.per_device_busy_us.push_back(d->busy_us);
    out.per_device_health.push_back(d->health);
  }
  return out;
}

rt::Device& DeviceCluster::device(std::size_t i) {
  if (i >= devices_.size()) {
    throw Error("no device " + std::to_string(i));
  }
  return devices_[i]->dev;
}

// ---- admission internals (mu_ held) -----------------------------------------

int DeviceCluster::route_locked(const std::string& plan) const {
  // Devices with cheaper backends bid lower and absorb proportionally more
  // traffic. A degraded device bids double: still in rotation, but traffic
  // leans toward clean peers while it proves itself.
  int best = -1;
  double best_score = 0.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto& d = *devices_[i];
    if (!routable(d.health)) {
      continue;
    }
    const auto entry = d.plans.find(plan);
    if (entry == d.plans.end()) {
      continue;
    }
    const double penalty = d.health == DeviceHealth::Degraded ? 2.0 : 1.0;
    const double score = d.load_us + entry->second.est_us * penalty;
    if (best < 0 || score < best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

DeviceCluster::Request DeviceCluster::pop_head_locked() {
  // Round-robin across tenants with queued work: take the front tenant's
  // oldest request, rotate the tenant to the back.
  std::string tenant = std::move(tenant_ring_.front());
  tenant_ring_.pop_front();
  auto& q = tenants_[tenant];
  Request req = std::move(q.front());
  q.pop_front();
  --queued_;
  if (!q.empty()) {
    tenant_ring_.push_back(std::move(tenant));
  }
  return req;
}

std::size_t DeviceCluster::fail_queued_locked(
    const std::function<bool(const Request&)>& pred, const char* error) {
  std::size_t failed = 0;
  for (auto rit = tenant_ring_.begin(); rit != tenant_ring_.end();) {
    auto& q = tenants_[*rit];
    for (auto it = q.begin(); it != q.end();) {
      if (pred(*it)) {
        finish_locked(*it, RequestStatus::Failed, {}, error, -1);
        it = q.erase(it);
        --queued_;
        ++failed;
      } else {
        ++it;
      }
    }
    rit = q.empty() ? tenant_ring_.erase(rit) : rit + 1;
  }
  return failed;
}

void DeviceCluster::enqueue_locked(Request req, bool front) {
  auto& q = tenants_[req.tenant];
  const bool was_empty = q.empty();
  const std::string tenant = req.tenant;
  if (front) {
    q.push_front(std::move(req));
  } else {
    q.push_back(std::move(req));
  }
  ++queued_;
  if (was_empty) {
    if (front) {
      tenant_ring_.push_front(tenant);
    } else {
      tenant_ring_.push_back(tenant);
    }
  }
}

void DeviceCluster::shed_oldest_locked() {
  // The oldest queued request is the earliest admit_seq among the tenant
  // queue fronts (each per-tenant FIFO is age-ordered).
  const std::string* victim_tenant = nullptr;
  std::uint64_t oldest = ~0ull;
  for (const auto& tenant : tenant_ring_) {
    const auto& q = tenants_[tenant];
    if (!q.empty() && q.front().admit_seq < oldest) {
      oldest = q.front().admit_seq;
      victim_tenant = &tenant;
    }
  }
  if (!victim_tenant) {
    return;
  }
  auto& q = tenants_[*victim_tenant];
  Request victim = std::move(q.front());
  q.pop_front();
  --queued_;
  if (q.empty()) {
    tenant_ring_.erase(
        std::find(tenant_ring_.begin(), tenant_ring_.end(), *victim_tenant));
  }
  ++stats_.shed;
  finish_locked(victim, RequestStatus::Shed, {}, "shed by a newer request",
                -1);
}

bool DeviceCluster::finish_ticket_locked(
    const std::shared_ptr<ClusterTicket::State>& st, RequestStatus status,
    std::vector<std::uint32_t> output, std::string error, int device,
    Clock::time_point submitted, unsigned retries, bool accepted) {
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->status != RequestStatus::Pending) {
      return false;  // the watchdog and the completion path may race here
    }
    st->status = status;
    st->output = std::move(output);
    st->error = std::move(error);
    st->latency_us =
        std::chrono::duration<double, std::micro>(Clock::now() - submitted)
            .count();
    st->device = device;
    st->retries = retries;
    st->seq = ++completion_seq_;
    st->cv.notify_all();
  }
  switch (status) {
    case RequestStatus::Ok:
      ++stats_.completed;
      if (device >= 0) {
        ++stats_.per_device_completed[static_cast<std::size_t>(device)];
      }
      break;
    case RequestStatus::Rejected:
      ++stats_.rejected;
      break;
    case RequestStatus::Shed:
      break;  // counted at the shed site (stats_.shed)
    case RequestStatus::Failed:
      ++stats_.failed;
      break;
    case RequestStatus::Pending:
      break;
  }
  // Rejected (and never-admitted) requests are not in the system.
  if (accepted && status != RequestStatus::Rejected &&
      status != RequestStatus::Pending) {
    if (in_system_ > 0) {
      --in_system_;
    }
    if (in_system_ == 0) {
      drain_cv_.notify_all();
    }
  }
  return true;
}

void DeviceCluster::finish_locked(Request& req, RequestStatus status,
                                  std::vector<std::uint32_t> output,
                                  std::string error, int device,
                                  bool accepted) {
  finish_ticket_locked(req.ticket, status, std::move(output),
                       std::move(error), device, req.submitted, req.retries,
                       accepted);
}

void DeviceCluster::retire_device_locked(std::size_t device, bool fault) {
  auto& d = *devices_[device];
  d.health = fault ? DeviceHealth::Quarantined : DeviceHealth::Unplugged;
  if (fault) {
    ++stats_.quarantined;
    d.quarantined_at = Clock::now();
    watch_cv_.notify_all();  // start the probation timer
  }
  // Queued work stays in the admission queue for the survivors to take.
  // What no routable device can serve fails now: it would otherwise sit at
  // the queue head with no worker allowed to take it.
  fail_queued_locked([&](const Request& r) { return route_locked(r.plan) < 0; },
                     "no alive devices");
  space_cv_.notify_all();  // blocked submitters re-check their plan's route
  work_cv_.notify_all();   // the routing argmin may have moved
}

// ---- watchdog ---------------------------------------------------------------

void DeviceCluster::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Next timed event: the earliest request deadline anywhere in the
    // system, the earliest backoff expiry, or the earliest probation
    // due-time. (In-flight entries whose tickets the watchdog already
    // failed were removed from inflight_reqs, so they cannot re-trigger.)
    auto next = kNoDeadline;
    for (const auto& [tenant, q] : tenants_) {
      for (const auto& r : q) {
        next = std::min(next, r.deadline);
      }
    }
    for (const auto& r : delayed_) {
      next = std::min({next, r.deadline, r.not_before});
    }
    for (const auto& d : devices_) {
      for (const auto& info : d->inflight_reqs) {
        next = std::min(next, info.deadline);
      }
      if (cfg_.probation_delay_us > 0 &&
          d->health == DeviceHealth::Quarantined && d->inflight == 0) {
        next = std::min(
            next, d->quarantined_at +
                      std::chrono::microseconds(cfg_.probation_delay_us));
      }
    }
    if (next == kNoDeadline) {
      watch_cv_.wait(lock);  // until new timed work (or shutdown) arrives
    } else {
      watch_cv_.wait_until(lock, next);
    }
    if (stopping_) {
      return;
    }
    const auto now = Clock::now();

    // Expire overdue queued work: remove and fail with the named error.
    const char* overdue = "DeadlineExceeded: request deadline elapsed";
    const std::size_t expired = fail_queued_locked(
        [&](const Request& r) { return r.deadline <= now; }, overdue);
    stats_.deadline_failures += expired;
    // Backoff lot: overdue retries fail; due ones re-enter the admission
    // queue at the front, above the capacity bound -- unless no routable
    // device holds their plan any more.
    bool wake_workers = false;
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (it->deadline <= now) {
        ++stats_.deadline_failures;
        finish_locked(*it, RequestStatus::Failed, {}, overdue, -1);
      } else if (it->not_before > now) {
        ++it;
        continue;
      } else if (route_locked(it->plan) < 0) {
        finish_locked(*it, RequestStatus::Failed, {}, "no alive devices", -1);
      } else {
        enqueue_locked(std::move(*it), /*front=*/true);
        wake_workers = true;
      }
      it = delayed_.erase(it);
    }
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      auto& d = *devices_[i];
      // Overdue in-flight work: the replay cannot be cancelled (it may be
      // stalled inside the worker's join), but its ticket resolves NOW -- that
      // is the no-hang guarantee. The worker discards the eventual result
      // (finish_ticket_locked is first-writer-wins) and the device is
      // flagged Degraded for taking too long.
      for (auto it = d.inflight_reqs.begin(); it != d.inflight_reqs.end();) {
        if (it->deadline <= now) {
          if (finish_ticket_locked(
                  it->ticket, RequestStatus::Failed, {},
                  "DeadlineExceeded: in flight past the request deadline "
                  "(hung or stalled replay)",
                  static_cast<int>(i), it->submitted, it->retries,
                  /*accepted=*/true)) {
            ++stats_.deadline_failures;
            if (d.health == DeviceHealth::Healthy) {
              d.health = DeviceHealth::Degraded;
              wake_workers = true;  // its bid doubled
            }
          }
          it = d.inflight_reqs.erase(it);
        } else {
          ++it;
        }
      }
      // Probation: a quarantined device that rested out its delay (and
      // has no straggling in-flight replay) gets one canary probe.
      if (cfg_.probation_delay_us > 0 &&
          d.health == DeviceHealth::Quarantined && d.inflight == 0 &&
          d.quarantined_at +
                  std::chrono::microseconds(cfg_.probation_delay_us) <=
              now) {
        d.health = DeviceHealth::Probation;
        d.probe_pending = true;
        ++stats_.probations;
        wake_workers = true;
      }
    }
    if (wake_workers) {
      work_cv_.notify_all();
    }
    if (expired > 0) {
      space_cv_.notify_all();
    }
  }
}

// ---- per-device workers -----------------------------------------------------

void DeviceCluster::worker_loop(std::size_t device) {
  auto& d = *devices_[device];
  const int self = static_cast<int>(device);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Late binding: the worker takes the admission queue's head only while
    // its device is the head's routing argmin; otherwise the head waits for
    // the device the load clock picked.
    work_cv_.wait(lock, [&] {
      return stopping_ || d.probe_pending ||
             (!paused_ && queued_ > 0 &&
              route_locked(
                  tenants_.find(tenant_ring_.front())->second.front().plan) ==
                  self);
    });
    if (stopping_) {
      return;
    }
    if (d.probe_pending) {
      d.probe_pending = false;
      lock.unlock();
      probe_device(device);
      lock.lock();
      continue;
    }

    Request req = pop_head_locked();
    space_cv_.notify_one();
    if (queued_ > 0) {
      work_cv_.notify_all();  // the new head may route to another device
    }
    // Don't spend device time on a request that is already overdue (the
    // watchdog may not have swept it out of the admission queue yet).
    if (req.deadline != kNoDeadline && req.deadline <= Clock::now()) {
      ++stats_.deadline_failures;
      finish_locked(req, RequestStatus::Failed, {},
                    "DeadlineExceeded: request deadline elapsed", self);
      continue;
    }
    PlanEntry& entry = d.plans.find(req.plan)->second;
    d.load_us += entry.est_us;
    ++d.inflight;
    d.inflight_reqs.push_back(
        {req.ticket, req.deadline, req.submitted, req.retries});
    if (req.deadline != kNoDeadline) {
      watch_cv_.notify_all();
    }
    lock.unlock();
    issue(device, entry, std::move(req));
    lock.lock();
  }
}

void DeviceCluster::issue(std::size_t device, PlanEntry& entry, Request req) {
  auto& d = *devices_[device];
  // Per-tenant stream, created on first use (worker thread only).
  rt::Stream* stream;
  {
    const auto it = d.tenant_streams.find(req.tenant);
    if (it != d.tenant_streams.end()) {
      stream = it->second;
    } else {
      stream = &d.dev.create_stream();
      d.tenant_streams.emplace(req.tenant, stream);
    }
  }

  rt::GraphUpdates updates;
  updates.copy_in(0, req.payload);
  if (!req.scalars.empty()) {
    updates.args(0, build_args(entry.recipe, req.scalars));
  }

  rt::Event event;
  try {
    event = entry.exec.launch(*stream, std::move(updates));
  } catch (const Error& e) {
    // Submission-side validation failure (should not happen for a request
    // submit() accepted) -- resolve the ticket rather than wedge the worker.
    std::lock_guard<std::mutex> lock(mu_);
    d.untrack(req.ticket);
    finish_locked(req, RequestStatus::Failed, {}, e.what(),
                  static_cast<int>(device));
    return;
  }
  complete(device, entry, event, std::move(req));
}

void DeviceCluster::complete(std::size_t device, PlanEntry& entry,
                             const rt::Event& event, Request req) {
  auto& d = *devices_[device];

  std::string fault;
  bool transient = false;
  bool corruption = false;
  double modeled_us = 0.0;
  try {
    event.wait();  // runs the replay on this worker thread
    const auto& stats = event.stats();
    modeled_us =
        stats.overlap_wall_us > 0.0 ? stats.overlap_wall_us : stats.wall_us;
  } catch (const faults::TransientFault& e) {
    // A recoverable injected fault: the request retries and the device
    // degrades instead of quarantining.
    fault = e.what();
    transient = true;
  } catch (const std::exception& e) {
    fault = e.what();
    if (fault.empty()) {
      fault = "device fault";
    }
  }

  if (fault.empty() && entry.verify) {
    // Output verification: a corrupted result is handled like a transient
    // fault -- retried elsewhere, device degraded -- plus the corruption
    // counter (the chaos bench's detection signal).
    if (!entry.verify(req.payload, req.scalars, entry.host_out)) {
      fault = "output verification failed (corrupted result)";
      transient = true;
      corruption = true;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  d.untrack(req.ticket);
  if (corruption) {
    ++stats_.corruption_detected;
  }
  bool expired;
  {
    // The watchdog may have already failed this ticket (deadline while in
    // flight). The result -- success or fault -- is then discarded: the
    // caller was told, and a retry would outlive the request's deadline.
    std::lock_guard<std::mutex> tl(req.ticket->mu);
    expired = req.ticket->status != RequestStatus::Pending;
  }

  if (fault.empty()) {
    d.busy_us += modeled_us;
    // A clean replay decays the health machine: Degraded heals back to
    // Healthy, the consecutive-transient count restarts.
    d.consecutive_faults = 0;
    if (d.health == DeviceHealth::Degraded) {
      d.health = DeviceHealth::Healthy;
    }
    if (!expired) {
      finish_locked(req, RequestStatus::Ok, entry.host_out, "",
                    static_cast<int>(device));
    }
    return;
  }

  // Health bookkeeping. Transient: Healthy -> Degraded, quarantining only
  // after cfg_.quarantine_after consecutive transients. Anything else is
  // a hard fault: quarantine now (the pre-health-machine behavior).
  if (transient) {
    ++d.consecutive_faults;
    if (d.health == DeviceHealth::Healthy) {
      d.health = DeviceHealth::Degraded;
    }
    if (d.consecutive_faults >= cfg_.quarantine_after &&
        routable(d.health)) {
      retire_device_locked(device, /*fault=*/true);
    }
  } else if (routable(d.health)) {
    retire_device_locked(device, /*fault=*/true);
  }
  work_cv_.notify_all();  // the device's bid changed

  if (expired) {
    return;
  }
  if (req.retries < cfg_.max_retries && route_locked(req.plan) >= 0) {
    ++req.retries;
    ++stats_.retried;
    if (cfg_.retry_backoff_us > 0) {
      // Capped exponential backoff with deterministic jitter: delay =
      // min(backoff * 2^(retries-1), cap) * U where U in [0.75, 1.25) is
      // a pure function of (fault_seed, request, attempt) -- reproducible
      // storm replays, no synchronized retry herds.
      const unsigned exp = std::min(req.retries - 1, 30u);
      const double base = std::min(
          static_cast<double>(cfg_.retry_backoff_us) *
              static_cast<double>(1ull << exp),
          static_cast<double>(cfg_.retry_backoff_cap_us));
      SplitMix64 g(cfg_.fault_seed ^ (req.admit_seq * 0x9e3779b97f4a7c15ULL) ^
                   req.retries);
      const double unit =
          static_cast<double>(g.next() >> 11) * 0x1.0p-53;  // [0, 1)
      const double jitter = 0.75 + 0.5 * unit;
      req.not_before =
          Clock::now() + std::chrono::microseconds(
                             static_cast<std::int64_t>(base * jitter));
      delayed_.push_back(std::move(req));
      watch_cv_.notify_all();  // the watchdog promotes it when due
    } else {
      // A retry re-enters at the front, above the capacity bound.
      enqueue_locked(std::move(req), /*front=*/true);
      work_cv_.notify_all();
    }
    return;
  }
  finish_locked(req, RequestStatus::Failed, {}, fault,
                static_cast<int>(device));
}

void DeviceCluster::probe_device(std::size_t device) {
  auto& d = *devices_[device];
  bool ok = true;
  bool mismatch = false;
  // The probe replays each plan's canary on the device's default stream
  // (no traffic is routed to a Probation device, and the watchdog only
  // probes with zero in-flight replays, so the GraphExec and the stream are
  // exclusively ours). The stream may still carry the sticky
  // error that quarantined the device -- recovery starts by clearing it.
  d.dev.stream().clear_error();
  try {
    for (auto& [name, entry] : d.plans) {
      rt::GraphUpdates updates;
      updates.copy_in(0, entry.canary_in);
      auto ev = entry.exec.launch(d.dev.stream(), std::move(updates));
      ev.wait();
      if (entry.host_out != entry.canary_golden) {
        ok = false;
        mismatch = true;
        break;
      }
    }
  } catch (const std::exception&) {
    ok = false;  // the canary faulted: not healed yet
  }
  d.dev.stream().clear_error();  // leave no probe residue either way

  std::lock_guard<std::mutex> lock(mu_);
  if (d.health != DeviceHealth::Probation) {
    return;  // unplugged (or shut down) mid-probe
  }
  if (ok) {
    // Rejoin the load clock no lower than the least-loaded routable peer,
    // so the device does not take all traffic while it catches up.
    double least = std::numeric_limits<double>::infinity();
    for (const auto& p : devices_) {
      if (routable(p->health)) {
        least = std::min(least, p->load_us);
      }
    }
    if (std::isfinite(least)) {
      d.load_us = std::max(d.load_us, least);
    }
    d.health = DeviceHealth::Healthy;
    d.consecutive_faults = 0;
    ++stats_.readmitted;
    work_cv_.notify_all();  // back in the routing set
  } else {
    if (mismatch) {
      ++stats_.corruption_detected;
    }
    // Back to quarantine; the timer restarts, the watchdog will probe
    // again after another probation_delay_us.
    d.health = DeviceHealth::Quarantined;
    ++stats_.quarantined;
    d.quarantined_at = Clock::now();
    watch_cv_.notify_all();
  }
}

}  // namespace simt::cluster
