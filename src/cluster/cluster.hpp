// DeviceCluster: the serving tier. One front-end owns N runtime::Devices
// (mixed backends and core shapes allowed) and turns a firehose of small
// requests into steady-state graph replays:
//
//   submit(tenant, plan, payload)
//     -> bounded admission queue (reject / shed-oldest / block on overload,
//        round-robin fairness across tenants) -- the only place work waits
//     -> each per-device worker pulls the queue head when its device is
//        the head's routing argmin: the least modeled load taken so far
//        plus the plan's cost there (per-plan cost estimates measured at
//        registration, so a scalar soft-CPU device naturally takes less
//        traffic than a 950 MHz multicore device)
//     -> the worker replays the plan's pre-instantiated GraphExec on a
//        per-tenant stream -- the per-request hot path is ONE copy-in
//        rebind + composite replay, no re-validation, no re-assembly, and
//        (for prologue kernels) no I-MEM touch at all
//     -> the request's ClusterTicket resolves with the output slice,
//        host latency, and the serving device.
//
// Failure semantics (see docs/robustness.md): every device runs a health
// state machine. A transient fault (faults::TransientFault, or an output
// that fails the plan's verify hook) degrades the device and retries the
// request -- with capped exponential backoff + deterministic jitter when
// ClusterConfig::retry_backoff_us is set -- and only
// ClusterConfig::quarantine_after consecutive transients quarantine it. A
// hard fault (anything else thrown by the device) quarantines immediately:
// no new routes (queued work waits in the shared admission queue, so the
// survivors take it), the faulted request retries elsewhere up to
// ClusterConfig::max_retries. With probation_delay_us set, a quarantined
// device is later probed with a canary replay (its golden output was
// captured at plan registration) and re-admitted when the canary
// round-trips bit-exact.
// DeviceCluster::unplug(i) is the administrative version of the quarantine
// path, minus the probation: in-flight work drains, nothing accepted is
// lost. With every device gone, queued work resolves Failed and new
// submissions are rejected at admission.
//
// Deadlines: ClusterConfig::default_deadline_us (overridable per request
// via SubmitOptions) bounds a request's whole life; a watchdog thread
// fails overdue work -- queued, backoff-delayed, blocked at admission, or
// hung in flight -- with a named "DeadlineExceeded" error, so tickets
// resolve and never hang even when a device stalls mid-replay.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/faults.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/graph.hpp"

namespace simt::runtime {
class Stream;
}

namespace simt::cluster {

/// What admission does when the bounded queue is full.
enum class OverloadPolicy {
  Reject,     ///< refuse the new request (ticket resolves Rejected)
  ShedOldest, ///< evict the oldest queued request (it resolves Shed), admit
  Block,      ///< block the submitter until space frees up
};

struct ClusterConfig {
  /// Admission-queue bound across all tenants (requests not yet taken by a
  /// device worker). Retries re-enter above the bound: accepted work is
  /// never shed by its own retry.
  std::size_t queue_capacity = 64;
  OverloadPolicy policy = OverloadPolicy::Reject;
  /// Fail-over attempts per request before it resolves Failed.
  unsigned max_retries = 3;

  // ---- robustness knobs (all default OFF: behavior and hot path are
  // bit-identical to a config that never heard of them) ----

  /// Fault-injection spec (common/faults.hpp grammar) attached to every
  /// device that does not already carry an injector; empty = none.
  std::string fault_spec;
  /// Seed for the injectors (device i draws from a per-device stream) and
  /// for the retry-backoff jitter.
  std::uint64_t fault_seed = 0x950;
  /// Host-wall-clock deadline applied to every request that does not
  /// override it (SubmitOptions::deadline_us). 0 = no deadline.
  std::int64_t default_deadline_us = 0;
  /// First retry backoff; doubles per retry up to retry_backoff_cap_us,
  /// scaled by a deterministic jitter in [0.75, 1.25). 0 = retries
  /// re-enter the admission queue immediately (the pre-backoff behavior).
  std::uint64_t retry_backoff_us = 0;
  std::uint64_t retry_backoff_cap_us = 10000;
  /// Consecutive transient faults that escalate Degraded -> Quarantined.
  unsigned quarantine_after = 3;
  /// How long a quarantined device rests before the watchdog probes it
  /// with a canary replay (Probation). 0 = quarantine is forever (the
  /// pre-probation behavior).
  std::uint64_t probation_delay_us = 0;
};

/// Per-request admission options (submit()'s trailing parameter).
struct SubmitOptions {
  /// Request deadline: -1 = ClusterConfig::default_deadline_us, 0 = none,
  /// > 0 = this many microseconds from submit.
  std::int64_t deadline_us = -1;
};

/// Device health state machine (see docs/robustness.md). Routable states
/// are Healthy and Degraded; alive()/alive_count() count exactly those.
enum class DeviceHealth : std::uint8_t {
  Healthy,      ///< full traffic
  Degraded,     ///< recent transient fault(s); routed at a cost penalty
  Quarantined,  ///< no routes; awaiting probation (or forever, if off)
  Probation,    ///< canary replay in progress
  Unplugged,    ///< administratively removed; never probed
};

const char* to_string(DeviceHealth h);

/// One positional kernel argument of a serving plan.
struct PlanArg {
  enum class Kind {
    Input,   ///< per-request payload buffer (exactly one per plan)
    Output,  ///< per-request result buffer (exactly one per plan)
    Const,   ///< buffer preloaded once at registration (e.g. FIR taps)
    Scalar,  ///< 32-bit immediate (overridable per request)
  };
  Kind kind = Kind::Scalar;
  std::uint32_t words = 0;              ///< buffer size (Input/Output/Const)
  std::vector<std::uint32_t> data;      ///< Const preload (sizes the buffer)
  std::uint32_t scalar = 0;             ///< Scalar default value

  static PlanArg input(std::uint32_t words) {
    PlanArg a;
    a.kind = Kind::Input;
    a.words = words;
    return a;
  }
  static PlanArg output(std::uint32_t words) {
    PlanArg a;
    a.kind = Kind::Output;
    a.words = words;
    return a;
  }
  static PlanArg constant(std::vector<std::uint32_t> data) {
    PlanArg a;
    a.kind = Kind::Const;
    a.words = static_cast<std::uint32_t>(data.size());
    a.data = std::move(data);
    return a;
  }
  static PlanArg immediate(std::uint32_t value) {
    PlanArg a;
    a.kind = Kind::Scalar;
    a.scalar = value;
    return a;
  }
};

/// Per-request scalar override: (parameter position, value). The position
/// indexes the plan's args and must name a Scalar entry.
struct ScalarOverride {
  std::size_t param = 0;
  std::uint32_t value = 0;
};

/// A serving plan: one (module, kernel, shape) pre-instantiated on every
/// device at registration. Requests against the plan carry an input-buffer
/// payload (input words, frozen) and receive the output buffer back.
struct PlanSpec {
  std::string name;     ///< plan id requests refer to
  std::string source;   ///< kernel-ABI assembly source
  std::string kernel;   ///< `.kernel` entry name
  unsigned threads = 0; ///< grid size per request (the frozen shape)
  std::vector<PlanArg> args;  ///< positional binding recipe
  /// Optional output check run on every served request: given the request
  /// payload, its scalar overrides, and the output words, return false to
  /// flag corruption -- the request is then retried like a transient fault
  /// and ClusterStats::corruption_detected increments.
  std::function<bool(std::span<const std::uint32_t> payload,
                     const std::vector<ScalarOverride>& scalars,
                     std::span<const std::uint32_t> output)>
      verify;
};

/// Terminal state of a request.
enum class RequestStatus : std::uint8_t {
  Pending,   ///< queued or in flight
  Ok,        ///< served; result() is readable
  Rejected,  ///< refused at admission (queue full / no devices)
  Shed,      ///< admitted, then evicted by a ShedOldest overload
  Failed,    ///< faulted on-device past the retry budget, or shutdown
};

const char* to_string(RequestStatus s);

/// Completion handle for one submitted request (shared-state value type).
class ClusterTicket {
 public:
  ClusterTicket() = default;

  bool valid() const { return state_ != nullptr; }
  /// Has the request reached a terminal state (any RequestStatus but
  /// Pending)? Non-blocking.
  bool done() const;
  /// Block until terminal.
  void wait() const;
  /// Block until terminal or `timeout` elapses; true if terminal. The
  /// request keeps running either way -- this is a host-side poll bound,
  /// not a cancellation (deadlines are: see SubmitOptions::deadline_us).
  bool wait_for(std::chrono::microseconds timeout) const;
  RequestStatus status() const;
  /// The request's output words; throws unless status() is Ok (with the
  /// device fault's message for Failed requests).
  std::span<const std::uint32_t> result() const;
  /// Host wall-clock from submit() to the terminal state, microseconds.
  /// Throws while Pending.
  double latency_us() const;
  /// Index of the device that served the request; -1 if none did.
  int device() const;
  /// Cluster-wide completion ordinal (1, 2, ... in the order requests
  /// reached a terminal state); 0 while Pending. Lets tests assert
  /// fairness without timing.
  std::uint64_t completion_seq() const;
  /// Fail-over attempts this request took.
  unsigned retries() const;

 private:
  friend class DeviceCluster;
  struct State;
  std::shared_ptr<State> state_;
};

/// Aggregate serving counters (snapshot).
struct ClusterStats {
  std::uint64_t submitted = 0;  ///< submit() calls
  std::uint64_t accepted = 0;   ///< admitted into the queue
  std::uint64_t rejected = 0;   ///< refused at admission
  std::uint64_t shed = 0;       ///< evicted by ShedOldest
  std::uint64_t completed = 0;  ///< served Ok
  std::uint64_t failed = 0;     ///< terminal device/shutdown failures
  std::uint64_t retried = 0;    ///< fail-over re-queues
  std::uint64_t quarantined = 0;  ///< devices removed by sticky faults
  std::uint64_t deadline_failures = 0;  ///< requests failed "DeadlineExceeded"
  std::uint64_t corruption_detected = 0;  ///< verify-hook / canary mismatches
  std::uint64_t probations = 0;   ///< Quarantined -> Probation transitions
  std::uint64_t readmitted = 0;   ///< Probation -> Healthy transitions
  std::size_t queued = 0;       ///< currently in the admission queue
  std::vector<std::uint64_t> per_device_completed;
  std::vector<DeviceHealth> per_device_health;
  /// Modeled device-time (us at the device's realized Fmax) each device
  /// spent serving completed replays. The cluster's modeled makespan is the
  /// max entry; serving capacity scales with device count even when the
  /// simulating host is a single core.
  std::vector<double> per_device_busy_us;
};

class DeviceCluster {
 public:
  /// Open one device per descriptor and start the serving threads (one
  /// watchdog plus one worker per device). Throws simt::Error on an empty
  /// descriptor list.
  explicit DeviceCluster(std::vector<runtime::DeviceDescriptor> descs,
                         ClusterConfig cfg = {});
  ~DeviceCluster();

  DeviceCluster(const DeviceCluster&) = delete;
  DeviceCluster& operator=(const DeviceCluster&) = delete;

  /// Register a serving plan on every alive device: assemble the module
  /// (the per-device module cache absorbs re-registration), allocate and
  /// preload its buffers, capture the copy-in / launch / copy-out pipeline,
  /// instantiate one GraphExec per device, and run one warmup replay to
  /// prime the resident image and measure the routing cost estimate.
  /// Call before traffic; throws on a spec with no (or several) Input or
  /// Output args, or anything the kernel ABI rejects.
  void register_plan(const PlanSpec& spec);

  /// Queue one request. `payload` must be exactly the plan's Input words.
  /// Returns a ticket that resolves Ok/Rejected/Shed/Failed; never throws
  /// on overload (that is the ticket's job) but does throw on an unknown
  /// plan, a bad payload size, or a bad scalar override.
  ClusterTicket submit(std::string_view tenant, std::string_view plan,
                       std::span<const std::uint32_t> payload,
                       std::vector<ScalarOverride> scalars = {},
                       SubmitOptions opts = {});

  /// Block until every accepted request has reached a terminal state.
  void drain();

  /// Hot-unplug: stop routing to device `i` and let its in-flight replay
  /// drain; the surviving devices take the queued work. Accepted requests
  /// are never lost; with no survivors they resolve Failed and new
  /// submissions are Rejected.
  void unplug(std::size_t i);
  /// Routable (Healthy or Degraded)?
  bool alive(std::size_t i) const;
  DeviceHealth health(std::size_t i) const;
  std::size_t device_count() const { return devices_.size(); }
  std::size_t alive_count() const;

  /// The fault injector device `i` carries (nullptr without one). Arm /
  /// disarm all of them at once: benches disarm for setup traffic and arm
  /// for the storm. register_plan() disarms internally so warmup and
  /// canary replays never consume trigger indices.
  faults::FaultInjector* fault_injector(std::size_t i);
  void arm_faults();
  void disarm_faults();

  /// Hold the workers between requests: in-flight replays finish, nothing
  /// new is taken from the admission queue. Lets tests build a queue
  /// backlog deterministically.
  void pause();
  void resume();

  ClusterStats stats() const;

  /// Escape hatch for tests and tools (device `i` must exist).
  runtime::Device& device(std::size_t i);

 private:
  struct PlanEntry;
  struct DeviceState;
  struct Request;

  /// Pull the admission queue's head whenever this device is its routing
  /// argmin, and replay it; run canary probes the watchdog asks for.
  void worker_loop(std::size_t device);
  /// Deadline + backoff + probation timer thread: fails overdue work
  /// wherever it sits (queued, delayed, in flight), moves due backoff
  /// retries into the admission queue, and promotes rested quarantined
  /// devices to Probation.
  void watchdog_loop();
  /// Issue one taken request on this device and run the replay to
  /// completion before returning (worker thread only).
  void issue(std::size_t device, PlanEntry& entry, Request req);
  /// Join the request's replay on the worker thread and resolve its ticket.
  void complete(std::size_t device, PlanEntry& entry,
                const runtime::Event& event, Request req);
  /// Canary-replay a device on probation (worker thread, off-lock);
  /// re-admits on a bit-exact round trip, re-quarantines otherwise.
  void probe_device(std::size_t device);
  /// The routable device that should serve `plan` next: least load_us plus
  /// the plan's cost there (doubled while Degraded), ties to the lowest
  /// index; -1 if no routable device holds the plan (lock held).
  int route_locked(const std::string& plan) const;
  /// Take the round-robin head of the admission queue (lock held; the
  /// queue must be non-empty).
  Request pop_head_locked();
  /// Remove every queued request `pred` selects and resolve it Failed with
  /// `error`; returns how many (lock held).
  std::size_t fail_queued_locked(
      const std::function<bool(const Request&)>& pred, const char* error);
  /// Add a request to its tenant's admission FIFO (lock held). `front`
  /// requeues fail-over work ahead of newer traffic, above the bound.
  void enqueue_locked(Request req, bool front);
  /// Evict the oldest queued request as Shed (lock held; ShedOldest).
  void shed_oldest_locked();
  /// Resolve a ticket to a terminal state and update counters (lock held).
  /// Returns false (and changes nothing) if the ticket is already
  /// terminal -- the watchdog and the completion path may race to it.
  /// `accepted` is false for requests failed before admission (a blocked
  /// submit's deadline): they never entered in_system_.
  bool finish_ticket_locked(const std::shared_ptr<ClusterTicket::State>& st,
                            RequestStatus status,
                            std::vector<std::uint32_t> output,
                            std::string error, int device,
                            std::chrono::steady_clock::time_point submitted,
                            unsigned retries, bool accepted);
  void finish_locked(Request& req, RequestStatus status,
                     std::vector<std::uint32_t> output, std::string error,
                     int device, bool accepted = true);
  /// Stop routing to a device and fail the queued work no routable device
  /// can serve any more (lock held). `fault` distinguishes Quarantined
  /// (probation-eligible) from Unplugged.
  void retire_device_locked(std::size_t device, bool fault);

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<DeviceState>> devices_;
  std::thread watchdog_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< wakes the device workers
  std::condition_variable space_cv_;  ///< wakes Block-policy submitters
  std::condition_variable drain_cv_;  ///< wakes drain()
  std::condition_variable watch_cv_;  ///< wakes the watchdog
  bool stopping_ = false;
  bool paused_ = false;

  /// Admission queue: per-tenant FIFOs plus a round-robin ring of the
  /// tenants with queued work, so one hot tenant cannot starve the others.
  std::deque<std::string> tenant_ring_;
  std::unordered_map<std::string, std::deque<Request>> tenants_;
  std::size_t queued_ = 0;
  /// Backoff parking lot: retried requests waiting out their delay. Not
  /// counted in queued_ (a retry never competes with fresh admission);
  /// still counted in in_system_ (drain waits for them).
  std::deque<Request> delayed_;
  std::uint64_t in_system_ = 0;  ///< accepted but not yet terminal
  std::uint64_t admit_seq_ = 0;  ///< admission order (shed-oldest key)
  std::uint64_t completion_seq_ = 0;
  ClusterStats stats_;

  /// Plan registry shared by every device (specs are device-independent).
  std::unordered_map<std::string, PlanSpec> specs_;
};

}  // namespace simt::cluster
