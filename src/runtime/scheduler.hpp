// The device-owned asynchronous scheduler.
//
// Streams do not execute anything themselves: every copy/launch command is
// submitted here and queued, and submission returns at once. A join
// (Stream::synchronize(), Event::wait()) runs the queued commands on the
// joining thread, in submission order, until its own ticket has executed --
// the synchronous host interface of the paper, with the queue in between.
// Only one thread drains at a time; other joiners sleep and take over if
// their ticket is still pending when the drainer stops. Commands carry
// dependency tickets (same-stream ordering, cross-stream Event waits);
// submission order trivially satisfies those dependencies and keeps
// multi-stream execution deterministic -- on real hardware the
// dependencies are what the DMA descriptors would encode.
//
// Alongside functional execution the scheduler keeps a modeled timeline:
// each command occupies a device engine (the staging DMA for copies, the
// compute array for launches) for its modeled duration. serial_us prices
// the PR-1 shape -- every command back to back on one timeline -- and
// overlap_us prices the engines running concurrently subject to the
// dependency tickets, i.e. double-buffered staging. The ratio is the
// modeled throughput gain of the asynchronous engine.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/event.hpp"

namespace simt::runtime {

class Device;

/// Which modeled device engine a command occupies.
enum class EngineKind { Copy, Exec, None };

/// Modeled host-side dispatch costs, in microseconds. The device engines
/// (staging DMA, compute array) are priced by the timeline below; these
/// constants price the OTHER half of a launch -- the host work of getting
/// a command onto the device: queue submission, argument validation and
/// binding, building the relocation patch plan, and intersecting declared
/// footprints. For the short kernels the eGPU papers serve, this path
/// dominates wall clock, and it is exactly what execution-graph replay
/// amortizes: a captured sequence is validated/planned once at
/// instantiate time and replays as ONE submitted command whose per-node
/// cost is a frozen-plan walk.
struct HostCost {
  static constexpr double kSubmitUs = 0.40;     ///< enqueue one command
  static constexpr double kCopyPrepUs = 0.10;   ///< snapshot + bounds check
  static constexpr double kValidateUs = 0.15;   ///< per-launch arg checks
  static constexpr double kPerArgUs = 0.03;     ///< binding one argument
  static constexpr double kPerRelocUs = 0.02;   ///< one patch-plan site
  static constexpr double kPerFootprintUs = 0.05;  ///< one declared range
  static constexpr double kReplayNodeUs = 0.02;    ///< walk one frozen node
};

/// Modeled host cost of preparing one eager launch command (validation,
/// positional binding, patch-plan resolution, footprint intersection).
inline double launch_prep_us(std::size_t args, std::size_t relocs,
                             std::size_t footprints) {
  return HostCost::kValidateUs +
         static_cast<double>(args) * HostCost::kPerArgUs +
         static_cast<double>(relocs) * HostCost::kPerRelocUs +
         static_cast<double>(footprints) * HostCost::kPerFootprintUs;
}

/// Modeled timeline roll-up across everything this scheduler has executed.
struct TimelineStats {
  double serial_us = 0.0;   ///< every command back to back (the PR-1 model)
  double overlap_us = 0.0;  ///< copy/exec engines overlapped
  /// Modeled host-side dispatch cost (HostCost): submission plus per-
  /// command preparation. Graph replay's whole point is to shrink this.
  double dispatch_us = 0.0;
  std::uint64_t copied_words = 0;
  std::uint64_t exec_cycles = 0;
  unsigned commands = 0;       ///< scheduler commands (a replay counts once)
  unsigned graph_replays = 0;  ///< composite (graph-replay) commands

  /// Modeled throughput gain of overlapping staging with execution.
  double overlap_speedup() const {
    return overlap_us > 0.0 ? serial_us / overlap_us : 1.0;
  }
};

/// A stream's sticky-error slot, shared between the stream and its queued
/// commands. It carries its own mutex so the draining joiner's store (any
/// thread's join may run this stream's commands) and the stream's consume
/// (Stream::synchronize) stay race-free even while other host threads keep
/// submitting past the joined ticket.
struct StreamErrorSlot {
  std::mutex mutex;
  std::exception_ptr error;
};

class Scheduler {
 public:
  /// One schedulable command. `run` executes on whichever thread joins it
  /// (or a later ticket) and returns the command's modeled duration in
  /// device cycles.
  struct Command {
    EngineKind engine = EngineKind::None;
    std::function<std::uint64_t()> run;
    std::shared_ptr<EventState> event;  ///< resolved after run (optional)
    /// The submitting stream's error slot: a faulting command stores its
    /// exception here (first fault wins), so errors stay attributed to
    /// the stream that owns the command instead of leaking to whichever
    /// stream synchronizes first.
    std::shared_ptr<StreamErrorSlot> error_slot;
    std::uint64_t words = 0;            ///< staging traffic (copies)
    /// Staging channel for Copy commands: each stream owns one (its half
    /// of the double buffer), so copies on different streams overlap while
    /// copies within a stream serialize. Launches share the one compute
    /// array regardless.
    unsigned channel = 0;
    /// Modeled host preparation cost beyond the submission itself
    /// (HostCost); folded into TimelineStats::dispatch_us.
    double prep_us = 0.0;
    /// Composite command (graph replay): a frozen sub-sequence executed in
    /// (topological) order as ONE scheduler command. The parent carries the
    /// event, the error slot, and the (once-only) dispatch cost; each
    /// sub-command is priced on its own engine no earlier than its `after`
    /// dependencies finish, so independent branches of a cross-stream
    /// capture overlap on the modeled engines (DMA vs compute, channel vs
    /// channel) while the host pays for a single submission. Sub-commands
    /// must not carry events, error slots, or nested sub-sequences of
    /// their own.
    std::vector<Command> sub;
    /// Timeline dependencies of this sub-command: indices of earlier
    /// entries in the owning composite's `sub` list (the frozen DAG's
    /// edges). Empty = ready when the composite's own dependencies are.
    /// Meaningless on top-level commands.
    std::vector<std::uint32_t> after;
  };

  explicit Scheduler(Device& dev);
  ~Scheduler();  ///< runs whatever is still queued

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a command after `deps` (earlier tickets). Returns its ticket.
  Ticket submit(Command cmd, std::vector<Ticket> deps = {});

  /// Run queued commands on the calling thread until ticket `t` has
  /// executed (t == 0 returns immediately). If another joiner is already
  /// draining, sleep until it has run `t` or stopped short of it, then
  /// take over. Errors are reported through the command's stream error
  /// slot and event, not here -- see Stream::synchronize() and
  /// Event::wait().
  void wait(Ticket t);
  /// Run every submitted command.
  void wait_all();

  /// Has ticket `t` executed? A non-driving poll: it runs nothing, so it
  /// reads "not yet" until some join has run the command. (t == 0 is
  /// always done.)
  bool done(Ticket t) const;

  TimelineStats timeline() const;

  /// Liveness token shared with events (and graphs captured on this
  /// device): expired once the scheduler is destroyed, so handles that
  /// outlive the device can tell instead of dereferencing it.
  std::weak_ptr<void> liveness() const { return liveness_; }

 private:
  struct Node {
    Command cmd;
    std::vector<Ticket> deps;
    Ticket ticket = 0;
  };

  /// Pop the queue front, run it with the mutex released, and account
  /// for it under the mutex again (caller holds `lock` and is the one
  /// drainer; the queue is non-empty).
  void run_front(std::unique_lock<std::mutex>& lock);
  /// Fold an executed command into the modeled timeline (mutex held).
  /// `sub_cycles` carries the per-sub-command durations of a composite.
  void account(const Node& node, std::uint64_t cycles,
               const std::vector<std::uint64_t>& sub_cycles);
  /// Price one (sub-)command on its engine starting no earlier than
  /// `ready`; returns its finish time (mutex held).
  double price(const Command& cmd, double ready, std::uint64_t cycles);

  Device& dev_;
  double fmax_mhz_;
  /// Handed to events as a weak_ptr; reset by the destructor so an Event
  /// that outlives the device can tell its scheduler is gone.
  std::shared_ptr<void> liveness_ = std::make_shared<int>(0);

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< wakes joiners
  std::deque<Node> queue_;
  Ticket next_ticket_ = 1;
  Ticket completed_ = 0;  ///< every ticket <= this has executed
  /// A joiner is running commands: the one thread allowed to pop the
  /// queue, so commands run (and are accounted) in ticket order.
  bool draining_ = false;

  // Modeled timeline (all in modeled microseconds at fmax_mhz_).
  std::vector<double> copy_free_us_;  ///< per staging channel
  double exec_free_us_ = 0.0;
  double serial_us_ = 0.0;
  double overlap_us_ = 0.0;
  double dispatch_us_ = 0.0;
  std::uint64_t copied_words_ = 0;
  std::uint64_t exec_cycles_ = 0;
  unsigned commands_ = 0;
  unsigned graph_replays_ = 0;
  /// Finish times of recent commands, for dependency lookups. Bounded: a
  /// long-lived serving device would otherwise grow one entry per command
  /// forever. A dependency older than the window resolves to "ready at 0",
  /// which the monotone engine timelines make harmless in practice.
  static constexpr std::size_t kFinishWindow = 16384;
  std::unordered_map<Ticket, double> finish_us_;
  std::deque<Ticket> finish_order_;
};

}  // namespace simt::runtime
