// Execution graphs: capture a command DAG once, instantiate it into a
// pre-resolved executable, and replay it many times with only the
// arguments changing -- the CUDA Graphs shape.
//
// The eGPU line of work shows that for short kernels the host-side dispatch
// path (enqueue, validate, bind, patch, footprint intersection) dominates
// wall clock, not the compute array. Eager streams pay that path per
// command per iteration; a serving loop that runs the same copy-in /
// launch / copy-out pipeline every request pays it thousands of times for
// identical answers. A Graph records the pipeline instead of executing it
// (Stream::begin_capture / end_capture), Graph::instantiate() does the
// validation and planning exactly once (every launch becomes a frozen
// Device::LaunchPlan: patch plan, binding signature, staging footprint),
// and GraphExec::launch() replays the whole DAG as ONE scheduler command.
//
// Capture is a DAG, not a list: after a primary stream begins the capture,
// other streams of the same device join it by calling begin_capture on the
// same graph. Each joined stream records onto its own LANE; within a lane
// the recorded order is the dependency chain, and a Stream::wait on an
// event captured on another lane becomes a cross-lane DAG edge instead of
// a throw. At replay the scheduler prices independent branches as
// overlapping engine time (each lane's copies on its own modeled DMA
// channel, launches serialized on the one compute array), so a two-stream
// double-buffered pipeline's modeled wall time drops versus the
// linearized replay -- while host dispatch stays one submission.
//
// Staging fusion: at instantiate() time, adjacent captured copy-ins on the
// same lane whose destination ranges are exactly contiguous (RangeSet
// algebra, no gap coalescing) fuse into ONE modeled DMA burst -- one node,
// one fixed kDmaSetupCycles setup, one write_words job on the stage-worker
// path. GraphUpdates ordinals are unaffected: each captured copy-in maps
// to a segment (offset/length) of its fused burst, so per-replay payload
// rebinds address the capture-time transfers regardless of fusion.
//
// Per-replay rebinding: GraphUpdates swaps a launch node's KernelArgs
// (re-deriving its signature and footprint through the PR-3 patch plan; an
// unchanged binding skips the patch and the I-MEM reload exactly like
// Device::launch_sync) and/or refreshes a copy-in's payload, so a serving
// loop feeds new inputs and scalars through the same frozen pipeline.
// Everything else -- kernels, thread counts, buffers, the DAG -- is frozen
// at capture time.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/args.hpp"
#include "runtime/device.hpp"
#include "runtime/event.hpp"
#include "runtime/module.hpp"

namespace simt::runtime {

class Stream;
class GraphExec;

/// One stream command in built (not yet executed) form -- the shared
/// currency of the eager path (converted into a scheduler command and
/// submitted) and graph capture (recorded as a node). Stream builds ops
/// once in Stream::submit_op; capture and eager execution are two sinks
/// for the same structure.
struct StreamOp {
  enum class Kind { CopyIn, CopyOut, Launch, Marker };
  Kind kind = Kind::Marker;
  std::uint32_t base = 0;           ///< device word base (copies)
  std::vector<std::uint32_t> data;  ///< CopyIn payload snapshot
  std::uint32_t* dst = nullptr;     ///< CopyOut destination (caller-owned)
  std::size_t count = 0;            ///< CopyOut words
  Kernel kernel{};                  ///< Launch
  unsigned threads = 0;             ///< Launch grid size
  KernelArgs args{};                ///< Launch binding at capture time
};

/// One node of a captured DAG: the op, the capture lane (which captured
/// stream recorded it), and the indices of the nodes it depends on (the
/// in-lane predecessor plus any cross-lane Stream::wait edges). Nodes are
/// stored in capture order, so every dependency index is smaller than the
/// node's own -- the DAG is topological by construction.
struct GraphNode {
  StreamOp op;
  unsigned lane = 0;
  std::vector<std::size_t> deps;
};

/// A captured command DAG. Filled between Stream::begin_capture and
/// end_capture (a primary stream opens the capture; other streams of the
/// same device join it as additional lanes); immutable afterwards except
/// for clear(). Capture is a single-host-thread affair.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return nodes_.size(); }
  /// Launch nodes in capture order (the ordinals GraphUpdates::args uses).
  std::size_t launch_count() const;
  /// Copy-in nodes in capture order (the ordinals GraphUpdates::copy_in
  /// uses).
  std::size_t copy_in_count() const;
  /// Capture lanes: the number of streams that recorded into this graph.
  unsigned lane_count() const { return lanes_; }
  /// The capture lane of node `i` (capture order).
  unsigned node_lane(std::size_t i) const { return nodes_[i].lane; }
  /// The dependency edges of node `i` (indices of earlier nodes).
  const std::vector<std::size_t>& node_deps(std::size_t i) const {
    return nodes_[i].deps;
  }
  /// The device the capturing streams belonged to (null before capture).
  Device* device() const { return dev_; }

  /// Drop every captured node so the graph can be re-captured.
  void clear();

  /// Validate and pre-resolve the whole DAG into an executable: every
  /// launch node becomes a frozen Device::LaunchPlan (argument validation,
  /// relocation patch plan, binding signature, absolute staging footprint
  /// -- work eager launches redo per submission), adjacent same-lane
  /// copy-ins to contiguous destinations fuse into single DMA bursts, and
  /// copy costs are priced once. Throws simt::Error on an empty or
  /// still-capturing graph, on a graph whose capturing device has been
  /// destroyed or mem_reset() since capture, on a malformed (cyclic)
  /// dependency, or on any launch launch_sync would reject.
  GraphExec instantiate() const;

 private:
  friend class Stream;
  friend class GraphTestPeer;  ///< white-box access for the DAG test suite
  Device* dev_ = nullptr;
  unsigned capturing_ = 0;  ///< streams currently recording into this graph
  unsigned lanes_ = 0;      ///< lanes ever attached (capture lane ids)
  /// Device::allocation_generation() at capture begin: a mem_reset() since
  /// makes every captured buffer base stale, so instantiate() refuses.
  std::uint64_t capture_alloc_gen_ = 0;
  /// Liveness token of the capturing device's scheduler: expired once the
  /// device is destroyed, so instantiate() can throw instead of touching a
  /// dangling backend.
  std::weak_ptr<void> dev_alive_;
  std::vector<GraphNode> nodes_;
};

/// Per-replay rebinding set for GraphExec::launch. Ordinals count nodes of
/// the matching kind in capture order (the 0th launch, the 1st copy-in,
/// ...). Updates are applied when the replay runs (by whichever thread
/// joins it), so an earlier queued replay is never mutated under.
class GraphUpdates {
 public:
  /// Rebind the `launch_index`-th captured launch to a new argument set.
  GraphUpdates& args(std::size_t launch_index, KernelArgs args) {
    args_.emplace_back(launch_index, std::move(args));
    return *this;
  }

  /// Replace the `copy_index`-th captured copy-in's payload (must be the
  /// captured word count -- the graph's staging extents are frozen).
  /// Ordinals address the CAPTURED transfers; a copy-in that fused into a
  /// burst at instantiate() time still rebinds through its own ordinal.
  GraphUpdates& copy_in(std::size_t copy_index,
                        std::vector<std::uint32_t> data) {
    copies_.emplace_back(copy_index, std::move(data));
    return *this;
  }

  bool empty() const { return args_.empty() && copies_.empty(); }

 private:
  friend class GraphExec;
  std::vector<std::pair<std::size_t, KernelArgs>> args_;
  std::vector<std::pair<std::size_t, std::vector<std::uint32_t>>> copies_;
};

/// An instantiated graph: frozen launch plans plus the captured (and
/// fused) DAG nodes, replayable any number of times. State is shared with
/// in-flight replays, so a GraphExec may be destroyed (or rebound for the
/// next replay) while a replay executes.
class GraphExec {
 public:
  GraphExec() = default;

  bool valid() const { return state_ != nullptr; }
  /// Nodes after instantiate-time fusion (<= the captured node count).
  std::size_t node_count() const;
  std::size_t launch_count() const;
  /// Captured copy-in transfers (the GraphUpdates::copy_in ordinals).
  std::size_t copy_in_count() const;
  /// Copy-in DMA bursts the replay actually issues: captured copy-ins
  /// minus the ones fusion merged away. The modeled DMA op count.
  std::size_t copy_in_bursts() const;

  /// The frozen plan of the `launch_index`-th captured launch (current
  /// binding, signature, footprint) -- introspection for tests and tools.
  /// Returns a snapshot: a join on another thread may be running a replay
  /// that rebinds the live plan.
  LaunchPlan plan(std::size_t launch_index) const;

  /// Replay the captured DAG on `stream` as ONE scheduler command,
  /// applying `updates` first (when the replay runs, ordered after earlier
  /// replays). The returned Event resolves when the whole replay has
  /// executed; its stats() aggregate the replayed launches, and its
  /// replay_serial_us()/replay_overlap_us() report the replay's modeled
  /// span priced linearized vs DAG-overlapped. Throws on a stream from
  /// another device, an out-of-range update ordinal, an argument set a
  /// launch's kernel rejects, or a copy payload whose size differs from
  /// the captured transfer.
  Event launch(Stream& stream, GraphUpdates updates = {});

 private:
  friend class Graph;
  /// Where one captured copy-in landed after fusion: a segment of the
  /// payload of node `node` (a fused burst covers several segments).
  struct CopySegment {
    std::size_t node = 0;
    std::size_t offset = 0;  ///< word offset into the node's payload
    std::size_t words = 0;   ///< the captured transfer's word count
  };
  struct State {
    Device* dev = nullptr;
    std::vector<GraphNode> nodes;           ///< post-fusion DAG
    std::vector<LaunchPlan> plans;          ///< one per launch node
    std::vector<std::size_t> launch_nodes;  ///< node index per launch
    /// One entry per CAPTURED copy-in, in capture order: where its payload
    /// lives after fusion (GraphUpdates::copy_in resolves through this).
    std::vector<CopySegment> copy_in_segments;
    std::size_t copy_in_nodes = 0;  ///< post-fusion copy-in (burst) count
    double staging_words_per_cycle = 1.0;
    /// Guards the rebindable pieces (plans, copy-in payloads) between
    /// submitting threads (validation reads in launch()) and the draining
    /// joiner (the apply sub-command's writes). The drainer's own reads
    /// need no lock: the scheduler runs one command at a time, so they
    /// never overlap its writes.
    mutable std::mutex mutex;
  };
  std::shared_ptr<State> state_;
};

}  // namespace simt::runtime
