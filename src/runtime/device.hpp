// The unified device runtime: a CUDA-driver-flavoured host API that treats
// every execution engine in this repo -- the single SIMT core, the
// multi-core system, and the scalar soft-CPU baseline -- as a `Device` you
// allocate buffers on, load modules into, and launch kernels at.
//
// The paper positions the eGPU as a software-programmable accelerator the
// host "programs against" (Section 1); the scalable soft-GPGPU follow-up
// manages the core through exactly this kind of uniform runtime. Backends
// are pluggable via DeviceDescriptor, so workloads, tools, and benches run
// unchanged across engines and the backend comparison is one flag.
//
// Grid semantics: `launch(kernel, threads)` covers a logical grid of
// `threads` threads. When the grid exceeds what the hardware holds at once
// (max_threads per core x cores), the launch is transparently split into
// rounds, and across cores within a round, using the %tid thread-base
// offset -- the single-block analogue of CUDA's blockIdx.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baseline/scalar_cpu.hpp"
#include "common/faults.hpp"
#include "core/gpgpu.hpp"
#include "core/perf.hpp"
#include "runtime/args.hpp"
#include "runtime/module.hpp"
#include "runtime/staging.hpp"
#include "system/multicore.hpp"

namespace simt::runtime {

class Scheduler;
class Stream;
template <typename T>
class Buffer;

/// Which execution engine backs the device.
enum class BackendKind { SimtCore, MultiCore, Scalar };

/// Everything needed to open a device. The realized clock defaults to the
/// backend's paper figure (950 MHz single core, the Table 2 multi-stamp
/// clock for a system, 300 MHz for the scalar soft CPU); set `fmax_mhz` to
/// override it with a fitter-realized value (fit::Fitter).
struct DeviceDescriptor {
  BackendKind backend = BackendKind::SimtCore;
  core::CoreConfig core{};             ///< core shape (SimtCore / MultiCore)
  unsigned num_cores = 1;              ///< MultiCore only
  baseline::ScalarCpuConfig scalar{};  ///< Scalar only
  double fmax_mhz = 0.0;               ///< 0 = backend default
  /// Host<->core staging bandwidth in 32-bit words per device clock. The
  /// default models a 32-bit bridge running at the core clock (one word
  /// per cycle), the common soft-logic host interface.
  double staging_words_per_cycle = 1.0;
  /// Optional deterministic fault plan (common/faults.hpp). Null (the
  /// default) keeps every injection hook an untaken null-check branch, so
  /// the modeled timeline and all results are bit-identical to a device
  /// with no fault machinery at all.
  std::shared_ptr<faults::FaultInjector> faults;

  static DeviceDescriptor simt_core(core::CoreConfig cfg = {});
  static DeviceDescriptor multi_core(unsigned cores,
                                     core::CoreConfig cfg = {});
  static DeviceDescriptor scalar_cpu(baseline::ScalarCpuConfig cfg = {});
};

/// Per-core slice of one logical launch's roll-up.
struct CoreLaunchStats {
  unsigned core = 0;
  std::uint64_t exec_cycles = 0;   ///< kernel cycles, summed over rounds
  std::uint64_t staged_words = 0;  ///< incremental copy-in to this core
  std::uint64_t merged_words = 0;  ///< words this core stored (read back)
  unsigned rounds = 0;             ///< rounds this core participated in
  /// exec_cycles over the launch's critical-path exec cycles: how busy the
  /// core was while the launch ran (1.0 = never waiting on siblings).
  double occupancy = 0.0;
  /// Measured host (simulator) wall time this core spent staging shards in
  /// and executing kernel rounds -- real seconds, as opposed to the modeled
  /// device-clock figures above.
  double host_stage_us = 0.0;
  double host_exec_us = 0.0;
};

/// Rolled-up result of one logical launch (possibly many hardware rounds).
struct LaunchStats {
  core::PerfCounters perf{};  ///< cycles = critical path; work counters sum
  bool exited = false;        ///< every round reached EXIT
  unsigned rounds = 0;        ///< sequential hardware launches used
  double wall_us = 0.0;       ///< perf.cycles / the device's realized Fmax

  // Modeled staging roll-up. Nonzero traffic only on the multicore
  // backend, whose cores have private memories fed from the master image;
  // the single-core and scalar engines stage through the host interface
  // before the launch (see Scheduler's stream-level timeline).
  std::uint64_t staged_words = 0;  ///< incremental per-core copy-in traffic
  std::uint64_t merged_words = 0;  ///< stored words read back at merge
  /// Stale words the conservative path would have restaged but the
  /// kernel's declared read/write footprint let the runtime skip (they
  /// stay in the shard maps for whoever does need them).
  std::uint64_t staged_words_skipped = 0;
  std::uint64_t serial_cycles = 0;   ///< stage + exec + merge back to back
  std::uint64_t overlap_cycles = 0;  ///< double-buffered staging pipeline
  double serial_wall_us = 0.0;       ///< serial_cycles at the realized Fmax
  double overlap_wall_us = 0.0;      ///< overlap_cycles at the realized Fmax

  // Measured host (simulator) wall-time splits -- what this process really
  // spent, so the modeled overlap above can be validated against reality.
  // stage/exec sum across cores (core runs on workers overlap, so the
  // exec sum can exceed the end-to-end figure); stage and merge are
  // launching-thread time; host_wall_us is the whole backend launch.
  double host_stage_us = 0.0;
  double host_exec_us = 0.0;
  double host_merge_us = 0.0;
  double host_wall_us = 0.0;
  std::vector<CoreLaunchStats> per_core;

  /// Mean per-core occupancy (1.0 for single-engine backends).
  double occupancy() const {
    if (per_core.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (const auto& c : per_core) {
      sum += c.occupancy;
    }
    return sum / static_cast<double>(per_core.size());
  }
};

/// One per-thread (`@tid*stride[+window]`) footprint resolved against its
/// bound buffer: thread t touches absolute words [base + t*stride,
/// base + t*stride + window). The multicore backend scales these by each
/// round's thread slice, so a core dispatched over threads [lo, hi) stages
/// [base + lo*stride, base + (hi-1)*stride + window) instead of the
/// whole-launch range. Stride 1 is the plain elementwise shape; a chunked
/// kernel reading [t*P, (t+1)*P) declares stride = window = P.
struct SlicedFootprint {
  std::uint32_t base = 0;    ///< bound buffer word base
  std::uint32_t window = 1;  ///< words per thread
  std::uint32_t stride = 1;  ///< words between consecutive threads' bases
};

/// Absolute device-memory footprint of one launch, derived from the
/// kernel's declared `.reads`/`.writes` and the bound buffer arguments.
/// When `declared` is false (legacy kernels, or kernels without footprint
/// directives), staging falls back to the conservative restage-everything
/// path. `reads`/`writes` hold the whole-launch (thread-independent)
/// ranges, including the parameter window; per-thread declarations land in
/// `sliced_reads`/`sliced_writes` and are expanded per thread slice.
struct LaunchFootprint {
  bool declared = false;
  RangeSet reads;   ///< words the kernel may load (incl. the param window)
  RangeSet writes;  ///< words the kernel may store
  std::vector<SlicedFootprint> sliced_reads;
  std::vector<SlicedFootprint> sliced_writes;
};

/// The pluggable engine interface. Backends expose a flat word-addressed
/// device memory, a loadable program store, and a grid launch. Programs
/// load as predecoded images: build_image decodes (and, for the
/// cycle-accurate engines, validates) once, and load_image stamps the
/// shared image into the engine -- the Device caches images per module so
/// rounds, rebinding launches, and graph replays never re-decode.
class DeviceBackend {
 public:
  virtual ~DeviceBackend() = default;

  virtual std::string_view name() const = 0;
  virtual unsigned mem_words() const = 0;
  /// Threads the hardware covers in one round (grid sizes above this are
  /// legal and split into rounds).
  virtual unsigned max_concurrent_threads() const = 0;
  virtual double default_fmax_mhz() const = 0;

  /// Decode a program into an image this backend can load.
  virtual std::shared_ptr<const core::DecodedImage> build_image(
      const core::Program& program) const = 0;
  /// Load a (possibly shared) predecoded image into the engine.
  virtual void load_image(
      std::shared_ptr<const core::DecodedImage> image) = 0;
  /// Decode-and-load in one step (no cache involved).
  void load_program(const core::Program& program) {
    load_image(build_image(program));
  }

  virtual LaunchStats launch(std::uint32_t entry, unsigned threads,
                             const LaunchFootprint& footprint) = 0;

  virtual void read_words(std::uint32_t base,
                          std::span<std::uint32_t> out) const = 0;
  virtual void write_words(std::uint32_t base,
                           std::span<const std::uint32_t> data) = 0;
};

/// Backend wrapping the single cycle-accurate SIMT core (core::Gpgpu).
class SimtCoreBackend final : public DeviceBackend {
 public:
  explicit SimtCoreBackend(const core::CoreConfig& cfg) : gpu_(cfg) {}

  std::string_view name() const override { return "core"; }
  unsigned mem_words() const override {
    return gpu_.config().shared_mem_words;
  }
  unsigned max_concurrent_threads() const override {
    return gpu_.config().max_threads;
  }
  double default_fmax_mhz() const override { return 950.0; }

  std::shared_ptr<const core::DecodedImage> build_image(
      const core::Program& program) const override;
  void load_image(std::shared_ptr<const core::DecodedImage> image) override;
  LaunchStats launch(std::uint32_t entry, unsigned threads,
                     const LaunchFootprint& footprint) override;
  void read_words(std::uint32_t base,
                  std::span<std::uint32_t> out) const override;
  void write_words(std::uint32_t base,
                   std::span<const std::uint32_t> data) override;

  core::Gpgpu& gpu() { return gpu_; }
  const core::Gpgpu& gpu() const { return gpu_; }

 private:
  core::Gpgpu gpu_;
};

/// Backend wrapping system::MultiCoreSystem. The device presents one flat
/// memory image, but each core keeps a persistent private copy of it: a
/// per-core shard map (RangeSet of stale words) records exactly what the
/// core has not seen yet, so staging a round copies increments instead of
/// re-broadcasting the image. After a round, each core's exact write set
/// (Gpgpu::dirty_runs) is read back and every stored word that differs from
/// the master is folded in, core by core in dispatch order; the changed
/// ranges are marked stale for the sibling cores. Stores outside a kernel's
/// declared `.writes` merge exactly like declared ones. Conflict rule: when
/// two cores store one word in a round, the core with the higher `%tid`
/// slice wins -- the single-core write mux's highest-thread rule, so every
/// backend leaves the same value. Launch roll-ups carry the modeled staging
/// pipeline (LaunchStats::serial/overlap_cycles) and per-core occupancy.
class MultiCoreBackend final : public DeviceBackend {
 public:
  MultiCoreBackend(const system::SystemConfig& cfg,
                   double staging_words_per_cycle,
                   std::shared_ptr<faults::FaultInjector> faults = nullptr);

  std::string_view name() const override { return "multicore"; }
  unsigned mem_words() const override {
    return sys_.config().core.shared_mem_words;
  }
  unsigned max_concurrent_threads() const override {
    return sys_.num_cores() * sys_.config().core.max_threads;
  }
  double default_fmax_mhz() const override {
    return sys_.config().clock_mhz();
  }

  std::shared_ptr<const core::DecodedImage> build_image(
      const core::Program& program) const override;
  void load_image(std::shared_ptr<const core::DecodedImage> image) override;
  LaunchStats launch(std::uint32_t entry, unsigned threads,
                     const LaunchFootprint& footprint) override;
  void read_words(std::uint32_t base,
                  std::span<std::uint32_t> out) const override;
  void write_words(std::uint32_t base,
                   std::span<const std::uint32_t> data) override;

  system::MultiCoreSystem& system() { return sys_; }

 private:
  system::MultiCoreSystem sys_;
  std::vector<std::uint32_t> master_;  ///< host-coherent memory image
  /// Per-core shard map: master words this core's private image is stale
  /// on (host writes and sibling cores' merged output shards).
  std::vector<RangeSet> stale_;
  double staging_words_per_cycle_;
  /// The device's fault plan (Staging site); null = no injection.
  std::shared_ptr<faults::FaultInjector> faults_;
};

/// Backend wrapping the scalar soft-CPU baseline. A grid launch is emulated
/// as a software sweep: the program runs once per thread id, serially, which
/// is exactly how a single-threaded soft RISC would cover the same work.
class ScalarBackend final : public DeviceBackend {
 public:
  explicit ScalarBackend(const baseline::ScalarCpuConfig& cfg) : cpu_(cfg) {}

  std::string_view name() const override { return "scalar"; }
  unsigned mem_words() const override {
    return cpu_.config().shared_mem_words;
  }
  unsigned max_concurrent_threads() const override { return 1; }
  double default_fmax_mhz() const override { return cpu_.config().fmax_mhz; }

  std::shared_ptr<const core::DecodedImage> build_image(
      const core::Program& program) const override;
  void load_image(std::shared_ptr<const core::DecodedImage> image) override;
  LaunchStats launch(std::uint32_t entry, unsigned threads,
                     const LaunchFootprint& footprint) override;
  void read_words(std::uint32_t base,
                  std::span<std::uint32_t> out) const override;
  void write_words(std::uint32_t base,
                   std::span<const std::uint32_t> data) override;

  baseline::ScalarSoftCpu& cpu() { return cpu_; }

 private:
  baseline::ScalarSoftCpu cpu_;
};

/// Bump allocator over device shared-memory words. Buffers are handles into
/// the arena; there is no per-buffer free -- reset() reclaims everything
/// (the launch-scoped allocation pattern of embedded accelerators).
class MemoryPool {
 public:
  explicit MemoryPool(unsigned words) : words_(words) {}

  /// Allocate `count` words, with the base rounded up to `align` words
  /// (power of two; e.g. the staging vector width, so DMA bursts start
  /// aligned). Throws simt::Error on a zero-word request, a non-power-of-
  /// two alignment, or exhaustion.
  std::uint32_t allocate(std::size_t count, unsigned align = 1);
  void reset() { next_ = 0; }

  unsigned words() const { return words_; }
  unsigned used() const { return next_; }
  unsigned available() const { return words_ - next_; }

 private:
  unsigned words_;
  unsigned next_ = 0;
};

/// A pre-resolved launch: everything the runtime derives from a (kernel,
/// threads, args) triple before touching the backend. `Device::
/// prepare_launch` validates the argument set, resolves the relocation
/// patch plan (the kernel's `$param` sites against the bound values, keyed
/// by `sig` so an unchanged binding skips both the patch and the I-MEM
/// reload), and intersects the declared footprints with the bound buffers
/// into the absolute staging footprint. `Device::execute_plan` replays a
/// plan without redoing any of that work -- the execution-graph path
/// prepares each captured launch once at instantiate time and re-executes
/// per replay, rebinding arguments with `Device::rebind`.
struct LaunchPlan {
  Kernel kernel{};
  unsigned threads = 0;
  KernelArgs args{};
  bool has_params = false;  ///< binds arguments (param window is written)
  bool patches = false;     ///< kernel has `$param` sites to patch
  std::uint64_t sig = 0;    ///< resident-binding signature (entry ^ args)
  LaunchFootprint footprint{};
  /// Device::allocation_generation() when the plan was prepared: a
  /// mem_reset() since then invalidates any bound buffer bases, and
  /// execute_plan refuses to run such a plan (rebind with fresh handles).
  std::uint64_t alloc_gen = 0;
};

class Device {
 public:
  explicit Device(DeviceDescriptor desc);
  ~Device();

  // Buffers and streams hold back-pointers to their device.
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceDescriptor& descriptor() const { return desc_; }
  /// The device's fault injector, or nullptr (the default). Injection
  /// hooks across the runtime gate on this pointer, so a device without a
  /// fault plan pays one untaken branch per hook.
  faults::FaultInjector* fault_injector() const { return desc_.faults.get(); }
  std::string_view backend_name() const { return backend_->name(); }
  unsigned mem_words() const { return backend_->mem_words(); }
  unsigned max_concurrent_threads() const {
    return backend_->max_concurrent_threads();
  }
  /// The realized clock all wall-clock roll-ups use: the descriptor's
  /// override when set, else the backend default.
  double fmax_mhz() const;

  // ---- modules -----------------------------------------------------------
  /// Assemble `source` into a module, or return the cached module if this
  /// exact source was loaded before (FNV-1a hash key).
  Module& load_module(std::string_view source);
  std::size_t module_cache_size() const {
    std::lock_guard<std::mutex> lock(module_mutex_);
    return modules_.size();
  }
  /// load_module() calls served from the cache / by actually assembling.
  /// With the kernel ABI, launching one kernel with many argument sets
  /// hits the cache every time after the first assembly.
  std::uint64_t module_cache_hits() const {
    std::lock_guard<std::mutex> lock(module_mutex_);
    return cache_hits_;
  }
  std::uint64_t module_cache_misses() const {
    std::lock_guard<std::mutex> lock(module_mutex_);
    return cache_misses_;
  }

  /// Decode-cache counters. A miss is a full decode+validate of a module's
  /// program into a DecodedImage (once per module per device); a hit is an
  /// I-MEM load served from the cached image -- rounds, argument-rebinding
  /// launches (the loader patches immediates into a copy of the cached
  /// image; no re-decode), and graph replays all hit.
  std::uint64_t decode_cache_hits() const {
    std::lock_guard<std::mutex> lock(exec_mutex_);
    return decode_hits_;
  }
  std::uint64_t decode_cache_misses() const {
    std::lock_guard<std::mutex> lock(exec_mutex_);
    return decode_misses_;
  }

  /// The lane-evaluation engine this device simulates with: the functional
  /// fast path (default) or the bit-accurate structural datapaths
  /// (CoreConfig::bit_accurate; the scalar baseline is always functional).
  bool bit_accurate() const {
    return desc_.backend != BackendKind::Scalar && desc_.core.bit_accurate;
  }
  std::string_view engine_name() const {
    return bit_accurate() ? "bit-accurate" : "fast";
  }

  // ---- memory ------------------------------------------------------------
  /// Allocate a typed buffer of `count` 32-bit elements, optionally
  /// word-aligned (defined in runtime/buffer.hpp).
  template <typename T>
  Buffer<T> alloc(std::size_t count, unsigned align = 1);
  /// Reclaim the whole allocation arena. Outstanding Buffer handles are
  /// invalidated -- they carry the allocation generation they were created
  /// in, and using one from before the reset throws instead of silently
  /// aliasing whatever the arena hands out next.
  void mem_reset() {
    pool_.reset();
    ++alloc_gen_;
  }
  /// Bumped by every mem_reset(); Buffer handles stamp it at allocation.
  std::uint64_t allocation_generation() const { return alloc_gen_; }
  MemoryPool& mem() { return pool_; }

  /// Raw word-level staging, bounds-checked against device memory and
  /// serialized against in-flight scheduler commands. Direct access
  /// observes whatever has executed so far: synchronize the streams first
  /// for a defined ordering.
  void read_words(std::uint32_t base, std::span<std::uint32_t> out) const;
  void write_words(std::uint32_t base, std::span<const std::uint32_t> data);

  // ---- execution ---------------------------------------------------------
  /// Immediate (synchronous) launch: loads the kernel's module into the
  /// device I-MEM if it is not already resident, runs the grid, and rolls
  /// wall-clock up at fmax_mhz(). Also the body of the scheduler's exec
  /// commands. A kernel declared with .param metadata must be launched
  /// through the argument-binding overload below.
  LaunchStats launch_sync(const Kernel& kernel, unsigned threads);

  /// Launch with bound arguments (the kernel ABI path). The loader patches
  /// the kernel's `$param` relocation sites with the bound values -- a
  /// handful of immediate words, not a re-assembly -- records the binding
  /// in the device's parameter window, and derives the launch footprint
  /// from the declared `.reads`/`.writes` so multicore staging ships only
  /// the declared input ranges. Throws simt::Error on an argument set that
  /// does not match the kernel's parameter list.
  LaunchStats launch_sync(const Kernel& kernel, unsigned threads,
                          const KernelArgs& args);

  // ---- pre-resolved launch plans (the execution-graph path) ---------------
  /// Validate and resolve a launch once: argument checks, the relocation
  /// patch plan signature, the parameter-window collision check, and the
  /// absolute staging footprint. Throws simt::Error on anything
  /// launch_sync would reject.
  LaunchPlan prepare_launch(const Kernel& kernel, unsigned threads,
                            const KernelArgs& args) const;
  /// Re-derive only the argument-dependent pieces of a plan for a new
  /// binding (signature + footprint); the kernel, thread count, and patch
  /// sites stay frozen. Throws on an argument set the kernel rejects.
  void rebind(LaunchPlan& plan, KernelArgs args) const;
  /// Execute a prepared plan: patch + reload the I-MEM only if the
  /// resident binding differs, record the parameter window, run the grid,
  /// and roll wall-clock up -- the body launch_sync runs after preparing.
  LaunchStats execute_plan(const LaunchPlan& plan);

  /// Reserved words at the top of device memory where each param launch's
  /// bound values land (word i = argument i), observable by the host and
  /// by device code. Buffers must stay below param_window_base() when a
  /// kernel with parameters is launched.
  static constexpr unsigned kParamWindowWords = 32;
  std::uint32_t param_window_base() const {
    return mem_words() - kParamWindowWords;
  }

  /// The asynchronous command scheduler every stream feeds.
  Scheduler& scheduler() { return *scheduler_; }

  /// The device's default command stream (created lazily).
  Stream& stream();
  /// Create an additional independent stream (device-owned; lives until
  /// the device is destroyed). Streams are in-order individually and
  /// unordered against each other except through Stream::wait(Event).
  Stream& create_stream();
  std::size_t stream_count() const { return streams_.size(); }

  // ---- escape hatches ----------------------------------------------------
  DeviceBackend& backend() { return *backend_; }
  template <typename B>
  B* backend_as() {
    return dynamic_cast<B*>(backend_.get());
  }

 private:
  /// Cached predecoded image for a module's pristine program (decode and
  /// validate once per module). Caller must hold exec_mutex_.
  std::shared_ptr<const core::DecodedImage> image_for(const Module* module);

  DeviceDescriptor desc_;
  std::unique_ptr<DeviceBackend> backend_;
  MemoryPool pool_;
  /// Allocation generation: bumped by mem_reset() so stale Buffer handles
  /// are detected instead of aliasing re-used arena words.
  std::uint64_t alloc_gen_ = 0;
  /// Guards the module cache (load_module may race from host worker
  /// threads feeding streams concurrently).
  mutable std::mutex module_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Module>> modules_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  /// Per-module predecoded images (decode + validate once per module;
  /// guarded by exec_mutex_ -- only the launch path touches it).
  std::unordered_map<const Module*,
                     std::shared_ptr<const core::DecodedImage>>
      images_;
  std::uint64_t decode_hits_ = 0;
  std::uint64_t decode_misses_ = 0;
  const Module* resident_ = nullptr;  ///< module currently in the I-MEM
  /// Binding signature of the resident image (entry + argument values):
  /// relaunching the same kernel with the same arguments skips both the
  /// loader patch and the I-MEM reload.
  std::uint64_t resident_sig_ = 0;
  /// Serializes backend access between the thread draining the scheduler
  /// (whichever host thread joins) and direct host calls from other
  /// threads (read/write_words, launch_sync).
  mutable std::mutex exec_mutex_;
  // Declared after the backend so destruction runs the scheduler's
  // leftover commands before the engine they drive disappears.
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<Stream>> streams_;  ///< [0] = default stream
};

}  // namespace simt::runtime
