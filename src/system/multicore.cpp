#include "system/multicore.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <set>

#include "common/error.hpp"

namespace simt::system {

MultiCoreSystem::MultiCoreSystem(SystemConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.num_cores) {
  if (cfg_.num_cores == 0) {
    throw Error("system needs at least one core");
  }
  cfg_.core.validate();
  cores_.reserve(cfg_.num_cores);
  for (unsigned i = 0; i < cfg_.num_cores; ++i) {
    cores_.emplace_back(cfg_.core);
    cores_.back().set_smid(i);
  }
}

void MultiCoreSystem::load_kernel_all(std::string_view source) {
  load_program_all(assembler::assemble(source));
}

void MultiCoreSystem::load_program_all(const core::Program& program) {
  // Decode + validate exactly once; every core loads the shared image
  // (the seed model re-ran the decode once per core per load).
  load_image_all(core::DecodedImage::build(program, cfg_.core));
}

void MultiCoreSystem::load_image_all(
    std::shared_ptr<const core::DecodedImage> image) {
  for (auto& c : cores_) {
    c.load_image(image);
  }
}

void MultiCoreSystem::load_kernel(unsigned core, std::string_view source) {
  cores_.at(core).load_program(assembler::assemble(source));
}

SystemRunResult MultiCoreSystem::run(const std::vector<Dispatch>& dispatches) {
  std::set<unsigned> seen;
  for (const auto& d : dispatches) {
    if (d.core >= cores_.size()) {
      throw Error("dispatch to nonexistent core " + std::to_string(d.core));
    }
    if (!seen.insert(d.core).second) {
      throw Error("core " + std::to_string(d.core) +
                  " dispatched more than once");
    }
  }

  // The cores are independent hardware; simulate each dispatch as one job
  // on whichever thread claims it first. A faulting core (e.g. an
  // out-of-bounds store) must not tear down the process from a worker
  // thread, so exceptions are captured and the first one rethrown on the
  // caller after every claimed job has settled.
  SystemRunResult res;
  res.per_core.resize(dispatches.size());
  res.host_us.resize(dispatches.size(), 0.0);
  std::vector<std::exception_ptr> errors(dispatches.size());
  const auto run_one = [this, &dispatches, &res, &errors](std::size_t i) {
    const auto& d = dispatches[i];
    try {
      const auto t0 = std::chrono::steady_clock::now();
      auto& gpu = cores_[d.core];
      gpu.set_thread_count(d.threads);
      res.per_core[i] = gpu.run(d.entry);
      res.host_us[i] = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  // Every dispatch but the last is offered to its core's worker; the
  // caller then sweeps from the last one down. A one-word claim decides
  // who runs each job, so a round whose jobs are shorter than a thread
  // wake-up costs the caller its own work, not a handoff per core. Jobs
  // touch this frame only after winning their claim, and the caller waits
  // for exactly the jobs workers won; a worker that wakes late finds its
  // claim taken and touches nothing but the shared round state.
  struct Round {
    explicit Round(std::size_t n) : claimed(n) {}
    std::vector<std::atomic<bool>> claimed;
    std::mutex mutex;
    std::condition_variable settled_cv;
    std::size_t settled = 0;  ///< worker-claimed jobs that have finished
  };
  const auto round = std::make_shared<Round>(dispatches.size());
  std::exception_ptr post_error;
  try {
    for (std::size_t i = 0; i + 1 < dispatches.size(); ++i) {
      pool_.post(dispatches[i].core, [round, &run_one, i] {
        if (round->claimed[i].exchange(true)) {
          return;  // the caller took it
        }
        run_one(i);
        {
          std::lock_guard<std::mutex> lock(round->mutex);
          ++round->settled;
        }
        round->settled_cv.notify_one();
      });
    }
  } catch (...) {
    // Claim (without running) every job no worker has started, then
    // settle the ones that did before leaving this frame.
    post_error = std::current_exception();
  }
  std::size_t worker_claimed = 0;
  for (std::size_t i = dispatches.size(); i-- > 0;) {
    if (round->claimed[i].exchange(true)) {
      ++worker_claimed;
    } else if (!post_error) {
      run_one(i);
    }
  }
  {
    std::unique_lock<std::mutex> lock(round->mutex);
    round->settled_cv.wait(
        lock, [&] { return round->settled == worker_claimed; });
  }
  if (post_error) {
    std::rethrow_exception(post_error);
  }
  for (const auto& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }

  for (const auto& r : res.per_core) {
    res.max_cycles = std::max(res.max_cycles, r.perf.cycles);
  }
  // Wall clock at the realized frequency of this system size (Table 2).
  SystemConfig effective = cfg_;
  effective.num_cores = static_cast<unsigned>(dispatches.size());
  res.wall_us =
      static_cast<double>(res.max_cycles) / effective.clock_mhz();
  return res;
}

std::vector<std::pair<unsigned, unsigned>> MultiCoreSystem::split_range(
    unsigned total, unsigned parts) {
  SIMT_CHECK(parts > 0);
  std::vector<std::pair<unsigned, unsigned>> out;
  const unsigned chunk = total / parts;
  unsigned begin = 0;
  for (unsigned p = 0; p < parts; ++p) {
    const unsigned end = p + 1 == parts ? total : begin + chunk;
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

}  // namespace simt::system
