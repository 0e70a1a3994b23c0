// stream_staging: the eager, write-heavy use of the runtime. A 4-core
// multicore device (256 threads per core, 16K words) fed by two eager
// streams, double-buffered: each item copies ~4,000 words in, scales them
// over one thread per word, and copies them out.
//
// Why: the kernel is two instructions per thread, so per item the host
// time goes to Stream/Scheduler submission, MultiCoreBackend staging and
// merge, and the stage workers -- the runtime path serve_open reaches
// through graphs, here without them.
#pragma once

#include <cstdio>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "metrics.hpp"
#include "programs.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"
#include "trace.hpp"

namespace e2e {

struct StreamStaging {
  static constexpr const char* kName = "stream_staging";
  static constexpr unsigned kCores = 4;
  static constexpr unsigned kMaxWords = 4000;
  static constexpr unsigned kMinWords = 3584;
  /// Distinct seeded items; the timed loop stops at the end of a pass.
  static constexpr unsigned kPool = 256;

  struct Entry {
    std::vector<std::uint32_t> in, want;
    std::uint32_t mul = 0, add = 0;
  };
  struct Inputs {
    std::vector<Entry> pool;
    explicit Inputs(std::uint64_t seed) {
      simt::Xoshiro256 rng(seed ^ 0x57a91e);
      pool.resize(kPool);
      for (auto& e : pool) {
        e.in.resize(static_cast<std::size_t>(rng.next_in(kMinWords, kMaxWords)));
        for (auto& v : e.in) {
          v = rng.next_u32();
        }
        e.mul = static_cast<std::uint32_t>(rng.next_in(2, 9));
        e.add = static_cast<std::uint32_t>(rng.next_in(0, 99));
        e.want = scale_golden(e.in, e.mul, e.add);
      }
    }
  };

  /// The system under test: device open, two streams, both buffer pairs,
  /// the scale module, and one warm-up item per stream.
  struct State {
    simt::runtime::Device dev{simt::runtime::DeviceDescriptor::multi_core(
        kCores, [] {
          simt::core::CoreConfig cfg;
          cfg.max_threads = 256;
          cfg.shared_mem_words = 16384;
          return cfg;
        }())};
    simt::runtime::Stream* streams[2] = {&dev.stream(), &dev.create_stream()};
    simt::runtime::Buffer<std::uint32_t> in[2], out[2];
    std::vector<std::uint32_t> host_out[2];
    simt::runtime::Kernel scale;

    explicit State(const Inputs& inputs) {
      for (int s = 0; s < 2; ++s) {
        in[s] = dev.alloc<std::uint32_t>(kMaxWords);
        out[s] = dev.alloc<std::uint32_t>(kMaxWords);
        host_out[s].resize(kMaxWords);
      }
      scale = dev.load_module(simt::kernels::scale_abi()).kernel("scale");
      for (int s = 0; s < 2; ++s) {
        submit(s, inputs.pool[static_cast<std::size_t>(s)], nullptr, 0);
      }
      for (auto* st : streams) {
        st->synchronize();
      }
    }

    /// Enqueue one item on stream `s`; returns the launch event.
    simt::runtime::Event submit(int s, const Entry& e, Tracer* tr,
                                std::uint64_t item,
                                Series* submit_us = nullptr) {
      auto& st = *streams[s];
      const auto n = static_cast<unsigned>(e.in.size());
      const auto t0 = Clock::now();
      {
        Scope sc(tr, "stream.copy_in", item);
        st.copy_in(in[s], std::span<const std::uint32_t>(e.in));
      }
      const auto t1 = Clock::now();
      simt::runtime::Event ev;
      {
        Scope sc(tr, "stream.launch", item);
        ev = st.launch(scale, n,
                       simt::runtime::KernelArgs()
                           .arg(in[s])
                           .arg(out[s])
                           .scalar(e.mul)
                           .scalar(e.add));
      }
      const auto t2 = Clock::now();
      {
        Scope sc(tr, "stream.copy_out", item);
        st.copy_out(out[s], std::span<std::uint32_t>(host_out[s].data(), n));
      }
      if (submit_us != nullptr) {
        submit_us->add(us_between(t0, t1));
        submit_us->add(us_between(t1, t2));
        submit_us->add(us_between(t2, Clock::now()));
      }
      return ev;
    }

    Outcome run(const Inputs& inputs, double seconds, Tracer* tr) {
      struct Slot {
        bool busy = false;
        std::size_t entry = 0;
        std::uint64_t item = 0;
        Clock::time_point submitted{};
        simt::runtime::Event ev;
      };
      Slot slots[2];
      Outcome out;
      Series submit_us, sync_us, exec_us, stage_us, merge_us;
      double staged = 0, merged = 0, skipped = 0, occupancy = 0;
      std::uint64_t launches = 0;
      const auto timeline0 = dev.scheduler().timeline();
      simt::runtime::TimelineStats pass{};  // first pass, modeled
      const auto t0 = Clock::now();

      // Join stream s and check the item it carried.
      const auto retire = [&](int s) {
        Slot& slot = slots[s];
        bool ok = true;
        const auto tw = Clock::now();
        try {
          Scope sc(tr, "stream.synchronize", slot.item);
          streams[s]->synchronize();
          const auto& want = inputs.pool[slot.entry].want;
          ok = std::equal(want.begin(), want.end(), host_out[s].begin());
          const auto& st = slot.ev.stats();
          exec_us.add(slot.ev.elapsed_us());
          stage_us.add(st.host_stage_us);
          merge_us.add(st.host_merge_us);
          staged += static_cast<double>(st.staged_words);
          merged += static_cast<double>(st.merged_words);
          skipped += static_cast<double>(st.staged_words_skipped);
          occupancy += st.occupancy();
          ++launches;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "stream_staging: item %llu: %s\n",
                       static_cast<unsigned long long>(slot.item), e.what());
          ok = false;
        }
        const auto done = Clock::now();
        sync_us.add(us_between(tw, done));
        out.throughput.add(us_between(slot.submitted, done));
        out.failed += ok ? 0 : 1;
        slot.busy = false;
      };

      std::uint64_t item = 0;
      for (;; ++item) {
        const std::size_t k = item % kPool;
        if (k == 0 && item > 0) {
          // Pass boundary: drain both streams so each pass is priced on
          // the modeled timeline from the same idle state.
          for (int s = 0; s < 2; ++s) {
            if (slots[s].busy) {
              retire(s);
            }
          }
          if (item == kPool) {
            const auto tl = dev.scheduler().timeline();
            pass.serial_us = tl.serial_us - timeline0.serial_us;
            pass.overlap_us = tl.overlap_us - timeline0.overlap_us;
            pass.dispatch_us = tl.dispatch_us - timeline0.dispatch_us;
            pass.copied_words = tl.copied_words - timeline0.copied_words;
            pass.commands = tl.commands - timeline0.commands;
          }
          if (seconds_since(t0) >= seconds) {
            break;
          }
        }
        const int s = static_cast<int>(item % 2);
        if (slots[s].busy) {
          retire(s);
        }
        Slot& slot = slots[s];
        slot.busy = true;
        slot.entry = k;
        slot.item = item;
        slot.submitted = Clock::now();
        try {
          Scope sc(tr, "bench.item", item);
          slot.ev = submit(s, inputs.pool[k], tr, item, &submit_us);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "stream_staging: submit %llu: %s\n",
                       static_cast<unsigned long long>(item), e.what());
          ++out.failed;
          slot.busy = false;
        }
      }
      out.seconds = seconds_since(t0);
      out.attempted = item;
      out.latency = out.throughput;

      const double per = 1.0 / kPool;
      out.modeled_us_per_item = pass.overlap_us * per;
      out.detail("stream.submit_us", submit_us.percentile(0.5));
      out.detail("stream.sync_wait_us", sync_us.percentile(0.5));
      out.detail("stream.cmd_exec_us", exec_us.percentile(0.5));
      out.detail("sched.overlap_us", pass.overlap_us * per);
      out.detail("sched.serial_us", pass.serial_us * per);
      out.detail("sched.dispatch_model_us", pass.dispatch_us * per);
      out.detail("sched.copied_words", static_cast<double>(pass.copied_words) *
                                           per);
      out.detail("sched.commands", static_cast<double>(pass.commands) * per);
      const double n = launches ? static_cast<double>(launches) : 1.0;
      out.detail("staging.stage_us", stage_us.percentile(0.5));
      out.detail("staging.merge_us", merge_us.percentile(0.5));
      out.detail("staging.staged_words", staged / n);
      out.detail("staging.merged_words", merged / n);
      out.detail("staging.skipped_words", skipped / n);
      out.detail("staging.skip_frac",
                 staged + skipped > 0 ? skipped / (staged + skipped) : 0.0);
      out.detail("core.occupancy", occupancy / n);
      return out;
    }
  };
};

}  // namespace e2e
