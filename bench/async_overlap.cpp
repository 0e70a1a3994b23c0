// Async execution engine: modeled throughput of serving a request queue.
//
// The production-traffic path the ROADMAP demands: many small host requests
// target the same kernel on a 4-core device. The PR-1 runtime executed
// every command back to back on the calling thread (copy-in, launch,
// copy-out, repeat), so the staging DMA and the compute array never
// overlapped. The asynchronous engine coalesces each batch of requests
// into one copy-in, one grid launch and one copy-out, and ping-pongs two
// streams over double-buffered staging areas, so batch N+1's copy-in runs
// on the DMA engine while batch N executes -- the scheduler's modeled
// timeline prices both shapes.
//
// Acceptance: the batched + double-buffered path must model >= 1.3x the
// serial PR-1 throughput and results must be bit-identical. The bench
// exits nonzero on any failure, so CI can run it as a smoke test (--quick
// shrinks the request count).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/table.hpp"
#include "runtime/buffer.hpp"
#include "runtime/device.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stream.hpp"

namespace {

using namespace simt;

constexpr unsigned kRequestWords = 256;  // elements per request
constexpr unsigned kBatch = 4;           // requests coalesced per launch
constexpr unsigned kIters = 16;          // per-thread compute depth

runtime::DeviceDescriptor device_desc() {
  core::CoreConfig cfg;
  cfg.max_threads = 64;
  cfg.shared_mem_words = 8192;
  return runtime::DeviceDescriptor::multi_core(4, cfg);  // 4-core engine
}

/// out[tid] = sum_{j<kIters} (in[tid] + j) -- tunable compute vs staging.
std::string request_kernel(std::uint32_t in_base, std::uint32_t out_base) {
  return "movsr %r0, %tid\n"
         "lds %r1, [%r0 + " + std::to_string(in_base) + "]\n"
         "movi %r2, 0\n"
         "loopi " + std::to_string(kIters) + ", sum_end\n"
         "add %r2, %r2, %r1\n"
         "addi %r1, %r1, 1\n"
         "sum_end:\n"
         "sts [%r0 + " + std::to_string(out_base) + "], %r2\n"
         "exit\n";
}

std::uint32_t golden(std::uint32_t x) {
  return kIters * x + kIters * (kIters - 1) / 2;
}

std::vector<std::uint32_t> request_input(unsigned r) {
  std::vector<std::uint32_t> in(kRequestWords);
  for (unsigned i = 0; i < kRequestWords; ++i) {
    in[i] = (r * 131 + i * 7) % 1009;
  }
  return in;
}

bool check(const std::uint32_t* got, unsigned r, const char* path) {
  const auto in = request_input(r);
  for (unsigned i = 0; i < kRequestWords; ++i) {
    if (got[i] != golden(in[i])) {
      std::printf("MISMATCH (%s) request %u elem %u: %u != %u\n", path, r, i,
                  got[i], golden(in[i]));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned requests = 64;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      requests = 24;
    }
  }

  std::puts("== Async overlap: request queue on a 4-core device ==\n");

  // ---- serial PR-1 path: one request at a time, back to back -------------
  double serial_us = 0.0;
  {
    runtime::Device dev(device_desc());
    auto in = dev.alloc<std::uint32_t>(kRequestWords);
    auto out = dev.alloc<std::uint32_t>(kRequestWords);
    auto& mod = dev.load_module(
        request_kernel(in.word_base(), out.word_base()));
    auto& stream = dev.stream();
    std::vector<std::uint32_t> result(kRequestWords);
    for (unsigned r = 0; r < requests; ++r) {
      const auto input = request_input(r);
      stream.copy_in(in, std::span<const std::uint32_t>(input));
      stream.launch(mod.kernel(), kRequestWords);
      stream.copy_out(out, std::span<std::uint32_t>(result));
      stream.synchronize();  // the PR-1 shape: nothing overlaps
      if (!check(result.data(), r, "serial")) {
        return 1;
      }
    }
    // serial_us prices every command back to back -- exactly what the
    // PR-1 synchronize() loop executed.
    serial_us = dev.scheduler().timeline().serial_us;
  }

  // ---- async path: batched requests, two ping-ponged streams ------------
  double async_us = 0.0;
  double async_serial_us = 0.0;
  runtime::LaunchStats sample_launch;
  {
    runtime::Device dev(device_desc());
    auto& sa = dev.stream();
    auto& sb = dev.create_stream();
    // Double-buffered staging: each stream owns a disjoint in/out area, so
    // stream B's copy-in overlaps stream A's launch on the modeled engines.
    auto in_a = dev.alloc<std::uint32_t>(kRequestWords * kBatch);
    auto out_a = dev.alloc<std::uint32_t>(kRequestWords * kBatch);
    auto in_b = dev.alloc<std::uint32_t>(kRequestWords * kBatch);
    auto out_b = dev.alloc<std::uint32_t>(kRequestWords * kBatch);
    auto& mod_a = dev.load_module(
        request_kernel(in_a.word_base(), out_a.word_base()));
    auto& mod_b = dev.load_module(
        request_kernel(in_b.word_base(), out_b.word_base()));

    // Each full batch is one coalesced launch: request j of the batch owns
    // tids [j*kRequestWords, (j+1)*kRequestWords). Batches alternate
    // streams, and each ends with a marker event a serving front end
    // polls to learn its copy-out has landed.
    std::vector<std::uint32_t> results(requests * kRequestWords);
    std::vector<std::uint32_t> batch;
    runtime::Event last_a;
    for (unsigned b = 0; b < requests / kBatch; ++b) {
      const bool on_a = b % 2 == 0;
      auto& stream = on_a ? sa : sb;
      batch.clear();
      for (unsigned r = b * kBatch; r < (b + 1) * kBatch; ++r) {
        const auto input = request_input(r);
        batch.insert(batch.end(), input.begin(), input.end());
      }
      stream.copy_in(on_a ? in_a : in_b,
                     std::span<const std::uint32_t>(batch));
      auto launched = stream.launch(on_a ? mod_a.kernel() : mod_b.kernel(),
                                    kBatch * kRequestWords);
      stream.copy_out(on_a ? out_a : out_b,
                      std::span<std::uint32_t>(results).subspan(
                          b * kBatch * kRequestWords, kBatch * kRequestWords));
      stream.record();
      if (on_a) {
        last_a = launched;
      }
    }
    sa.synchronize();
    sb.synchronize();

    for (unsigned r = 0; r < requests; ++r) {
      if (!check(results.data() + r * kRequestWords, r, "async")) {
        return 1;
      }
    }
    const auto t = dev.scheduler().timeline();
    async_us = t.overlap_us;
    async_serial_us = t.serial_us;
    if (last_a.done()) {
      sample_launch = last_a.stats();
    }
  }

  Table t({"Path", "modeled us", "req/ms", "speedup"});
  const auto row = [&](const char* name, double us) {
    t.add_row({name, std::to_string(us).substr(0, 8),
               fmt_int(static_cast<long long>(1000.0 * requests / us)),
               fmt_ratio(serial_us / us)});
  };
  row("serial PR-1 (1 req/launch)", serial_us);
  row("batched, no overlap", async_serial_us);
  row("batched + double-buffered", async_us);
  t.print();

  std::printf(
      "\nbatched launch sample: %u rounds, occupancy %.2f, in-launch "
      "stage+merge %llu+%llu words,\nserial %.1f us vs overlap %.1f us\n",
      sample_launch.rounds, sample_launch.occupancy(),
      static_cast<unsigned long long>(sample_launch.staged_words),
      static_cast<unsigned long long>(sample_launch.merged_words),
      sample_launch.serial_wall_us, sample_launch.overlap_wall_us);

  const double speedup = serial_us / async_us;
  std::printf("\nmodeled speedup vs the serial PR-1 path: %.2fx "
              "(threshold 1.30x)\n", speedup);

  // ---- frozen serving loop: the double-buffered shape captured as a DAG --
  //
  // The async path above re-dispatches every command per batch. Capturing
  // the two-stream request pair ONCE across both streams freezes it into a
  // two-lane DAG that replays as a single submit per pair -- and the
  // replay's modeled span keeps the double-buffered overlap (lane B's DMA
  // under lane A's compute), which a linearized capture of the same
  // commands loses.
  double dag_linear_us = 0.0, dag_overlap_us = 0.0;
  {
    // A narrower modeled host bridge (a quarter word per cycle) makes the
    // request pair copy-bound -- the serving regime where hiding lane B's
    // DMA under lane A's compute pays.
    auto dag_desc = device_desc();
    dag_desc.staging_words_per_cycle = 0.25;
    runtime::Device dev(dag_desc);
    auto& sa = dev.stream();
    auto& sb = dev.create_stream();
    auto in_a = dev.alloc<std::uint32_t>(kRequestWords);
    auto out_a = dev.alloc<std::uint32_t>(kRequestWords);
    auto in_b = dev.alloc<std::uint32_t>(kRequestWords);
    auto out_b = dev.alloc<std::uint32_t>(kRequestWords);
    auto& mod_a = dev.load_module(
        request_kernel(in_a.word_base(), out_a.word_base()));
    auto& mod_b = dev.load_module(
        request_kernel(in_b.word_base(), out_b.word_base()));
    std::vector<std::uint32_t> res_a(kRequestWords), res_b(kRequestWords);

    const auto record = [&](runtime::Stream& s,
                            runtime::Buffer<std::uint32_t>& in,
                            runtime::Buffer<std::uint32_t>& out,
                            const runtime::Kernel& kernel,
                            std::vector<std::uint32_t>& res) {
      const auto input = request_input(0);
      s.copy_in(in, std::span<const std::uint32_t>(input));
      s.launch(kernel, kRequestWords);
      s.copy_out(out, std::span<std::uint32_t>(res));
    };

    runtime::Graph linear;
    sa.begin_capture(linear);
    record(sa, in_a, out_a, mod_a.kernel(), res_a);
    record(sa, in_b, out_b, mod_b.kernel(), res_b);
    sa.end_capture();
    auto linear_exec = linear.instantiate();

    runtime::Graph dag;
    sa.begin_capture(dag);
    sb.begin_capture(dag);  // lane B: the second stream joins the capture
    record(sa, in_a, out_a, mod_a.kernel(), res_a);
    record(sb, in_b, out_b, mod_b.kernel(), res_b);
    sb.end_capture();
    sa.end_capture();
    auto dag_exec = dag.instantiate();

    const unsigned pairs = requests / 2;
    for (unsigned p = 0; p < pairs; ++p) {
      const auto ia = request_input(2 * p);
      const auto ib = request_input(2 * p + 1);
      auto lr = linear_exec.launch(
          sa, runtime::GraphUpdates().copy_in(0, ia).copy_in(1, ib));
      lr.wait();
      if (!check(res_a.data(), 2 * p, "frozen-linear") ||
          !check(res_b.data(), 2 * p + 1, "frozen-linear")) {
        return 1;
      }
      dag_linear_us += lr.replay_overlap_us();
      auto dr = dag_exec.launch(
          sa, runtime::GraphUpdates().copy_in(0, ia).copy_in(1, ib));
      dr.wait();
      if (!check(res_a.data(), 2 * p, "frozen-dag") ||
          !check(res_b.data(), 2 * p + 1, "frozen-dag")) {
        return 1;
      }
      dag_overlap_us += dr.replay_overlap_us();
    }
  }
  const double dag_gain = dag_linear_us / dag_overlap_us;
  std::printf("frozen two-lane DAG replay: linearized %.1f us, DAG %.1f us "
              "-> %.2fx (threshold 1.30x)\n",
              dag_linear_us, dag_overlap_us, dag_gain);

  if (!BenchReport("async_overlap")
           .metric("requests", requests)
           .metric("serial_us", serial_us)
           .metric("batched_serial_us", async_serial_us)
           .metric("batched_overlap_us", async_us)
           .metric("overlap_speedup", speedup)
           .metric("threshold", 1.3)
           .metric("dag_replay_linear_us", dag_linear_us)
           .metric("dag_replay_overlap_us", dag_overlap_us)
           .metric("dag_replay_gain", dag_gain)
           .write()) {
    return 1;
  }
  if (speedup < 1.3) {
    std::puts("FAIL: overlap speedup below threshold");
    return 1;
  }
  if (dag_gain < 1.3) {
    std::puts("FAIL: frozen DAG replay overlap gain below threshold");
    return 1;
  }
  std::puts("PASS");
  return 0;
}
