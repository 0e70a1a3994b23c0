// Machine-readable bench output: every asserting bench emits a
// BENCH_<name>.json next to where it ran (CI runs the benches from build/
// and uploads the files as artifacts), so the repo accumulates a perf
// trajectory instead of throwing the numbers away with the process.
//
// The format is one flat JSON object: {"bench": "<name>", "metrics":
// {key: number, ...}, "notes": {key: "string", ...}}. Keys preserve
// insertion order so diffs between runs stay readable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simt {

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  BenchReport& metric(std::string_view key, double value);
  BenchReport& metric(std::string_view key, std::uint64_t value);
  BenchReport& metric(std::string_view key, long long value);
  BenchReport& metric(std::string_view key, unsigned value) {
    return metric(key, static_cast<std::uint64_t>(value));
  }
  BenchReport& note(std::string_view key, std::string_view value);

  /// The serialized JSON document.
  std::string to_json() const;

  /// Write BENCH_<name>.json into `dir` and say so on stdout. Returns
  /// false (after a stderr diagnostic) when the file cannot be written --
  /// benches treat that as a failure so CI cannot silently lose the
  /// artifact.
  bool write(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> metrics_;  ///< key, literal
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace simt
