// In-memory span recorder for the traced run. The benchmark records spans
// on its own (generator) thread around its calls into each layer; spans
// never come from inside src/. A null Tracer* records nothing, so the
// untraced run pays one branch per span site.
//
// Each span has a name ("<layer>.<operation>"), start and end on the
// steady clock, the span that caused it, and a request id. A layer's self
// time is its span minus the part of that interval its child spans cover.
// At exit the spans are written as Chrome trace-event JSON, which opens in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start{};
    Clock::time_point end{};
    std::int32_t parent = -1;
    std::uint64_t req = 0;
    /// Request-scoped spans whose lifetimes overlap other requests' (open
    /// loop) are exported as async slices keyed by request id.
    bool async = false;
  };

  /// Per span name: summed self and total time, and how many spans.
  struct Total {
    double self_us = 0.0;
    double total_us = 0.0;
    std::uint64_t count = 0;
  };

  /// Open a span as a child of the innermost open span; returns its id.
  std::int32_t open(const char* name, std::uint64_t req) {
    Span s;
    s.name = name;
    s.start = Clock::now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.req = req;
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    if (!stack_.empty() && stack_.back() == id) {
      stack_.pop_back();
    }
  }

  /// Record a finished span timed elsewhere (a ticket's service interval).
  std::int32_t add(const char* name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t req,
                   std::int32_t parent, bool async) {
    spans_.push_back(Span{name, start, end, parent, req, async});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::size_t size() const { return spans_.size(); }

  /// Self and total time per span name.
  std::map<std::string, Total> aggregate() const {
    std::vector<std::vector<std::int32_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(
            static_cast<std::int32_t>(i));
      }
    }
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double total = us_between(s.start, s.end);
      // Union of the children's intervals, clipped to the parent (children
      // of an open-loop request overlap each other).
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const auto c : children[i]) {
        const Span& k = spans_[static_cast<std::size_t>(c)];
        iv.emplace_back(std::max(k.start, s.start), std::min(k.end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : iv) {
        const auto from = std::max(a, reach);
        if (b > from) {
          covered += us_between(from, b);
          reach = b;
        }
      }
      Total& t = out[s.name];
      t.self_us += total - covered;
      t.total_us += total;
      ++t.count;
    }
    return out;
  }

  /// Write the first `max_spans` spans as Chrome trace-event JSON (times
  /// in microseconds from the first span). Returns false on I/O failure.
  bool write_chrome(const std::string& path, std::size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const std::size_t n = std::min(max_spans, spans_.size());
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
                    "{\"spans\": %zu, \"exported\": %zu},\n"
                    "\"traceEvents\": [\n",
                 spans_.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      const double ts = us_between(origin, s.start);
      const double dur = us_between(s.start, s.end);
      std::string layer(s.name);
      layer = layer.substr(0, layer.find('.'));
      const char* sep = i + 1 < n ? "," : "";
      if (s.async) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"b\", "
                     "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": 2},\n"
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"e\", "
                     "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": 2}%s\n",
                     s.name, layer.c_str(),
                     static_cast<unsigned long long>(s.req), ts, s.name,
                     layer.c_str(), static_cast<unsigned long long>(s.req),
                     ts + dur, sep);
      } else {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                     "\"args\": {\"req\": %llu, \"parent\": %d}}%s\n",
                     s.name, layer.c_str(), ts, dur,
                     static_cast<unsigned long long>(s.req), s.parent, sep);
      }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  ///< open spans, innermost last
};

/// RAII span on a possibly-null tracer.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t req = 0)
      : t_(t), id_(t ? t->open(name, req) : -1) {}
  ~Scope() {
    if (t_ != nullptr) {
      t_->close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

}  // namespace e2e
