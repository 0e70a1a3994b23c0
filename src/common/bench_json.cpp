#include "common/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace simt {

namespace {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

BenchReport& BenchReport::metric(std::string_view key, double value) {
  // JSON has no NaN/Inf literals; clamp to null so the file stays parseable.
  if (!std::isfinite(value)) {
    metrics_.emplace_back(std::string(key), "null");
    return *this;
  }
  std::ostringstream out;
  out.precision(12);
  out << value;
  metrics_.emplace_back(std::string(key), out.str());
  return *this;
}

BenchReport& BenchReport::metric(std::string_view key, std::uint64_t value) {
  metrics_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

BenchReport& BenchReport::metric(std::string_view key, long long value) {
  metrics_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

BenchReport& BenchReport::note(std::string_view key, std::string_view value) {
  std::string quoted;
  quoted += '"';
  quoted += escape(value);
  quoted += '"';
  notes_.emplace_back(std::string(key), std::move(quoted));
  return *this;
}

std::string BenchReport::to_json() const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << escape(name_) << "\",\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << escape(metrics_[i].first)
        << "\": " << metrics_[i].second;
  }
  out << (metrics_.empty() ? "}" : "\n  }");
  out << ",\n  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << escape(notes_[i].first)
        << "\": " << notes_[i].second;
  }
  out << (notes_.empty() ? "}" : "\n  }");
  out << "\n}\n";
  return out.str();
}

bool BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << to_json();
  out.flush();  // surface write errors here, not in the destructor
  if (!out) {
    std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace simt
