// Statistics helpers and the benchmark-side span tracer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id, std::string args) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.args = std::move(args);
  stack_.pop_back();  // spans are scoped, so they close innermost first
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete events ("X"); ts/dur in microseconds as the format asks.
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf << "\"name\":\"" << s.name << "\",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent;
    if (!s.args.empty()) out << "," << s.args;
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
