// Shared pieces of the perfbench driver: clock, statistics, span tracer,
// input generation and the independent correctness checks.
//
// Everything here lives in the benchmark, not in the library: the
// checks recount with std::set_intersection and the tracer records spans
// around public library calls from the benchmark's side.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "util/prng.hpp"

namespace perfbench {

using aecnc::CnCount;
using aecnc::EdgeId;
using aecnc::VertexId;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (by copy; the caller keeps its sample order).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

// --- tracing ---------------------------------------------------------------

/// Spans recorded from the benchmark's side around calls into the
/// library: name, start, end and the enclosing span. Kept in memory and
/// written once at the end as trace-event JSON (chrome://tracing,
/// Perfetto). When disabled a span costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  // -1: root
    std::string args;  // pre-rendered JSON object body, may be empty
  };

  bool enabled = false;

  int open(const char* name);
  void close(int id, std::string args = {});
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (seconds) of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; `end()` returns the elapsed time whether or not tracing
/// is on, so timed phases and spans share one pair of clock reads.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name)
      : t_(t), id_(t.enabled ? t.open(name) : -1), start_(now_ns()) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { end(); }
  /// Close now (idempotent) and return the elapsed seconds.
  double end(std::string args = {}) {
    if (!done_) {
      elapsed_ = static_cast<double>(now_ns() - start_) * 1e-9;
      if (id_ >= 0) t_.close(id_, std::move(args));
      done_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer& t_;
  int id_;
  std::int64_t start_;
  bool done_ = false;
  double elapsed_ = 0.0;
};

// --- inputs ------------------------------------------------------------------

/// One seeded synthetic replica: the library's dataset recipe shape
/// (Chung-Lu body plus celebrity hubs) with the benchmark's seed.
struct Recipe {
  const char* dataset;
  double vertices;
  double edges;
  double exponent;
  double hub_edge_share;
  double hub_degree_share;
};

[[nodiscard]] const Recipe& recipe(const std::string& dataset);
[[nodiscard]] aecnc::graph::Csr make_replica(const Recipe& r, double scale,
                                             std::uint64_t seed);

// --- independent checks ------------------------------------------------------

/// Adjacency owned by the benchmark (sorted rows), used as the oracle
/// for sampled recounts and as the serve workload's shadow graph.
using Adjacency = std::vector<std::vector<VertexId>>;

[[nodiscard]] Adjacency adjacency_of(const aecnc::graph::Csr& g);
[[nodiscard]] CnCount intersect_count(const std::vector<VertexId>& a,
                                      const std::vector<VertexId>& b);
[[nodiscard]] bool has_edge(const Adjacency& adj, VertexId u, VertexId v);

/// Checks one all-edge count array against the graph it was computed
/// on, with code of the benchmark's own: symmetry through a binary
/// search of the mirror slot, Σcnt/6 against a degree-ordered forward
/// triangle count with a mark array, and a seeded sample of slots plus
/// every slot of the `hubs` highest-degree vertices recounted with
/// std::set_intersection. Returns an empty string when all pass, else
/// the first failure.
[[nodiscard]] std::string check_counts(const aecnc::graph::Csr& g,
                                       const std::vector<CnCount>& cnt,
                                       std::uint64_t seed,
                                       std::size_t samples, int hubs,
                                       std::size_t* slots_checked);

/// First differing slot of two count arrays, or an empty string.
[[nodiscard]] std::string compare_counts(const std::vector<CnCount>& want,
                                         const std::vector<CnCount>& got,
                                         const char* engine);

/// The published snapshot graph equals the shadow adjacency.
[[nodiscard]] std::string compare_graph(const aecnc::graph::Csr& g,
                                        const Adjacency& shadow);

}  // namespace perfbench
