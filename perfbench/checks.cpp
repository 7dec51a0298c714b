// Correctness checks written apart from the library: nothing here calls
// a counting engine, the reverse-slot index or a library triangle count.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <numeric>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Output iterator that only counts what std::set_intersection writes.
struct CountingIterator {
  using iterator_category = std::output_iterator_tag;
  using value_type = void;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = void;
  std::uint64_t* n;
  CountingIterator& operator*() { return *this; }
  CountingIterator& operator=(VertexId) {
    ++*n;
    return *this;
  }
  CountingIterator& operator++() { return *this; }
  CountingIterator operator++(int) { return *this; }
};

std::uint64_t set_count(std::span<const VertexId> a,
                        std::span<const VertexId> b) {
  std::uint64_t n = 0;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        CountingIterator{&n});
  return n;
}

std::string fmt(const char* what, std::uint64_t a, std::uint64_t b,
                std::uint64_t c, std::uint64_t d) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s (%llu %llu: got %llu, want %llu)", what,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(c),
                static_cast<unsigned long long>(d));
  return buf;
}

/// Triangles by the forward algorithm: orient every edge from lower to
/// higher (degree, id) rank and count, for each oriented edge (u, v),
/// the out-neighbors of v marked as out-neighbors of u.
std::uint64_t forward_triangles(const aecnc::graph::Csr& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) < g.degree(b) : a < b;
  });
  std::vector<VertexId> rank(n);
  for (VertexId i = 0; i < n; ++i) rank[order[i]] = i;
  std::vector<EdgeId> off(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    EdgeId k = 0;
    for (const VertexId v : g.neighbors(u)) k += rank[v] > rank[u] ? 1 : 0;
    off[u + 1] = off[u] + k;
  }
  std::vector<VertexId> out(off[n]);
  for (VertexId u = 0; u < n; ++u) {
    EdgeId k = off[u];
    for (const VertexId v : g.neighbors(u)) {
      if (rank[v] > rank[u]) out[k++] = v;
    }
  }
  std::uint64_t total = 0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<VertexId> mark(n, 0);  // mark[w] == u + 1: w ∈ out(u)
#pragma omp for schedule(dynamic, 256)
    for (VertexId u = 0; u < n; ++u) {
      for (EdgeId k = off[u]; k < off[u + 1]; ++k) mark[out[k]] = u + 1;
      for (EdgeId k = off[u]; k < off[u + 1]; ++k) {
        const VertexId v = out[k];
        for (EdgeId j = off[v]; j < off[v + 1]; ++j) {
          total += mark[out[j]] == u + 1 ? 1 : 0;
        }
      }
    }
  }
  return total;
}

}  // namespace

Adjacency adjacency_of(const aecnc::graph::Csr& g) {
  Adjacency adj(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    adj[u].assign(nb.begin(), nb.end());
  }
  return adj;
}

CnCount intersect_count(const std::vector<VertexId>& a,
                        const std::vector<VertexId>& b) {
  return static_cast<CnCount>(set_count(a, b));
}

bool has_edge(const Adjacency& adj, VertexId u, VertexId v) {
  return u < adj.size() && std::binary_search(adj[u].begin(), adj[u].end(), v);
}

std::string check_counts(const aecnc::graph::Csr& g,
                         const std::vector<CnCount>& cnt, std::uint64_t seed,
                         std::size_t samples, int hubs,
                         std::size_t* slots_checked) {
  const VertexId n = g.num_vertices();
  const EdgeId m = g.num_directed_edges();
  if (cnt.size() != m) return fmt("count array size", 0, 0, cnt.size(), m);
  const auto& off = g.offsets();
  const auto& dst = g.dst();

  // 1. Symmetry: cnt[e(u,v)] == cnt[e(v,u)], mirror found by binary search.
  std::atomic<EdgeId> asym{m};
#pragma omp parallel for schedule(dynamic, 1024)
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeId e = off[u]; e < off[u + 1]; ++e) {
      const VertexId v = dst[e];
      const auto row = g.neighbors(v);
      const auto it = std::lower_bound(row.begin(), row.end(), u);
      const EdgeId mirror =
          it != row.end() && *it == u
              ? off[v] + static_cast<EdgeId>(it - row.begin())
              : m;
      if (mirror == m || cnt[mirror] != cnt[e]) {
        asym.store(e, std::memory_order_relaxed);
      }
    }
  }
  if (const EdgeId e = asym.load(); e != m) {
    return fmt("asymmetric or unmatched slot", e, dst[e], cnt[e], 0);
  }

  // 2. Σcnt / 6 equals the forward triangle count.
  std::uint64_t sum = 0;
  for (const CnCount c : cnt) sum += c;
  const std::uint64_t tri = forward_triangles(g);
  if (sum != 6 * tri) return fmt("sum(cnt) != 6 * triangles", 0, 0, sum, 6 * tri);

  // 3. Recount a seeded sample of slots plus every slot of the
  // highest-degree vertices with std::set_intersection.
  std::vector<EdgeId> slots;
  aecnc::util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < samples && m > 0; ++i) {
    slots.push_back(static_cast<EdgeId>(rng() % m));
  }
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  const auto top = std::min<std::size_t>(static_cast<std::size_t>(hubs), n);
  std::partial_sort(by_degree.begin(), by_degree.begin() + top, by_degree.end(),
                    [&](VertexId a, VertexId b) {
                      return g.degree(a) > g.degree(b);
                    });
  for (std::size_t i = 0; i < top; ++i) {
    for (EdgeId e = off[by_degree[i]]; e < off[by_degree[i] + 1]; ++e) {
      slots.push_back(e);
    }
  }
  std::atomic<std::size_t> bad{slots.size()};
  const auto total = static_cast<std::int64_t>(slots.size());
#pragma omp parallel for schedule(dynamic, 64)
  for (std::int64_t i = 0; i < total; ++i) {
    const EdgeId e = slots[static_cast<std::size_t>(i)];
    const auto src = static_cast<VertexId>(
        std::upper_bound(off.begin(), off.end(), e) - off.begin() - 1);
    if (set_count(g.neighbors(src), g.neighbors(dst[e])) != cnt[e]) {
      bad.store(static_cast<std::size_t>(i), std::memory_order_relaxed);
    }
  }
  if (slots_checked != nullptr) *slots_checked = slots.size();
  if (const std::size_t i = bad.load(); i != slots.size()) {
    const EdgeId e = slots[i];
    const auto src = static_cast<VertexId>(
        std::upper_bound(off.begin(), off.end(), e) - off.begin() - 1);
    return fmt("recount mismatch", src, dst[e], cnt[e],
               set_count(g.neighbors(src), g.neighbors(dst[e])));
  }
  return {};
}

std::string compare_counts(const std::vector<CnCount>& want,
                           const std::vector<CnCount>& got,
                           const char* engine) {
  if (want.size() != got.size()) {
    return fmt((std::string(engine) + " size differs").c_str(), 0, 0,
               got.size(), want.size());
  }
  for (std::size_t e = 0; e < want.size(); ++e) {
    if (want[e] != got[e]) {
      return fmt((std::string(engine) + " disagrees with MPS at slot").c_str(),
                 e, 0, got[e], want[e]);
    }
  }
  return {};
}

std::string compare_graph(const aecnc::graph::Csr& g, const Adjacency& shadow) {
  if (g.num_vertices() != shadow.size()) {
    return fmt("snapshot vertex count", 0, 0, g.num_vertices(), shadow.size());
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    if (!std::equal(nb.begin(), nb.end(), shadow[u].begin(), shadow[u].end())) {
      return fmt("snapshot adjacency differs from shadow at vertex", u, 0,
                 nb.size(), shadow[u].size());
    }
  }
  return {};
}

}  // namespace perfbench
