// Seeded synthetic replicas. The library's graph::make_dataset is
// deterministic in (dataset, scale) only; the benchmark needs a family of
// inputs per workload seed, so it rebuilds the same recipe shape (the
// Table 1 statistics of src/graph/datasets.cpp) through the public
// generators with a seed of its own.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "graph/generators.hpp"

namespace perfbench {

const Recipe& recipe(const std::string& dataset) {
  // vertices, edges: paper |V| and undirected |E|; Chung-Lu tail
  // exponent; share of edges carried by added hubs; hub degree as a
  // share of |V|.
  static const Recipe kTw{"TW", 41652230, 684500375, 2.15, 0.30, 0.150};
  static const Recipe kFr{"FR", 124836180, 1806067135, 2.75, 0.00, 0.0};
  static const Recipe kWi{"WI", 41291083, 583044292, 2.05, 0.38, 0.200};
  if (dataset == "TW") return kTw;
  if (dataset == "FR") return kFr;
  if (dataset == "WI") return kWi;
  throw std::invalid_argument("unknown dataset " + dataset);
}

aecnc::graph::Csr make_replica(const Recipe& r, double scale,
                               std::uint64_t seed) {
  using aecnc::Degree;
  const auto n =
      static_cast<VertexId>(std::max(256.0, std::round(r.vertices * scale)));
  const auto m = static_cast<std::uint64_t>(
      std::max(1024.0, std::round(r.edges * scale)));
  const auto body_edges = static_cast<std::uint64_t>(
      std::round(static_cast<double>(m) * (1.0 - r.hub_edge_share)));
  const std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 0x17a000ULL +
                          static_cast<std::uint64_t>(r.dataset[0]);
  aecnc::graph::EdgeList edges =
      r.exponent > 0.0
          ? aecnc::graph::chung_lu_power_law(n, body_edges, r.exponent, s)
          : aecnc::graph::erdos_renyi(n, body_edges, s);
  if (r.hub_edge_share > 0.0) {
    const auto hub_degree = static_cast<Degree>(
        std::max(64.0, std::round(r.hub_degree_share * n)));
    const auto num_hubs = static_cast<VertexId>(
        std::max<std::uint64_t>(1, (m - body_edges) / hub_degree));
    aecnc::graph::add_hubs(edges, num_hubs, hub_degree, s ^ 0x40b5ULL);
  }
  return aecnc::graph::Csr::from_edge_list(std::move(edges));
}

}  // namespace perfbench
