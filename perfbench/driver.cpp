// perfbench driver: generates a workload's seeded inputs, or runs one
// workload for a fixed time and prints its metrics. perfbench/run.py
// builds this binary and calls it; by hand:
//
//   perfbench_driver gen --workload=count-skewed --seed=1 --dir=D
//                        --fixed-dir=F
//   perfbench_driver run --workload=count-skewed --seed=1 --seconds=30
//                        --trace=0 --dir=D [--cli=PATH --fixed-dir=F]
//                        [--trace-out=FILE]
//
// --cli and --fixed-dir are needed by count-skewed only (the
// multi-process attempt), --trace-out by --trace=1 only. Counts run on
// min(4, nproc) threads with the widest VB kernel the host supports, as
// the CLI's count and serve commands do.
//
// A run is: set-up repeated a few times (the median is setup_s), one
// untimed warm-up round on every thread, then whole rounds until the
// time is up. A round interleaves the three all-edge count paths, the
// multi-process count where the workload attempts it, and a serve
// segment (point queries, query_batch calls, one mutation batch and its
// publish). Every end-to-end metric is the median over its samples in
// the run. Outputs are checked by perfbench/checks.cpp, never by the
// engines themselves.
//
// The last stdout line is the result object; earlier lines starting with
// "info " carry the run's make-up for the README and provenance.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <omp.h>

#include "bench.hpp"
#include "core/api.hpp"
#include "graph/datasets.hpp"
#include "graph/id_map.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"
#include "intersect/dispatch.hpp"
#include "net/process.hpp"
#include "serve/service.hpp"
#include "shard/engine.hpp"

namespace perfbench {
namespace {

using aecnc::core::Algorithm;
using aecnc::core::CountArray;
using aecnc::core::Options;
using aecnc::graph::Csr;

// --- workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  const char* dataset;   // replica recipe (inputs.cpp)
  double scale;          // fraction of the paper's edge count
  bool text_input;       // set-up parses the SNAP text file (else binary CSR)
  bool serve_setup;      // set-up = load + first publish + pipeline seed
  bool multiprocess;     // attempt net::count_multiprocess every round
  int count_every;       // the count paths run on rounds r % count_every == 0
  int count_reps;        // ... this many times each (interleaved)
  int setup_reps;        // set-ups timed; setup_s is their median
  int serve_reps;        // serve segments per round
};

// Scales and repetitions size every metric at ~20 or more samples in a
// 30 s run (README.md, "Spread and bounds").
constexpr Workload kWorkloads[] = {
    {"count-skewed", "TW", 0.001, false, false, true, 1, 3, 41, 4},
    {"count-flat", "FR", 0.0005, true, false, false, 1, 1, 5, 2},
    {"serve-mutate", "WI", 0.0005, false, true, false, 8, 1, 7, 1},
};

/// The multi-process attempt runs on the library's own TW replica
/// (graph::make_dataset, deterministic in the scale alone), so the
/// failing operation's input never depends on the workload seed. At
/// this scale it failed every time; at 0.0005 it sometimes succeeds.
constexpr double kMultiprocessScale = 0.002;
constexpr int kShards = 4;

// One serve segment: point queries, query_batch calls of a fixed size,
// and one mutation batch of kMutPairs delete/re-add and insert/delete
// pairs (4 * kMutPairs ops once the first batch has run). Where a value
// comes from and which are assumptions: README.md, "Request mix".
constexpr std::size_t kPoints = 20000;
constexpr std::size_t kBatchCalls = 2;       // assumption
constexpr std::size_t kBatchSize = 8192;     // assumption
// 16 edges per publish, as bench/bench_serve_throughput's mixed section.
constexpr std::size_t kMutPairs = 16;

// Point-query mix: share of hot (Zipf-ranked) pairs; the rest is cold,
// half edges and half uniform vertex pairs.
constexpr double kHotShare = 0.8;            // assumption
// Hot-set size of bench/bench_serve_throughput's mixed section.
constexpr std::size_t kHotPairs = 2048;
constexpr double kZipfExponent = 1.0;        // assumption
// Every k-th reply is recounted against the shadow adjacency.
constexpr std::size_t kReplySample = 16;

const Workload& workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload " + name);
}

// --- small utilities -------------------------------------------------------------

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> f;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + a);
    }
    f[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  return f;
}

std::string flag(const std::map<std::string, std::string>& f,
                 const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct MetricOut {
  std::vector<std::pair<std::string, std::string>> items;  // name, json
  void add(const std::string& name, double value, const char* unit) {
    items.emplace_back(name, "{\"value\": " + num(value) + ", \"unit\": \"" +
                                 unit + "\"}");
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      s += (i ? ", \"" : "\"") + items[i].first + "\": " + items[i].second;
    }
    return s + "}";
  }
};

Csr load_text_graph(const std::string& path, Tracer& tr) {
  aecnc::graph::EdgeList edges;
  {
    Scoped s(tr, "graph.parse_text");
    edges = aecnc::graph::load_edge_list_text(path);
  }
  Scoped s(tr, "graph.csr_build");
  return Csr::from_edge_list(std::move(edges));
}

// --- input generation -----------------------------------------------------------

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

std::string fixed_input(const std::string& dir) {
  return dir + "/tw-" + num(kMultiprocessScale) + ".csr";
}

/// Writes the workload's inputs into --dir unless meta.json there already
/// names the same recipe and scale (meta.json is written last), and the
/// fixed multi-process input unless it exists.
int cmd_gen(const std::map<std::string, std::string>& f) {
  const Workload& w = workload(flag(f, "workload"));
  const auto seed = std::stoull(flag(f, "seed"));
  const std::string dir = flag(f, "dir");
  if (w.multiprocess) {
    const std::string fixed = fixed_input(flag(f, "fixed-dir"));
    if (!file_exists(fixed)) {
      aecnc::graph::save_csr_binary(
          aecnc::graph::make_dataset(aecnc::graph::DatasetId::kTwitter,
                                     kMultiprocessScale),
          fixed + ".tmp");
      std::rename((fixed + ".tmp").c_str(), fixed.c_str());
    }
  }
  const std::string key = std::string("\"key\": \"") + w.dataset + "@" +
                          num(w.scale) + "\"";
  {
    std::ifstream meta(dir + "/meta.json");
    std::string line;
    if (std::getline(meta, line) && line.find(key) != std::string::npos) {
      return 0;
    }
  }
  const Csr g = make_replica(recipe(w.dataset), w.scale, seed);
  aecnc::graph::save_csr_binary(g, dir + "/graph.csr");
  aecnc::graph::EdgeList edges(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) edges.add(u, v);
    }
  }
  aecnc::graph::save_edge_list_text(edges, dir + "/graph.txt");
  std::ofstream meta(dir + "/meta.json");
  meta << "{" << key << ", \"dataset\": \"" << w.dataset << "\", \"scale\": " << num(w.scale)
       << ", \"vertices\": " << g.num_vertices()
       << ", \"edges\": " << g.num_undirected_edges()
       << ", \"max_degree\": " << g.max_degree() << ", \"skew_pct_t50\": "
       << num(aecnc::graph::skewed_intersection_percentage(g, 50.0)) << "}\n";
  return 0;
}

// --- serve streams ------------------------------------------------------------------

/// Seeded request streams over the shadow graph.
class Streams {
 public:
  Streams(const Adjacency& adj, std::uint64_t seed) : adj_(adj), rng_(seed) {
    const auto n = static_cast<VertexId>(adj.size());
    for (VertexId u = 0; u < n; ++u) {
      if (!adj[u].empty()) with_edges_.push_back(u);
    }
    double total = 0.0;
    for (std::size_t k = 0; k < kHotPairs; ++k) {
      hot_.push_back(random_edge());
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  aecnc::serve::EdgeQuery point() {
    if (rng_.uniform() < kHotShare) {
      const auto k = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                           rng_.uniform()) -
          zipf_cdf_.begin());
      return hot_[std::min(k, hot_.size() - 1)];
    }
    return cold();
  }

  /// Link-prediction style pair: an edge or a uniform vertex pair.
  aecnc::serve::EdgeQuery cold() {
    return rng_.below(2) == 0 ? random_edge() : random_pair();
  }

  /// One stationary mutation batch: re-add what the previous batch
  /// deleted, delete what it inserted, then delete `pairs` present edges
  /// and insert `pairs` absent ones. |E| is the same after every batch.
  std::vector<aecnc::update::Mutation> mutations(std::size_t pairs) {
    using aecnc::update::Mutation;
    std::vector<Mutation> ops;
    std::set<std::uint64_t> used;
    const auto key = [](VertexId u, VertexId v) {
      return (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
             std::max(u, v);
    };
    for (const auto& e : deleted_) {
      ops.push_back(Mutation{aecnc::core::EdgeOpKind::kInsert, e.u, e.v});
      used.insert(key(e.u, e.v));
    }
    for (const auto& e : inserted_) {
      ops.push_back(Mutation{aecnc::core::EdgeOpKind::kErase, e.u, e.v});
      used.insert(key(e.u, e.v));
    }
    deleted_.clear();
    inserted_.clear();
    while (deleted_.size() < pairs) {
      const auto e = random_edge();
      if (used.insert(key(e.u, e.v)).second) {
        ops.push_back(Mutation{aecnc::core::EdgeOpKind::kErase, e.u, e.v});
        deleted_.push_back(e);
      }
    }
    while (inserted_.size() < pairs) {
      const auto e = random_pair();
      if (e.u != e.v && !has_edge(adj_, e.u, e.v) &&
          used.insert(key(e.u, e.v)).second) {
        ops.push_back(Mutation{aecnc::core::EdgeOpKind::kInsert, e.u, e.v});
        inserted_.push_back(e);
      }
    }
    return ops;
  }

 private:
  aecnc::serve::EdgeQuery random_edge() {
    const VertexId u = with_edges_[rng_.below(
        static_cast<std::uint32_t>(with_edges_.size()))];
    const auto& row = adj_[u];
    if (row.empty()) return random_pair();
    return {u, row[rng_.below(static_cast<std::uint32_t>(row.size()))]};
  }
  aecnc::serve::EdgeQuery random_pair() {
    const auto n = static_cast<std::uint32_t>(adj_.size());
    const VertexId u = rng_.below(n);
    VertexId v = rng_.below(n);
    if (v == u) v = (v + 1) % n;
    return {u, v};
  }

  const Adjacency& adj_;
  aecnc::util::Xoshiro256 rng_;
  std::vector<VertexId> with_edges_;
  std::vector<aecnc::serve::EdgeQuery> hot_;
  std::vector<double> zipf_cdf_;
  std::vector<aecnc::serve::EdgeQuery> deleted_;
  std::vector<aecnc::serve::EdgeQuery> inserted_;
};

void apply_to_shadow(Adjacency& adj,
                     const std::vector<aecnc::update::Mutation>& ops) {
  const auto put = [&](VertexId u, VertexId v, bool insert) {
    auto& row = adj[u];
    const auto it = std::lower_bound(row.begin(), row.end(), v);
    if (insert && (it == row.end() || *it != v)) row.insert(it, v);
    if (!insert && it != row.end() && *it == v) row.erase(it);
  };
  for (const auto& m : ops) {
    const bool insert = m.kind == aecnc::core::EdgeOpKind::kInsert;
    put(m.u, m.v, insert);
    put(m.v, m.u, insert);
  }
}

// --- one run ------------------------------------------------------------------------

struct Samples {
  // One sample per set-up, count call, point phase, segment's batch
  // calls and mutation batch; the metrics are their medians.
  std::vector<double> setup, mps, bmp, shard, kqps, batch_kqps, publish;
  // Traced-round details.
  std::vector<double> hit_ns, miss_us, batch_ms, apply_ms, publish_call_ms;
  std::vector<double> traced_round, untraced_round;
  std::uint64_t traced_points = 0, traced_hits = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const std::map<std::string, std::string>& f)
      : w_(w),
        seed_(std::stoull(flag(f, "seed"))),
        seconds_(std::stod(flag(f, "seconds"))),
        trace_(flag(f, "trace") == "1"),
        dir_(flag(f, "dir")),
        threads_(std::min(4, omp_get_num_procs())) {
    if (trace_) trace_out_ = flag(f, "trace-out");
    if (w.multiprocess) {
      cli_ = flag(f, "cli");
      fixed_path_ = fixed_input(flag(f, "fixed-dir"));
    }
    omp_set_num_threads(threads_);
  }

  int run();

 private:
  void setup();
  void round(std::size_t r, bool record);
  void count_paths(bool record);
  void multiprocess_attempt();
  void serve_segment(bool record, bool traced);
  void check_replies(const std::vector<aecnc::serve::QueryResult>& rs,
                     const std::vector<aecnc::serve::EdgeQuery>& qs);
  void layer_probes(MetricOut& out);
  void fail(const std::string& why) {
    if (correct_) std::fprintf(stderr, "check failed: %s\n", why.c_str());
    correct_ = false;
  }
  [[nodiscard]] Options mps_options() const {
    Options o;
    o.algorithm = Algorithm::kMps;
    o.num_threads = threads_;
    o.mps.kind = aecnc::intersect::best_merge_kind();
    return o;
  }
  [[nodiscard]] Options bmp_options() const {
    Options o = mps_options();
    o.algorithm = Algorithm::kBmp;
    return o;
  }
  [[nodiscard]] Options shard_options() const {
    Options o = mps_options();
    o.num_shards = kShards;
    return o;
  }

  const Workload& w_;
  const std::uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string dir_;
  const int threads_;
  std::string trace_out_, cli_, fixed_path_;

  Tracer tracer_;
  Samples s_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::string first_failure_;

  Csr g_;  // the loaded workload graph
  std::unique_ptr<aecnc::serve::Service> svc_;
  Adjacency shadow_;
  std::unique_ptr<Streams> streams_;
  aecnc::serve::Epoch epoch_ = 0;
  std::size_t mutation_batches_ = 0;
  // Last count round, kept for the end-of-run checks.
  CountArray last_counts_;
  aecnc::serve::SnapshotPtr last_count_snapshot_;
  std::size_t count_samples_ = 0;
  Csr fixed_;
  CountArray fixed_reference_;
};

void Runner::setup() {
  aecnc::serve::ServiceConfig cfg;
  cfg.engine.num_workers = threads_;
  cfg.engine.options.mps.kind = aecnc::intersect::best_merge_kind();
  for (int i = 0; i < w_.setup_reps; ++i) {
    g_ = Csr{};
    svc_.reset();
    Scoped total(tracer_, "setup");
    if (w_.text_input) {
      g_ = load_text_graph(dir_ + "/graph.txt", tracer_);
    } else {
      Scoped s(tracer_, "graph.load_binary");
      g_ = aecnc::graph::load_csr_binary(dir_ + "/graph.csr");
    }
    {
      Scoped s(tracer_, "graph.reverse_index");
      (void)g_.reverse_offsets();
    }
    if (w_.serve_setup) {
      cfg.update.max_vertices = g_.num_vertices();
      svc_ = std::make_unique<aecnc::serve::Service>(cfg);
      {
        Scoped s(tracer_, "serve.publish");
        svc_->publish(g_);
      }
      Scoped s(tracer_, "update.seed");
      (void)svc_->apply_updates({});
    }
    s_.setup.push_back(total.end());
  }
  if (!w_.serve_setup) {
    // The count workloads serve the same graph; its service set-up is
    // not part of their setup_s.
    cfg.update.max_vertices = g_.num_vertices();
    svc_ = std::make_unique<aecnc::serve::Service>(cfg);
    svc_->publish(g_);
    Scoped s(tracer_, "update.seed");
    (void)svc_->apply_updates({});
  }
  epoch_ = svc_->current_epoch();
  shadow_ = adjacency_of(g_);
  streams_ = std::make_unique<Streams>(shadow_, seed_ ^ 0x5e7e5eedULL);
  if (w_.multiprocess) fixed_ = aecnc::graph::load_csr_binary(fixed_path_);
}

void Runner::count_paths(bool record) {
  // serve-mutate counts its current snapshot; the count workloads their
  // loaded graph.
  aecnc::serve::SnapshotPtr snap;
  if (w_.serve_setup) snap = svc_->snapshot();
  const Csr& g = snap ? snap->graph : g_;
  CountArray mps, bmp, shard;
  double t_mps = 0, t_bmp = 0, t_shard = 0;
  {
    Scoped s(tracer_, "core.count_common_neighbors[mps]");
    mps = aecnc::core::count_common_neighbors(g, mps_options());
    t_mps = s.end();
  }
  {
    Scoped s(tracer_, "core.count_with_reorder[bmp]");
    bmp = aecnc::core::count_with_reorder(g, bmp_options());
    t_bmp = s.end();
  }
  {
    Scoped s(tracer_, "core.count_common_neighbors[shards=4]");
    shard = aecnc::core::count_common_neighbors(g, shard_options());
    t_shard = s.end();
  }
  if (auto why = compare_counts(mps, bmp, "BMP"); !why.empty()) fail(why);
  if (auto why = compare_counts(mps, shard, "shard"); !why.empty()) fail(why);
  if (record) {
    s_.mps.push_back(t_mps);
    s_.bmp.push_back(t_bmp);
    s_.shard.push_back(t_shard);
    attempted_ += 3;
    ++count_samples_;
  }
  last_counts_ = std::move(mps);
  last_count_snapshot_ = std::move(snap);
}

void Runner::multiprocess_attempt() {
  aecnc::net::MultiProcessOptions mp;
  mp.exe_path = cli_;
  mp.graph_path = fixed_path_;
  mp.num_shards = kShards;
  ++attempted_;
  Scoped s(tracer_, "net.count_multiprocess");
  try {
    const CountArray got = aecnc::net::count_multiprocess(fixed_, mp);
    s.end();
    if (fixed_reference_.empty()) {
      fixed_reference_ =
          aecnc::core::count_common_neighbors(fixed_, mps_options());
    }
    if (auto why = compare_counts(fixed_reference_, got, "multi-process");
        !why.empty()) {
      fail(why);
    }
  } catch (const std::exception& e) {
    // Any exception (a TransportError, or fork, socket and I/O errors)
    // fails this one operation, not the run.
    ++failed_;
    if (first_failure_.empty()) first_failure_ = e.what();
  }
}

void Runner::check_replies(const std::vector<aecnc::serve::QueryResult>& rs,
                           const std::vector<aecnc::serve::EdgeQuery>& qs) {
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    if (r.status != aecnc::serve::ReplyStatus::kFresh || r.epoch != epoch_) {
      fail("reply not fresh on the current epoch");
      return;
    }
    if (i % kReplySample != 0) continue;
    const VertexId u = qs[i].u, v = qs[i].v;
    const CnCount want = u == v ? 0 : intersect_count(shadow_[u], shadow_[v]);
    if (r.count != want || r.is_edge != has_edge(shadow_, u, v)) {
      fail("serve reply (" + std::to_string(u) + "," + std::to_string(v) +
           ") count " + std::to_string(r.count) + " want " +
           std::to_string(want) + " at epoch " + std::to_string(r.epoch));
      return;
    }
  }
}

void Runner::serve_segment(bool record, bool traced) {
  using aecnc::serve::EdgeQuery;
  using aecnc::serve::QueryResult;
  // Point queries: one closed-loop client.
  std::vector<EdgeQuery> qs(kPoints);
  for (auto& q : qs) q = streams_->point();
  std::vector<QueryResult> rs(qs.size());
  {
    Scoped s(tracer_, "serve.query_edge x N");
    if (traced) {
      std::uint64_t hits = 0;
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const std::int64_t t0 = now_ns();
        rs[i] = svc_->query_edge(qs[i].u, qs[i].v);
        const auto dt = static_cast<double>(now_ns() - t0);
        if (rs[i].cached) {
          ++hits;
          s_.hit_ns.push_back(dt);
        } else {
          s_.miss_us.push_back(dt * 1e-3);
        }
      }
      s_.traced_points += qs.size();
      s_.traced_hits += hits;
      s.end("\"queries\":" + std::to_string(qs.size()) +
            ",\"hits\":" + std::to_string(hits));
    } else {
      for (std::size_t i = 0; i < qs.size(); ++i) {
        rs[i] = svc_->query_edge(qs[i].u, qs[i].v);
      }
    }
    const double t = s.end();
    if (record) s_.kqps.push_back(static_cast<double>(qs.size()) / t * 1e-3);
  }
  check_replies(rs, qs);

  // Fixed-size batches of link-prediction pairs.
  double batch_s = 0.0;
  for (std::size_t c = 0; c < kBatchCalls; ++c) {
    std::vector<EdgeQuery> bq(kBatchSize);
    for (auto& q : bq) q = streams_->cold();
    Scoped s(tracer_, "serve.query_batch");
    const auto br = svc_->query_batch(bq);
    const double t = s.end();
    batch_s += t;
    if (traced) s_.batch_ms.push_back(t * 1e3);
    check_replies(br, bq);
  }
  if (record) {
    s_.batch_kqps.push_back(static_cast<double>(kBatchCalls * kBatchSize) /
                            batch_s * 1e-3);
  }

  // One mutation batch, visible after publish().
  const auto ops = streams_->mutations(kMutPairs);
  {
    Scoped s(tracer_, "update.mutation_to_visible");
    {
      Scoped a(tracer_, "serve.apply_updates");
      (void)svc_->apply_updates(ops);
      if (traced) s_.apply_ms.push_back(a.end() * 1e3);
    }
    {
      Scoped p(tracer_, "serve.publish");
      epoch_ = svc_->publish();
      if (traced) s_.publish_call_ms.push_back(p.end() * 1e3);
    }
    const double t = s.end();
    if (record) s_.publish.push_back(t * 1e3);
  }
  ++mutation_batches_;
  apply_to_shadow(shadow_, ops);
  if (auto why = compare_graph(svc_->snapshot()->graph, shadow_); !why.empty()) {
    fail(why);
  }
  if (record) attempted_ += kPoints + kBatchCalls + 1;
}

void Runner::round(std::size_t r, bool record) {
  const bool counts = r % static_cast<std::size_t>(w_.count_every) == 0;
  // In a traced run, blocks of count_every rounds alternate between
  // traced and untraced, so both halves see the same operation mix.
  const bool traced = trace_ && record &&
                      (r / static_cast<std::size_t>(w_.count_every)) % 2 == 1;
  tracer_.enabled = traced;
  Scoped s(tracer_, "round");
  // The unrecorded warm-up round runs each path once.
  const int count_reps = record ? w_.count_reps : 1;
  const int serve_reps = record ? w_.serve_reps : 1;
  for (int k = 0; counts && k < count_reps; ++k) count_paths(record);
  if (w_.multiprocess && record) multiprocess_attempt();
  for (int k = 0; k < serve_reps; ++k) serve_segment(record, traced);
  // The round time includes the correctness checks, the same work in
  // traced and untraced rounds.
  const double t = s.end();
  if (trace_ && record) {
    (traced ? s_.traced_round : s_.untraced_round).push_back(t);
  }
  tracer_.enabled = trace_;
}

void Runner::layer_probes(MetricOut& out) {
  using aecnc::graph::IdMap;
  tracer_.enabled = true;
  // The load path the workload's set-up does not take.
  if (w_.text_input) {
    for (int i = 0; i < 3; ++i) {
      Scoped s(tracer_, "graph.load_binary");
      (void)aecnc::graph::load_csr_binary(dir_ + "/graph.csr");
    }
  } else {
    (void)load_text_graph(dir_ + "/graph.txt", tracer_);
  }
  const double setup = median(s_.setup);
  const auto part = [&](const char* name) {
    return median(tracer_.durations(name));
  };
  out.add("graph.load_binary_s", part("graph.load_binary"), "s");
  out.add("graph.parse_text_s", part("graph.parse_text"), "s");
  out.add("graph.csr_build_s", part("graph.csr_build"), "s");
  out.add("graph.reverse_index_s", part("graph.reverse_index"), "s");
  const double layers =
      (w_.text_input ? part("graph.parse_text") + part("graph.csr_build")
                     : part("graph.load_binary")) +
      part("graph.reverse_index");
  std::printf("info {\"setup_s\": %s, \"setup_layers_s\": %s}\n",
              num(setup).c_str(), num(layers).c_str());

  // BMP path split: relabel, kernel on the relabeled twin, the rest is
  // translate-back (derived).
  Csr internal;
  std::vector<double> relabel, kernel, packed;
  for (int i = 0; i < 3; ++i) {
    IdMap map;
    {
      Scoped s(tracer_, "graph.reorder_degree_descending");
      internal = aecnc::graph::reorder_degree_descending(g_, &map);
      relabel.push_back(s.end());
    }
    {
      Scoped s(tracer_, "core.count_common_neighbors[bmp,relabeled]");
      (void)aecnc::core::count_common_neighbors(internal, bmp_options());
      kernel.push_back(s.end());
    }
    Options po = bmp_options();
    po.bmp_packed = true;
    Scoped s(tracer_, "core.count_common_neighbors[bmp,packed,relabeled]");
    (void)aecnc::core::count_common_neighbors(internal, po);
    packed.push_back(s.end());
  }
  const double bmp_e2e = median(s_.bmp);
  out.add("graph.relabel_s", median(relabel), "s");
  out.add("core.bmp_kernel_s", median(kernel), "s");
  out.add("core.translate_s", bmp_e2e - median(relabel) - median(kernel), "s");
  out.add("core.packed_kernel_s", median(packed), "s");

  Options one = mps_options();
  one.num_threads = 1;
  double t1 = 0;
  {
    Scoped s(tracer_, "core.count_common_neighbors[mps,1 thread]");
    (void)aecnc::core::count_common_neighbors(g_, one);
    t1 = s.end();
  }
  out.add("core.mps_1t_s", t1, "s");
  out.add("core.mps_speedup", t1 / median(s_.mps), "x");

  aecnc::intersect::StatsCounter is;
  {
    Scoped s(tracer_, "core.count_instrumented[mps]");
    (void)aecnc::core::count_instrumented(g_, mps_options(), is);
  }
  out.add("intersect.intersections", static_cast<double>(is.intersections),
          "count");
  out.add("intersect.gallop_steps", static_cast<double>(is.gallop_steps),
          "count");
  out.add("intersect.block_steps", static_cast<double>(is.block_steps),
          "count");
  out.add("intersect.scalar_cmps", static_cast<double>(is.scalar_cmps),
          "count");
  out.add("intersect.streamed_mb", static_cast<double>(is.streamed_bytes) * 1e-6,
          "MB");
  aecnc::intersect::StatsCounter bs;
  {
    Scoped s(tracer_, "core.count_instrumented[bmp,relabeled]");
    (void)aecnc::core::count_instrumented(internal, bmp_options(), bs);
  }
  out.add("bitmap.probes", static_cast<double>(bs.bitmap_probes), "count");
  out.add("bitmap.sets", static_cast<double>(bs.bitmap_sets), "count");

  aecnc::shard::ShardConfig sc;
  sc.num_shards = kShards;
  sc.mps = mps_options().mps;
  double part_s = 0, run_s = 0;
  aecnc::net::TransportStats ts;
  {
    Scoped s(tracer_, "shard.ShardedEngine");
    aecnc::shard::ShardedEngine eng(g_, sc);
    part_s = s.end();
    Scoped r(tracer_, "shard.run");
    (void)eng.run();
    run_s = r.end();
    ts = eng.transport_stats();
  }
  out.add("shard.partition_s", part_s, "s");
  out.add("shard.run_s", run_s, "s");
  out.add("shard.messages", static_cast<double>(ts.messages), "count");
  out.add("shard.mb_moved", static_cast<double>(ts.bytes) * 1e-6, "MB");
  out.add("shard.bytes_per_edge",
          static_cast<double>(ts.bytes) /
              static_cast<double>(g_.num_undirected_edges()),
          "B/edge");
  out.add("shard.batches", static_cast<double>(ts.batches), "count");
  out.add("shard.backpressure", static_cast<double>(ts.backpressure), "count");

  const aecnc::serve::ServiceStats st = svc_->stats();
  out.add("serve.hit_ns_p50", median(s_.hit_ns), "ns");
  out.add("serve.hit_ns_p99", percentile(s_.hit_ns, 0.99), "ns");
  out.add("serve.miss_us_p50", median(s_.miss_us), "us");
  out.add("serve.miss_us_p99", percentile(s_.miss_us, 0.99), "us");
  out.add("serve.hit_rate",
          static_cast<double>(s_.traced_hits) /
              static_cast<double>(std::max<std::uint64_t>(1, s_.traced_points)),
          "ratio");
  const auto batches = static_cast<double>(std::max<std::size_t>(1, mutation_batches_));
  out.add("serve.carried_per_publish",
          static_cast<double>(st.cache.carried_forward) / batches, "count");
  out.add("serve.batch_ms_p50", median(s_.batch_ms), "ms");
  out.add("serve.engine_queries_per_batch",
          static_cast<double>(st.engine_queries) /
              static_cast<double>(std::max<std::uint64_t>(1, st.engine_batches)),
          "count");
  out.add("update.apply_ms_p50", median(s_.apply_ms), "ms");
  out.add("update.publish_call_ms_p50", median(s_.publish_call_ms), "ms");
  out.add("update.delta_batches",
          static_cast<double>(st.updates.delta_batches) / batches, "count");
  out.add("update.recount_batches",
          static_cast<double>(st.updates.recount_batches) / batches, "count");
  out.add("update.touched_per_batch",
          static_cast<double>(st.updates.touched_pairs) / batches, "count");
  out.add("update.seed_s", median(tracer_.durations("update.seed")), "s");
  const double traced = median(s_.traced_round);
  const double untraced = median(s_.untraced_round);
  out.add("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%");
}

int Runner::run() {
  tracer_.enabled = trace_;
  setup();
  round(0, false);  // warm-up: every path, every thread, untimed
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds_ * 1e9);
  std::size_t r = 0;
  // Whole rounds only; at least two count rounds (and, in a traced run,
  // one traced and one untraced block).
  const std::size_t min_rounds = static_cast<std::size_t>(w_.count_every) * 2;
  while (r < min_rounds || now_ns() - start < budget) round(r++, true);
  const double measured = static_cast<double>(now_ns() - start) * 1e-9;

  // End-of-run checks on the last count round's output.
  const Csr& cg = last_count_snapshot_ ? last_count_snapshot_->graph : g_;
  std::size_t checked = 0;
  if (auto why = check_counts(cg, last_counts_, seed_ ^ 0xc4ecULL, 20000, 3,
                              &checked);
      !why.empty()) {
    fail(why);
  }

  MetricOut out;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (trace_) {
    layer_probes(out);
    // Per-layer only: it varies by up to 30% between runs of one build
    // (README.md, "Spread and bounds").
    out.add("mem.peak_rss_mb", peak_rss_mb, "MB");
  } else {
    out.add("setup_s", median(s_.setup), "s");
    out.add("count_mps_s", median(s_.mps), "s");
    out.add("count_bmp_s", median(s_.bmp), "s");
    out.add("count_shard_s", median(s_.shard), "s");
    out.add("query_kqps", median(s_.kqps), "kqps");
    out.add("batch_kqps", median(s_.batch_kqps), "kqps");
    out.add("publish_ms", median(s_.publish), "ms");
  }
  std::printf(
      "info {\"workload\": \"%s\", \"dataset\": \"%s\", \"scale\": %s, "
      "\"vertices\": %u, \"edges\": %llu, \"threads\": %d, \"kernel\": \"%s\", "
      "\"shards\": %d, "
      "\"rounds\": %zu, \"count_samples\": %zu, \"measured_s\": %s, "
      "\"slots_recounted\": %zu, \"peak_rss_mb\": %s, \"serve_seed\": %llu, "
      "\"first_failure\": \"%s\"}\n",
      w_.name, w_.dataset, num(w_.scale).c_str(), g_.num_vertices(),
      static_cast<unsigned long long>(g_.num_undirected_edges()), threads_,
      std::string(aecnc::intersect::merge_kind_name(
                      aecnc::intersect::best_merge_kind()))
          .c_str(),
      kShards, r, count_samples_, num(measured).c_str(), checked,
      num(peak_rss_mb).c_str(),
      static_cast<unsigned long long>(seed_ ^ 0x5e7e5eedULL),
      first_failure_.c_str());
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
    return out + "]";
  };
  std::printf(
      "info {\"samples\": {\"setup_s\": %s, \"count_mps_s\": %s, "
      "\"count_bmp_s\": %s, \"count_shard_s\": %s, \"query_kqps\": %s, "
      "\"batch_kqps\": %s, \"publish_ms\": %s}}\n",
      list(s_.setup).c_str(), list(s_.mps).c_str(), list(s_.bmp).c_str(),
      list(s_.shard).c_str(), list(s_.kqps).c_str(),
      list(s_.batch_kqps).c_str(), list(s_.publish).c_str());
  if (trace_) {
    tracer_.write_json(trace_out_);
    std::printf("info {\"trace_file\": \"%s\", \"spans\": %zu}\n",
                trace_out_.c_str(), tracer_.spans().size());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct_ ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), out.json().c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench_driver gen|run --key=value ...");
    const auto f = perfbench::parse_flags(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen") return perfbench::cmd_gen(f);
    if (cmd == "run") {
      perfbench::Runner runner(perfbench::workload(perfbench::flag(f, "workload")),
                               f);
      return runner.run();
    }
    throw std::invalid_argument("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
