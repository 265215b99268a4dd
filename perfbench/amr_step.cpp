/// \file amr_step.cpp
/// \brief AMR-step benchmark driver: times one adaptive-mesh step —
/// refine → balance or delta_balance → repartition → ghost → nodes →
/// coarsen — on three workloads, through octbal's public API only.
///
///   octbal_perfbench --workload icesheet_p64|fractal_p256|front_churn
///                    --seed N --seconds S --trace 0|1
///                    [--lmax L] [--trace-out spans.json]
///
/// With --trace 0 it prints the end-to-end metrics (setup_s, step_s,
/// balance_s, comm_model_s, peak_bytes_per_leaf, max_rss_mb, fail_frac);
/// with --trace 1 it prints the per-layer metrics, gathered from spans the
/// driver records around each library call and from the reports the
/// library returns.  The last stdout line is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// Every output is checked after its timed region ends; the exit code is
/// nonzero when any check fails.  See perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/linear.hpp"
#include "core/sort.hpp"
#include "forest/balance.hpp"
#include "forest/delta_balance.hpp"
#include "forest/ghost.hpp"
#include "forest/nodes.hpp"
#include "forest/repartition.hpp"
#include "obs/mem.hpp"
#include "util/parallel.hpp"
#include "workload/workloads.hpp"

using namespace octbal;

namespace {

constexpr int kThreads = 4;        ///< worker threads of every timed pass
constexpr int kBalanceK = 3;       ///< corner balance in 3D
constexpr int kSetupRepeats = 3;   ///< setups per run; setup_s is the median
constexpr int kKernelRepeats = 5;  ///< core kernel timings per traced run

using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Spans: recorded around each library call, kept in memory and written out
// as Chrome trace_event JSON when the run ends.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int threads = 0;
};

class Tracer {
 public:
  /// Run \p fn and return its wall-clock seconds; when recording, also log
  /// a span named \p name under the innermost open span.
  double time(const char* name, const std::function<void()>& fn) {
    const int parent = open_;
    const double t0 = now_s();
    if (recording_) {
      spans_.push_back({name, t0, t0, parent, par::num_threads()});
      open_ = static_cast<int>(spans_.size()) - 1;
    }
    fn();
    const double t1 = now_s();
    if (recording_) {
      spans_[static_cast<std::size_t>(open_)].end = t1;
      open_ = parent;
    }
    return t1 - t0;
  }

  void set_recording(bool on) { recording_ = on; }

  bool write_chrome(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.threads, s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  bool recording_ = false;
};

// ---------------------------------------------------------------------------
// Output checks.  None runs inside a timed region.

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double seconds = 0;  ///< wall-clock spent checking, kept off every clock

  /// Run a block of checks (and the reference work they need).
  void run(const std::function<void()>& fn) {
    const double t0 = now_s();
    fn();
    seconds += now_s() - t0;
  }

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

bool forests_identical(const Forest<3>& a, const Forest<3>& b) {
  if (a.num_ranks() != b.num_ranks()) return false;
  for (int r = 0; r < a.num_ranks(); ++r) {
    if (!(a.local(r) == b.local(r))) return false;
  }
  return a.markers() == b.markers();
}

/// A distributed forest's identity: the partition-independent leaf
/// checksum plus how the leaves are split over ranks.
struct Digest {
  std::uint64_t checksum = 0;
  std::vector<std::size_t> sizes;
  std::vector<GlobalPos> markers;

  std::uint64_t leaves() const {
    std::uint64_t n = 0;
    for (std::size_t s : sizes) n += s;
    return n;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

Digest digest(const Forest<3>& f) {
  Digest d;
  d.checksum = forest_checksum(f);
  for (int r = 0; r < f.num_ranks(); ++r) d.sizes.push_back(f.local(r).size());
  d.markers = f.markers();
  return d;
}

/// forest_is_balanced, memoized per leaf set.  The oracle is serial and a
/// pure function of the leaves, so each distinct leaf set (by
/// forest_checksum) runs it once per process; later steps with the same
/// leaves reuse the verdict.
class BalanceOracle {
 public:
  bool known(std::uint64_t checksum) const {
    return verdict_.count(checksum) > 0;
  }

  /// \p f is only read when \p checksum has no verdict yet.
  bool balanced(std::uint64_t checksum, const Forest<3>* f) {
    auto it = verdict_.find(checksum);
    if (it == verdict_.end()) {
      if (f == nullptr) return false;
      it = verdict_
               .emplace(checksum, forest_is_balanced(f->gather(),
                                                     f->connectivity(),
                                                     kBalanceK))
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::uint64_t, bool> verdict_;
};

// ---------------------------------------------------------------------------
// One step's measurements.

struct StepRecord {
  double t_step = 0;  ///< sum of the timed library calls
  double t_balance = 0;  ///< balance(), or delta_balance() on front_churn
  double t_repartition = 0;
  double t_ghost = 0;
  double t_nodes = 0;
  double t_refine = 0;
  double t_coarsen = 0;
  double t_full = 0;  ///< front_churn: full balance() of the churned copy
  BalanceReport bal;  ///< static: the step's balance; churn: the full copy's
  DeltaBalanceReport delta;
  RepartitionReport rep;
  std::uint64_t leaves = 0;  ///< balanced leaves of the step
  std::uint64_t ghost_entries = 0;
  std::uint64_t ghost_counter = 0;  ///< "ghost/entries" registry counter
  std::uint64_t num_nodes = 0;
  std::uint64_t shared_nodes = 0;
  CommStats comm;
  double modeled = 0;
  std::vector<SimComm::PhaseCost> phases;
  obs::MemSnapshot mem;
};

const BalanceOptions& balance_options() {
  static const BalanceOptions opt = [] {
    BalanceOptions o = BalanceOptions::new_config();
    o.k = kBalanceK;
    return o;
  }();
  return opt;
}

RepartitionOptions repartition_options() {
  RepartitionOptions o;
  o.mode = RepartitionMode::kWeighted;
  o.weight = RepartitionWeight::kInsulation;
  return o;
}

/// repartition → ghost → nodes, shared by both step kinds.
void finish_step(Forest<3>& g, SimComm& comm, Tracer& tr, StepRecord& rec) {
  rec.t_repartition = tr.time("forest.repartition", [&] {
    rec.rep = repartition(g, repartition_options(), &comm);
  });
  rec.t_ghost = tr.time("forest.ghost", [&] {
    const GhostLayer<3> ghost = build_ghost_layer(g, kBalanceK, comm);
    for (const auto& v : ghost.per_rank) rec.ghost_entries += v.size();
  });
  rec.t_nodes = tr.time("forest.nodes", [&] {
    const NodeNumbering nn = enumerate_nodes(g.gather(), g.connectivity());
    const NodeOwnership own = assign_node_owners(g, nn, comm);
    rec.num_nodes = nn.num_nodes;
    rec.shared_nodes = own.shared_nodes;
  });
}

void read_comm(SimComm& comm, StepRecord& rec) {
  rec.comm = comm.stats();
  rec.modeled = comm.modeled_time();
  rec.phases = comm.critical_path();
  rec.ghost_counter = comm.metrics().counter("ghost/entries").reduced().total;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Shape {
  std::array<int, 3> brick;
  int level0;
  int lmax;
  int ranks;
};

/// SplitMix64 finalizer, for the seeded partition below.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The initial partition of every workload: the octants weigh 1 or 2,
/// drawn from a hash of the seed and the octant, so each seed cuts the
/// same mesh at slightly different places (per-rank counts stay within a
/// few percent of uniform).  The mesh itself does not depend on the seed:
/// other ice-sheet coastlines move balance_s by up to 30% and comm_model_s
/// by 8%, which would measure the input rather than the program.
void seeded_partition(Forest<3>& f, std::uint64_t seed) {
  f.partition_weighted([seed](const TreeOct<3>& to) {
    std::uint64_t h = mix64(seed) ^ static_cast<std::uint64_t>(to.tree);
    for (int d = 0; d < 3; ++d) {
      h = mix64(h ^ static_cast<std::uint64_t>(to.oct.x[d]));
    }
    h = mix64(h ^ static_cast<std::uint64_t>(to.oct.level));
    return 1 + static_cast<int>(h & 1);
  });
}

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Mesh generation plus everything else before the first step.
  virtual void generate() = 0;
  /// One timed unit from the generated state: a step (static workloads)
  /// or an episode of steps (front_churn).  Records one StepRecord per
  /// step, leaves the final balanced forest in \p out, and checks outputs
  /// outside the clock.
  virtual std::vector<StepRecord> run_unit(Tracer& tr, bool account_memory,
                                           int max_steps, Checks& chk,
                                           Forest<3>* out) = 0;
  /// Steps per full unit.
  virtual int unit_steps() const = 0;
  /// Run every reference computation of the checks, even where a verified
  /// earlier result could stand in (the traced run times them).
  virtual void set_always_reference(bool) {}
};

/// icesheet_p64 and fractal_p256: each step balances a fresh copy of the
/// same unbalanced mesh, then repartitions and builds ghost and nodes.
class StaticWorkload final : public Workload {
 public:
  StaticWorkload(Shape shape, bool fractal, std::uint64_t seed)
      : shape_(shape), fractal_(fractal), seed_(seed) {}

  void generate() override {
    Forest<3> f(Connectivity<3>::brick(shape_.brick), shape_.ranks,
                shape_.level0);
    if (fractal_) {
      fractal_refine(f, shape_.lmax);
    } else {
      icesheet_refine(f, shape_.lmax);  // the default coastline, seed 2012
    }
    seeded_partition(f, seed_);
    mesh_.emplace(std::move(f));
  }

  std::vector<StepRecord> run_unit(Tracer& tr, bool account_memory, int,
                                   Checks& chk, Forest<3>* out) override {
    Forest<3> g = *mesh_;
    StepRecord rec;
    {
      SimComm comm(shape_.ranks);
      comm.set_record_rounds(false);
      std::optional<obs::MemSession> mem;
      if (account_memory) {
        mem.emplace(shape_.ranks);
        g.account_memory();
      }
      rec.t_step = tr.time("step", [&] {
        rec.t_balance = tr.time("forest.balance", [&] {
          rec.bal = balance(g, balance_options(), comm);
        });
        finish_step(g, comm, tr, rec);
      });
      read_comm(comm, rec);
      if (mem) rec.mem = mem->snapshot();
    }
    rec.leaves = g.global_num_octants();
    chk.run([&] { check_step(g, rec, chk); });
    if (out != nullptr) *out = std::move(g);
    return {rec};
  }

  int unit_steps() const override { return 1; }

 private:
  void check_step(const Forest<3>& g, const StepRecord& rec, Checks& chk) {
    const std::uint64_t sum = forest_checksum(g);
    chk.expect(g.is_valid(), "step forest is a valid distributed forest");
    chk.expect(oracle_.balanced(sum, &g),
               "step forest is 2:1 balanced");
    chk.expect(rec.bal.octants_after == rec.leaves,
               "BalanceReport octants_after matches the forest");
    chk.expect(rec.ghost_entries == rec.ghost_counter,
               "ghost layer size matches the ghost/entries counter");
    // Every step balances the same mesh, so the results must repeat.
    const std::array<std::uint64_t, 3> sig = {sum, rec.ghost_entries,
                                               rec.num_nodes};
    if (!first_sig_) first_sig_ = sig;
    chk.expect(*first_sig_ == sig,
               "balanced leaves, ghost layer and node count repeat");
  }

  Shape shape_;
  bool fractal_;
  std::uint64_t seed_;
  std::optional<Forest<3>> mesh_;
  std::optional<std::array<std::uint64_t, 3>> first_sig_;
  BalanceOracle oracle_;
};

/// front_churn: the advected grounding line of bench_churn.  An episode
/// starts from the balanced step-0 front and runs refine → delta_balance →
/// repartition → ghost → nodes → coarsen per step.
class ChurnWorkload final : public Workload {
 public:
  ChurnWorkload(Shape shape, int steps, std::uint64_t seed)
      : shape_(shape), steps_(steps), seed_(seed) {
    params_.drift = 0.03;
    params_.wake = 0.06;
  }

  void generate() override {
    Forest<3> f(Connectivity<3>::brick(shape_.brick), shape_.ranks,
                shape_.level0);
    front_refine(f, shape_.lmax, params_, 0);
    seeded_partition(f, seed_);
    SimComm warm(shape_.ranks);
    warm.set_record_rounds(false);
    balance(f, balance_options(), warm);
    f.clear_dirty();
    start_.emplace(std::move(f));
  }

  std::vector<StepRecord> run_unit(Tracer& tr, bool account_memory,
                                   int max_steps, Checks& chk,
                                   Forest<3>* out) override {
    Forest<3> f = *start_;
    std::vector<StepRecord> recs;
    const int n = std::min(max_steps, steps_);
    tr.time("episode", [&] {
      for (int t = 1; t <= n; ++t) {
        recs.push_back(step(f, t, tr, account_memory, chk));
      }
    });
    if (out != nullptr) *out = std::move(f);
    return recs;
  }

  int unit_steps() const override { return steps_; }

  void set_always_reference(bool on) override { always_reference_ = on; }

 private:
  /// Forest copies made mid-step for the checks are charged to a scratch
  /// accounting session, so they never show in the step's memory peaks.
  static void side_copy(const Forest<3>& f, std::optional<Forest<3>>& copy) {
    obs::MemSession scratch(f.num_ranks());
    copy.emplace(f);
  }

  StepRecord step(Forest<3>& f, int t, Tracer& tr, bool account_memory,
                  Checks& chk) {
    StepRecord rec;
    Digest pre_digest, post_digest;
    std::optional<Forest<3>> pre, post;
    {
      SimComm comm(shape_.ranks);
      comm.set_record_rounds(false);
      std::optional<obs::MemSession> mem;
      if (account_memory) {
        mem.emplace(shape_.ranks);
        f.account_memory();
      }
      rec.t_refine = tr.time("forest.refine", [&] {
        front_refine(f, shape_.lmax, params_, t);
      });
      // The step clock stops for the check bookkeeping: t_step sums the
      // library calls alone.
      chk.run([&] {
        pre_digest = digest(f);
        const auto it = verified_.find(t);
        if (always_reference_ || it == verified_.end() ||
            !(it->second.first == pre_digest)) {
          side_copy(f, pre);
        }
      });
      rec.t_balance = tr.time("forest.delta_balance", [&] {
        rec.delta = delta_balance(f, balance_options(), comm);
      });
      chk.run([&] {
        post_digest = digest(f);
        if (pre || !oracle_.known(post_digest.checksum)) side_copy(f, post);
      });
      const double t_rest = tr.time("step.rest", [&] {
        finish_step(f, comm, tr, rec);
        rec.t_coarsen = tr.time("forest.coarsen", [&] {
          front_coarsen(f, params_, t, kBalanceK);
        });
      });
      rec.t_step = rec.t_refine + rec.t_balance + t_rest;
      read_comm(comm, rec);
      if (mem) rec.mem = mem->snapshot();
    }
    rec.leaves = post_digest.leaves();
    chk.run([&] {
      check_step(t, f, pre, post, pre_digest, post_digest, rec, tr, chk);
    });
    return rec;
  }

  /// delta ≡ full: the delta-balanced forest must equal a full balance()
  /// of a copy of the same churned forest, leaf for leaf and marker for
  /// marker.  The full balance runs whenever the churned forest is new to
  /// this run (and always in the traced run, which times it as
  /// forest.delta.full_s); a churned forest seen before must reproduce the
  /// digest of the result verified then.
  void check_step(int t, const Forest<3>& f, std::optional<Forest<3>>& pre,
                  const std::optional<Forest<3>>& post,
                  const Digest& pre_digest, const Digest& post_digest,
                  StepRecord& rec, Tracer& tr, Checks& chk) {
    const std::string at = " (step " + std::to_string(t) + ")";
    if (pre) {
      Forest<3>& ref = *pre;
      ref.clear_dirty();
      SimComm rc(shape_.ranks);
      rc.set_record_rounds(false);
      rec.t_full = tr.time("check.full_balance", [&] {
        rec.bal = balance(ref, balance_options(), rc);
      });
      chk.expect(forests_identical(*post, ref),
                 "delta_balance equals full balance, leaves and markers" + at);
      verified_[t] = {pre_digest, digest(ref)};
    } else {
      chk.expect(verified_.at(t).second == post_digest,
                 "delta_balance reproduces the verified full balance" + at);
    }
    chk.expect(oracle_.balanced(post_digest.checksum, post ? &*post : nullptr),
               "delta-balanced forest is 2:1 balanced" + at);
    chk.expect(rec.delta.octants_after == rec.leaves,
               "DeltaBalanceReport octants_after matches the forest" + at);
    chk.expect(rec.ghost_entries == rec.ghost_counter,
               "ghost layer size matches the ghost/entries counter" + at);
    chk.expect(f.is_valid(), "coarsened forest is valid" + at);
  }

  Shape shape_;
  int steps_;
  std::uint64_t seed_;
  ChurnFrontParams params_;  ///< the default coastline, seed 2012
  std::optional<Forest<3>> start_;
  bool always_reference_ = false;
  /// Per step: digest of a churned forest and of its verified full balance.
  std::map<int, std::pair<Digest, Digest>> verified_;
  BalanceOracle oracle_;
};

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& ms, const Checks& chk) {
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              chk.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(chk.attempted),
              static_cast<unsigned long long>(chk.failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

double max_rss_mb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

/// Phase labels the library sets on SimComm (and forwards to the memory
/// accountant); "run" is the label before the first set_phase.
const std::vector<std::string>& comm_phases() {
  static const std::vector<std::string> v = {
      "run",           "balance/notify", "balance/queries",
      "balance/response", "partition",   "ghost/notify",
      "ghost/exchange", "nodes/owner_sync", "churn/reduce",
      "churn/exchange"};
  return v;
}

const std::vector<std::string>& mem_phases() {
  static const std::vector<std::string> v = [] {
    std::vector<std::string> p = comm_phases();
    p.insert(p.begin() + 1, "balance/local");
    p.insert(p.begin() + 5, "balance/rebalance");
    p.push_back("churn/local");
    return p;
  }();
  return v;
}

std::string dotted(std::string s) {
  std::replace(s.begin(), s.end(), '/', '.');
  return s;
}

/// Per-step mean of \p field over the records.
double mean_of(const std::vector<StepRecord>& recs,
               const std::function<double(const StepRecord&)>& field) {
  double s = 0;
  for (const StepRecord& r : recs) s += field(r);
  return recs.empty() ? 0.0 : s / static_cast<double>(recs.size());
}

/// Accounted peak bytes of the memory snapshot per balanced leaf.
double peak_per_leaf(const StepRecord& r) {
  return ratio(static_cast<double>(r.mem.peak_bytes),
               static_cast<double>(r.leaves));
}

/// Per-layer metrics of one traced unit (static: the median step; churn:
/// per-step means over the episode) plus the passes around it.
struct TraceInputs {
  bool churn = false;
  std::vector<std::vector<StepRecord>> traced;  ///< traced units at 4 threads
  std::vector<StepRecord> one_thread;           ///< 1-thread pass
  double untraced_step_s = 0;
  double traced_step_s = 0;
  double sort_s = 0;
  double linearize_s = 0;
};

std::vector<Metric> per_layer_metrics(const TraceInputs& in) {
  std::vector<StepRecord> recs;
  for (const auto& u : in.traced) recs.insert(recs.end(), u.begin(), u.end());
  const auto m = [&](const std::function<double(const StepRecord&)>& f) {
    return mean_of(recs, f);
  };
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> out;
  const auto add = [&](std::string name, double v, const char* unit) {
    out.push_back({std::move(name), v, unit});
  };

  // forest — balance phases (front_churn: the full balance of the copy).
  add("forest.balance.local_s", m([](auto& r) { return r.bal.t_local_balance; }), "s");
  add("forest.balance.notify_s", m([](auto& r) { return r.bal.t_notify; }), "s");
  add("forest.balance.query_response_s",
      m([](auto& r) { return r.bal.t_query_response; }), "s");
  add("forest.balance.rebalance_s",
      m([](auto& r) { return r.bal.t_local_rebalance; }), "s");
  add("forest.balance.barrier_s", m([](auto& r) { return r.bal.t_barrier; }), "s");
  add("forest.balance.queries_sent",
      m([&](auto& r) { return u64(r.bal.queries_sent); }), "count");
  add("forest.balance.response_items",
      m([&](auto& r) { return u64(r.bal.response_items); }), "count");
  add("forest.balance.owner_hit_frac",
      ratio(m([&](auto& r) { return u64(r.bal.owner_scan.cache_hits); }),
            m([&](auto& r) { return u64(r.bal.owner_scan.lookups); })),
      "ratio");
  // forest — delta balance (front_churn only; 0 elsewhere).
  const bool churn = in.churn;
  add("forest.delta_s", churn ? m([](auto& r) { return r.t_balance; }) : 0.0, "s");
  add("forest.delta.full_s", m([](auto& r) { return r.t_full; }), "s");
  add("forest.delta.rounds", m([](auto& r) { return double(r.delta.rounds); }),
      "count");
  add("forest.delta.region_octants",
      m([&](auto& r) { return u64(r.delta.region_octants); }), "count");
  add("forest.delta.constraints_sent",
      m([&](auto& r) { return u64(r.delta.constraints_sent); }), "count");
  add("forest.delta.created_frac",
      ratio(m([&](auto& r) { return u64(r.delta.octants_created); }),
            m([&](auto& r) { return u64(r.delta.region_octants); })),
      "ratio");
  add("forest.repartition_s", m([](auto& r) { return r.t_repartition; }), "s");
  add("forest.repartition.octants_moved",
      m([&](auto& r) { return u64(r.rep.octants_moved); }), "count");
  add("forest.ghost_s", m([](auto& r) { return r.t_ghost; }), "s");
  add("forest.ghost.entries", m([&](auto& r) { return u64(r.ghost_entries); }),
      "count");
  add("forest.nodes_s", m([](auto& r) { return r.t_nodes; }), "s");
  add("forest.nodes.shared_nodes",
      m([&](auto& r) { return u64(r.shared_nodes); }), "count");
  add("forest.refine_s", m([](auto& r) { return r.t_refine; }), "s");
  add("forest.coarsen_s", m([](auto& r) { return r.t_coarsen; }), "s");

  // core
  add("core.sort_s", in.sort_s, "s");
  add("core.linearize_s", in.linearize_s, "s");
  add("core.hash_probes_per_query",
      ratio(m([&](auto& r) { return u64(r.bal.subtree.hash_probes); }),
            m([&](auto& r) { return u64(r.bal.subtree.hash_queries); })),
      "ratio");
  add("core.sorted_octants",
      m([&](auto& r) { return u64(r.bal.subtree.sorted_octants); }), "count");

  // comm
  const auto phase_sum = [&](const std::function<double(const SimComm::PhaseCost&)>& f) {
    return m([&](const StepRecord& r) {
      double s = 0;
      for (const auto& p : r.phases) s += f(p);
      return s;
    });
  };
  add("comm.msgs_per_step", m([&](auto& r) { return u64(r.comm.messages); }),
      "count");
  add("comm.bytes_per_step", m([&](auto& r) { return u64(r.comm.bytes); }), "B");
  add("comm.rounds_per_step", phase_sum([&](auto& p) { return u64(p.rounds); }),
      "count");
  add("comm.collectives_per_step",
      phase_sum([&](auto& p) { return u64(p.collectives); }), "count");
  std::set<std::string> unnamed;  // phases a library change added
  for (const StepRecord& r : recs) {
    for (const auto& p : r.phases) {
      if (std::find(comm_phases().begin(), comm_phases().end(), p.name) ==
          comm_phases().end()) {
        unnamed.insert(p.name);
      }
    }
  }
  for (const std::string& ph : unnamed) {
    std::fprintf(stderr, "warning: comm phase %s has no metric\n", ph.c_str());
  }
  for (const std::string& ph : comm_phases()) {
    add("comm.model." + dotted(ph) + "_s", phase_sum([&](auto& p) {
          return p.name == ph ? p.time : 0.0;
        }),
        "s");
  }
  add("comm.slack_s", phase_sum([](auto& p) { return p.slack; }), "s");

  // obs — per-phase accounted peaks: the largest over the traced steps.
  for (const std::string& ph : mem_phases()) {
    double peak = 0;
    for (const StepRecord& r : recs) {
      for (const auto& pp : r.mem.phases) {
        if (pp.phase != ph) continue;
        std::uint64_t s = pp.engine;
        for (std::uint64_t b : pp.per_rank) s += b;
        peak = std::max(peak, static_cast<double>(s));
      }
    }
    add("obs.mem.peak." + dotted(ph) + "_bytes", peak, "B");
  }
  add("obs.trace_overhead_frac",
      ratio(in.traced_step_s, in.untraced_step_s) - 1.0, "ratio");

  // util/parallel — t(1 thread) / (4 · t(4 threads)) over the same steps:
  // every traced step of a static workload, the first steps of the traced
  // episode on front_churn.
  std::vector<StepRecord> same = recs;
  if (churn && !in.traced.empty()) {
    const auto& ep = in.traced.front();
    same.assign(ep.begin(),
                ep.begin() + std::min(in.one_thread.size(), ep.size()));
  }
  const auto eff = [&](const std::function<double(const StepRecord&)>& f) {
    return ratio(mean_of(in.one_thread, f), kThreads * mean_of(same, f));
  };
  const auto bal = [&](const StepRecord& r) {
    return churn ? r.t_full : r.t_balance;
  };
  add("par.eff.balance", eff(bal), "ratio");
  add("par.eff.delta",
      churn ? eff([](auto& r) { return r.t_balance; }) : 0.0, "ratio");
  add("par.eff.repartition", eff([](auto& r) { return r.t_repartition; }),
      "ratio");
  add("par.eff.ghost", eff([](auto& r) { return r.t_ghost; }), "ratio");
  add("par.eff.nodes", eff([](auto& r) { return r.t_nodes; }), "ratio");
  add("par.t1.balance_s",
      mean_of(in.one_thread, [](auto& r) { return r.t_balance; }), "s");
  return out;
}

/// core.sort_s / core.linearize_s: sort_octants and linearize on a fixed
/// shuffle (from the workload seed) of the balanced leaves' octants.
void time_core_kernels(const Forest<3>& g, std::uint64_t seed, Tracer& tr,
                       Checks& chk, TraceInputs& in) {
  std::vector<Octant<3>> octs;
  octs.reserve(g.global_num_octants());
  for (int r = 0; r < g.num_ranks(); ++r) {
    for (const auto& to : g.local(r)) octs.push_back(to.oct);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(octs.begin(), octs.end(), rng);
  std::vector<double> ts, tl;
  for (int i = 0; i < kKernelRepeats; ++i) {
    std::vector<Octant<3>> a = octs;
    ts.push_back(tr.time("core.sort_octants", [&] { sort_octants(a); }));
    const bool sorted = std::is_sorted(a.begin(), a.end());
    std::vector<Octant<3>> b = octs;
    tl.push_back(tr.time("core.linearize", [&] { linearize(b); }));
    if (i == 0) {
      chk.expect(sorted, "sort_octants output is sorted");
      chk.expect(is_linear(b), "linearize output is linear");
    }
  }
  in.sort_s = median(ts);
  in.linearize_s = median(tl);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2012;
  double seconds = 10;
  bool trace = false;
  int lmax = 0;  ///< 0 = the workload's own
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: octbal_perfbench --workload "
               "icesheet_p64|fractal_p256|front_churn --seed N --seconds S "
               "--trace 0|1 [--lmax L] [--trace-out spans.json]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--lmax") {
      a.lmax = std::atoi(v.c_str());
      if (a.lmax < 2 || a.lmax > 10) usage("--lmax must be in [2, 10]");
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  par::set_num_threads(kThreads);

  // Workload shapes; --lmax shrinks a workload for the smoke run.
  constexpr int kChurnSteps = 6;
  std::unique_ptr<Workload> w;
  if (args.workload == "icesheet_p64") {
    w = std::make_unique<StaticWorkload>(
        Shape{{6, 6, 1}, 1, args.lmax ? args.lmax : 7, 64}, false, args.seed);
  } else if (args.workload == "fractal_p256") {
    w = std::make_unique<StaticWorkload>(
        Shape{{3, 2, 1}, 1, args.lmax ? args.lmax : 7, 256}, true, args.seed);
  } else if (args.workload == "front_churn") {
    w = std::make_unique<ChurnWorkload>(
        Shape{{8, 8, 1}, 1, args.lmax ? args.lmax : 6, 64}, kChurnSteps,
        args.seed);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("=== %s  seed %llu  threads %d  trace %d ===\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), par::num_threads(),
              args.trace ? 1 : 0);

  Checks chk;
  Tracer tr;

  // Set-up: mesh generation, initial partition (and balance), then one
  // warm-up step, outside step_s, under a memory session for the peak.
  std::vector<double> setup_times;
  double peak_bpl = 0;
  Forest<3> balanced(Connectivity<3>::brick({1, 1, 1}), 1, 0);
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    const double t0 = now_s();
    const double checked0 = chk.seconds;
    w->generate();
    const std::vector<StepRecord> warm =
        w->run_unit(tr, /*account_memory=*/true, 1, chk, &balanced);
    // The warm-up's own checks ran inside the interval above; take them
    // out so setup_s times set-up alone.
    setup_times.push_back(now_s() - t0 - (chk.seconds - checked0));
    const double bpl = peak_per_leaf(warm.front());
    if (i > 0) chk.expect(bpl == peak_bpl, "accounted peak repeats");
    peak_bpl = bpl;
  }

  // Timed loop: whole units until the time is spent, at least min_units.
  const auto timed_loop = [&](double seconds, bool traced, int min_units) {
    tr.set_recording(traced);
    std::vector<std::vector<StepRecord>> units;
    const double t0 = now_s();
    while (static_cast<int>(units.size()) < min_units ||
           now_s() - t0 < seconds) {
      units.push_back(w->run_unit(tr, traced, w->unit_steps(), chk, nullptr));
      std::printf("unit %zu:", units.size());
      for (const StepRecord& r : units.back()) {
        std::printf(" %.3f/%.3f", r.t_step, r.t_balance);
      }
      std::printf("  (step_s/balance_s per step)\n");
    }
    tr.set_recording(false);
    return units;
  };
  const auto per_step = [](const std::vector<StepRecord>& u,
                           double StepRecord::*field) {
    double s = 0;
    for (const StepRecord& r : u) s += r.*field;
    return s / static_cast<double>(u.size());
  };
  const auto median_over = [&](const std::vector<std::vector<StepRecord>>& us,
                               double StepRecord::*field) {
    std::vector<double> v;
    for (const auto& u : us) v.push_back(per_step(u, field));
    return median(v);
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const auto units =
        timed_loop(args.seconds, false, w->unit_steps() > 1 ? 2 : 3);
    const double step_s = median_over(units, &StepRecord::t_step);
    const double balance_s = median_over(units, &StepRecord::t_balance);
    const double comm_s = median_over(units, &StepRecord::modeled);
    std::printf("units timed: %zu (%d step(s) each)\n", units.size(),
                w->unit_steps());
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"step_s", step_s, "s"},
        {"balance_s", balance_s, "s"},
        {"comm_model_s", comm_s, "s"},
        {"peak_bytes_per_leaf", peak_bpl, "B/leaf"},
        {"max_rss_mb", max_rss_mb(), "MB"},
    };
  } else {
    TraceInputs in;
    in.churn = w->unit_steps() > 1;
    in.untraced_step_s =
        median_over(timed_loop(args.seconds / 2, false, 1), &StepRecord::t_step);
    w->set_always_reference(true);
    in.traced = timed_loop(args.seconds / 2, true, 1);
    in.traced_step_s = median_over(in.traced, &StepRecord::t_step);
    // 1-thread pass over the first steps of a unit, then the core kernels.
    tr.set_recording(true);
    par::set_num_threads(1);
    in.one_thread = w->run_unit(tr, false, 3, chk, nullptr);
    par::set_num_threads(kThreads);
    time_core_kernels(balanced, args.seed, tr, chk, in);
    tr.set_recording(false);
    metrics = per_layer_metrics(in);
    if (!args.trace_out.empty() && !tr.write_chrome(args.trace_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.trace_out.c_str());
    }
  }
  std::printf("fail_frac %.9g ratio (%llu of %llu checks failed)\n",
              ratio(static_cast<double>(chk.failed),
                    static_cast<double>(chk.attempted)),
              static_cast<unsigned long long>(chk.failed),
              static_cast<unsigned long long>(chk.attempted));
  print_metrics(metrics, chk);
  return chk.failed == 0 ? 0 : 1;
}
