#ifndef DATACELL_SQL_PLAN_OPTIMIZER_H_
#define DATACELL_SQL_PLAN_OPTIMIZER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "sql/ast.h"
#include "sql/plan/builder.h"
#include "sql/plan/cost.h"
#include "util/status.h"

/// The multi-query optimizer: owns the standing-query set and compiles it
/// into a shared Petri net. Queries whose shape the plan compiler accepts
/// are decomposed into
///
///   source basket -> shared filter stages (a trie of normalized conjunct
///   fingerprints, common prefixes factored into one factory chain) ->
///   per-query leaf basket -> leaf factory (the original statement with the
///   shared conjuncts stripped and FROM redirected to the leaf).
///
/// Everything else — and everything while sharing is disabled, the default
/// — runs "direct": the exact legacy one-factory-per-query wiring, built by
/// the injected factory builder. Direct mode is byte-for-byte the seed
/// behavior (including competing consumption when several queries read one
/// basket); shared mode replicates qualifying tuples so every query sees
/// the full stream, which is the semantics the sharing ablation measures.
/// A direct query that consumes a basket with a subnet is attached to the
/// subnet's root through its own replica basket, whichever of the two was
/// registered first, so it too sees the full stream.
///
/// Thread-model: registration, removal and re-optimization happen on one
/// driver thread (the same discipline as sql::Session); the built net is
/// what scheduler workers execute. Rebuilds unregister the subnet's
/// transitions (the scheduler waits out in-flight firings), drain in-flight
/// tuples deepest-stage-first into the leaf baskets — applying each
/// query's not-yet-evaluated conjuncts — and only then wire the new net,
/// so no tuple is lost, duplicated or reordered across a rebuild.
namespace datacell::sql::plan {

class QuerySetOptimizer {
 public:
  /// Builds (without registering) a factory that executes a statement each
  /// firing — injected by the session so this layer needs no executor
  /// dependency.
  using FactoryBuilder = std::function<Result<core::FactoryPtr>(
      const std::string& name, std::shared_ptr<Statement> stmt,
      core::Emitter::Sink sink)>;

  QuerySetOptimizer(core::Engine* engine, FactoryBuilder builder);

  /// Sharing is opt-in per session: off (default) keeps every query on the
  /// legacy direct path.
  void set_sharing_enabled(bool on) { sharing_enabled_ = on; }
  bool sharing_enabled() const { return sharing_enabled_; }

  /// With factoring off (but sharing on) the shared net still replicates
  /// the stream to per-query leaf baskets but factors nothing — every leaf
  /// evaluates its full predicate. The sharing ablation's baseline: same
  /// delivery semantics, none of the shared work.
  void set_factoring_enabled(bool on) { factoring_enabled_ = on; }
  bool factoring_enabled() const { return factoring_enabled_; }

  /// Registers a continuous query. Returns the transition that carries the
  /// query's name: the direct factory, or the leaf factory of its shared
  /// subnet. kAlreadyExists if the name is taken.
  Result<core::FactoryPtr> AddQuery(const std::string& name,
                                    std::shared_ptr<Statement> stmt,
                                    core::Emitter::Sink sink);

  /// Unregisters one query. In a shared subnet the remaining queries'
  /// stage trie is rebuilt (with the in-flight drain protocol), so their
  /// result streams are unaffected.
  Status RemoveQuery(const std::string& name);

  bool HasQuery(const std::string& name) const {
    return queries_.count(name) > 0;
  }
  size_t num_queries() const { return queries_.size(); }

  /// Feeds observed per-conjunct selectivities into the cost model and
  /// rebuilds every subnet whose as-built estimates have drifted past
  /// CostModel::kDriftRatio. Returns the number of subnets rebuilt.
  Result<size_t> Reoptimize();

  /// Standing queries on `basket` sharing conjunct `fp` (EXPLAIN's
  /// shared_by annotation).
  size_t SharedCount(const std::string& basket, const std::string& fp) const;

  /// High-water mark of rows resident in optimizer-owned baskets (stage +
  /// leaf): the sharing ablation's memory metric.
  uint64_t PeakResidentRows() const;

  const CostModel& cost() const { return cost_; }

 private:
  struct ConjunctCounters {
    std::atomic<uint64_t> rows_in{0};
    std::atomic<uint64_t> rows_out{0};
  };

  struct QueryInfo {
    CompiledQuery cq;  // meaningful only when !direct
    std::shared_ptr<Statement> stmt;
    core::Emitter::Sink sink;
    bool direct = true;
    core::FactoryPtr factory;  // direct factory or current leaf factory
    core::BasketPtr leaf;      // shared mode: engine basket "mqo.q.<name>"
    /// Direct queries: the baskets the statement consumes, and for each of
    /// those with a subnet the query's own replica ("mqo.r.<basket>.<name>"),
    /// fed by the subnet's root so the query sees every tuple instead of
    /// competing with the subnet for them.
    std::set<std::string> consumed;
    std::map<std::string, core::BasketPtr> replicas;
  };

  /// One shared filter stage: a factory that drains `in`, evaluates
  /// `conjuncts` in order and replicates survivors to the child stages'
  /// baskets and the attached queries' leaf baskets.
  struct Stage {
    std::string name;
    core::BasketPtr in;  // source basket for the root, own basket otherwise
    std::vector<Conjunct> conjuncts;
    /// Conjunct fps evaluated upstream of `in` (excludes this stage's own).
    std::set<std::string> cum_before;
    std::vector<std::string> attached;     // queries fed from this stage
    std::vector<std::string> descendants;  // queries fed from here or below
    std::vector<size_t> children;          // child stage indices
    core::FactoryPtr factory;
  };

  struct Subnet {
    std::vector<Stage> stages;  // index 0 = root; parents precede children
  };

  Status AddDirect(const std::string& name, QueryInfo info);
  /// True if `q` reads `basket` through the basket's subnet when it has one.
  static bool IsMember(const QueryInfo& q, const std::string& basket);
  /// The basket a member query is fed through in `basket`'s subnet.
  static const core::BasketPtr& FeedOf(const QueryInfo& q,
                                       const std::string& basket);
  Status AddShared(const std::string& name, QueryInfo info);

  /// Tears down `basket`'s current subnet (unregister + drain), rebuilds
  /// the stage trie from the standing shared queries and registers the new
  /// transitions. The only mutation path for subnets_.
  Status RebuildSubnet(const std::string& basket);
  Status DrainSubnet(const std::string& basket, Subnet* old);
  Status BuildStages(const std::string& basket,
                     const std::vector<std::string>& members, Subnet* out);
  core::Factory::Body StageBody(const Stage& stage,
                                std::vector<core::BasketPtr> outs);
  void PublishPlans(const std::string& basket, const Subnet& net);

  ConjunctCounters* CountersFor(const std::string& fp);

  core::Engine* engine_;
  FactoryBuilder build_factory_;
  bool sharing_enabled_ = false;
  bool factoring_enabled_ = true;
  CostModel cost_;

  std::map<std::string, QueryInfo> queries_;
  std::map<std::string, Subnet> subnets_;  // by source basket
  /// Once a basket's subnet has gone shared it never reverts to direct —
  /// reverting would change delivery semantics mid-stream.
  std::set<std::string> ever_shared_;
  /// Live per-conjunct selectivity feed (stable addresses; stage bodies
  /// keep raw pointers). Keyed by conjunct fingerprint.
  std::map<std::string, std::unique_ptr<ConjunctCounters>> counters_;
  /// All stage baskets ever created, for PeakResidentRows (peaks must
  /// survive rebuilds conceptually; retired baskets drop out once drained,
  /// their peak folded into peak_retired_).
  uint64_t peak_retired_ = 0;
};

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_OPTIMIZER_H_
