#ifndef DATACELL_SQL_PLAN_BUILDER_H_
#define DATACELL_SQL_PLAN_BUILDER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/ast.h"
#include "sql/plan/cost.h"
#include "sql/plan/plan.h"
#include "util/status.h"

/// Compiles a parsed continuous statement into the plan layer's view of
/// it: the source basket, the normalized conjunct set with shareability
/// classification, the window threshold, and the logical plan tree. The
/// compiler is deliberately strict — any shape it cannot prove safe to
/// share (multi-source merges, WITH blocks, scalar subqueries, inner
/// projections, missing INSERT targets) returns kUnsupported and the
/// session falls back to the legacy one-factory-per-query path, which
/// handles everything.
namespace datacell::sql::plan {

struct CompiledQuery {
  std::string name;
  std::string source_basket;
  /// The original statement, untouched (the leaf rewrite clones it).
  std::shared_ptr<Statement> stmt;
  /// Shareable conjuncts (inner WHERE always; outer WHERE only when the
  /// window is trivial). Unordered — the optimizer orders them per rebuild
  /// by (sharing count, estimated selectivity).
  std::vector<Conjunct> shared;
  /// Petri-net firing threshold of the source/leaf basket (top_n or 1).
  size_t min_tuples = 1;
  /// Inner window has no ORDER BY / TOP — outer conjuncts may push past it.
  bool window_trivial = true;
  /// Logical plan tree (EXPLAIN / dc_plans rendering).
  PlanPtr plan;
};

/// Compiles `stmt` for multi-query optimization. Returns kUnsupported for
/// any statement shape outside the shareable subset (callers fall back to
/// the legacy factory path — never an error surfaced to users).
Result<CompiledQuery> CompileContinuous(core::Engine* engine,
                                        const std::string& name,
                                        std::shared_ptr<Statement> stmt,
                                        const CostModel& cost);

/// Builds the statement the leaf factory of a shared subnet executes: a
/// clone of the original with the inner FROM redirected to `leaf_basket`
/// (binding name preserved, so every column reference still resolves) and
/// every conjunct whose fingerprint is in `strip_fps` removed from the
/// inner and outer WHERE — those are evaluated upstream by shared stages.
Result<std::shared_ptr<Statement>> MakeLeafStatement(
    core::Engine* engine, const CompiledQuery& q,
    const std::string& leaf_basket, const std::set<std::string>& strip_fps);

/// A clone of `stmt` whose basket expressions consume `redirect[b]`
/// instead of each basket b named in `redirect` (binding names preserved).
/// The optimizer uses it to feed a query it cannot compile from its own
/// replica of a shared basket.
std::shared_ptr<Statement> RedirectConsumedBaskets(
    const Statement& stmt, const std::map<std::string, std::string>& redirect);

/// Structural logical plan for EXPLAIN of statements outside the
/// CompileContinuous subset (one-time queries, two-basket merges). Only
/// SELECT / INSERT..SELECT bodies are plannable; everything else is
/// kUnsupported.
Result<PlanPtr> BuildLogicalPlan(core::Engine* engine, const Statement& stmt,
                                 const CostModel& cost);

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_BUILDER_H_
