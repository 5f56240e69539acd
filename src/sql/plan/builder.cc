#include "sql/plan/builder.h"

#include <algorithm>
#include <utility>

#include "column/table.h"
#include "core/basket.h"
#include "obs/tables.h"
#include "sql/binder.h"
#include "sql/plan/rewrite.h"

namespace datacell::sql::plan {

namespace {

constexpr double kDefaultRows = 1000;

// The statement's SELECT body, or null for statements with no relational
// plan (CREATE, SET, ...). INSERT .. VALUES has no body either.
const SelectStmt* BodySelect(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return stmt.select.get();
    case Statement::Kind::kInsert:
      return stmt.insert ? stmt.insert->select.get() : nullptr;
    default:
      return nullptr;
  }
}

SelectStmt* MutableBodySelect(Statement& stmt) {
  return const_cast<SelectStmt*>(BodySelect(stmt));
}

std::vector<std::pair<std::string, std::string>> VisibleSelf(
    const Schema& schema) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) out.emplace_back(f.name, f.name);
  return out;
}

// The name column references bind to: the explicit alias, else the
// relation name (matches the executor's scoping).
std::string BindingName(const FromItem& item) {
  return item.alias.empty() ? item.relation : item.alias;
}

struct ClassifiedConjunct {
  ExprPtr original;    // as parsed (the leaf rewrite keeps these)
  ExprPtr normalized;  // resolved + canonically normalized
  std::string fp;
  bool shareable = false;
};

// Splits, resolves, normalizes and fingerprints a WHERE clause against a
// single-source scope. With a null schema the conjuncts are normalized but
// not resolved and never shareable (EXPLAIN of shapes outside the shared
// subset still renders stable fingerprints).
Result<std::vector<ClassifiedConjunct>> ClassifyConjuncts(
    const ExprPtr& where, const std::string& binding, const Schema* schema) {
  std::vector<ClassifiedConjunct> out;
  std::vector<ExprPtr> split;
  SplitConjuncts(where, &split);
  NameScope scope;
  if (schema != nullptr) scope.AddSource(binding, VisibleSelf(*schema));
  for (const ExprPtr& c : split) {
    ClassifiedConjunct cc;
    cc.original = c;
    ExprPtr resolved = c;
    if (schema != nullptr) {
      ASSIGN_OR_RETURN(resolved,
                       ResolveColumns(c, scope, /*allow_unresolved=*/true));
    }
    cc.normalized = NormalizePredicate(resolved);
    cc.fp = FingerprintHex(cc.normalized->ToString());
    if (schema != nullptr && IsStreamStatic(*cc.normalized)) {
      // Shareable only when the stage can evaluate it standalone: every
      // name resolves against the source schema and the result is boolean.
      Result<DataType> t = InferExprType(*schema, *cc.normalized);
      cc.shareable = t.ok() && *t == DataType::kBool;
    }
    out.push_back(std::move(cc));
  }
  return out;
}

std::vector<Conjunct> ToConjuncts(const std::vector<ClassifiedConjunct>& ccs,
                                  const CostModel& cost) {
  std::vector<Conjunct> out;
  out.reserve(ccs.size());
  for (const ClassifiedConjunct& cc : ccs) {
    Conjunct c;
    c.expr = cc.normalized;
    c.fp = cc.fp;
    c.est_sel = cost.EstimateSelectivity(*cc.normalized, cc.fp);
    c.shareable = cc.shareable;
    out.push_back(std::move(c));
  }
  return out;
}

double ApplySelectivity(double rows, const std::vector<Conjunct>& conjuncts) {
  for (const Conjunct& c : conjuncts) rows *= c.est_sel;
  return std::max(rows, 1.0);
}

std::string WindowDetail(const SelectStmt& inner) {
  std::string d;
  if (!inner.order_by.empty()) {
    d += "order by ";
    for (size_t i = 0; i < inner.order_by.size(); ++i) {
      if (i > 0) d += ", ";
      d += inner.order_by[i].expr->ToString();
      if (!inner.order_by[i].ascending) d += " desc";
    }
  }
  if (inner.top_n.has_value()) {
    if (!d.empty()) d += " ";
    d += "top " + std::to_string(*inner.top_n);
  }
  if (d.empty()) d = "pass-through";
  return d;
}

std::string ItemsDetail(const SelectStmt& stmt) {
  std::string d;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (i > 0) d += ", ";
    if (item.star) {
      d += item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*";
    } else {
      d += item.expr->ToString();
      if (!item.alias.empty()) d += " as " + item.alias;
    }
  }
  return d;
}

std::string AggregateDetail(const SelectStmt& stmt) {
  if (stmt.group_by.empty()) return "scalar";
  std::string d = "group by ";
  for (size_t i = 0; i < stmt.group_by.size(); ++i) {
    if (i > 0) d += ", ";
    d += stmt.group_by[i]->ToString();
  }
  return d;
}

bool HasAggregation(const SelectStmt& stmt) {
  if (!stmt.group_by.empty() || stmt.having != nullptr) return true;
  for (const SelectItem& item : stmt.items) {
    if (!item.star && item.expr != nullptr && ContainsAggregate(*item.expr)) {
      return true;
    }
  }
  return false;
}

double SourceEstimate(core::Engine* engine, const std::string& relation) {
  if (engine->HasBasket(relation)) {
    Result<core::BasketPtr> b = engine->GetBasket(relation);
    if (b.ok() && (*b)->size() > 0) return static_cast<double>((*b)->size());
    return kDefaultRows;
  }
  if (engine->catalog().HasTable(relation)) {
    Result<std::shared_ptr<Table>> t = engine->catalog().GetTable(relation);
    if (t.ok() && (*t)->num_rows() > 0) {
      return static_cast<double>((*t)->num_rows());
    }
  }
  return kDefaultRows;
}

// Finishes a plan over the materialized window: post-window filter,
// aggregation, projection (with outer order/limit folded into the detail).
PlanPtr FinishBody(const SelectStmt& body, PlanPtr p, double rows,
                   std::vector<Conjunct> post_filter) {
  if (!post_filter.empty()) {
    OrderBySelectivity(&post_filter);
    rows = ApplySelectivity(rows, post_filter);
    p = MakeFilter(std::move(p), std::move(post_filter), rows);
  }
  if (HasAggregation(body)) {
    rows = body.group_by.empty() ? 1.0 : std::max(1.0, rows * 0.1);
    p = MakeUnary(PlanNodeKind::kAggregate, std::move(p),
                  AggregateDetail(body), rows);
  }
  std::string detail = ItemsDetail(body);
  if (!body.order_by.empty() || body.top_n.has_value()) {
    if (body.top_n.has_value()) {
      rows = std::min(rows, static_cast<double>(*body.top_n));
    }
    detail += " (" + WindowDetail(body) + ")";
  }
  return MakeUnary(PlanNodeKind::kProject, std::move(p), detail, rows);
}

}  // namespace

Result<CompiledQuery> CompileContinuous(core::Engine* engine,
                                        const std::string& name,
                                        std::shared_ptr<Statement> stmt,
                                        const CostModel& cost) {
  const SelectStmt* body = BodySelect(*stmt);
  if (body == nullptr) {
    return Status::Unsupported("not a SELECT / INSERT .. SELECT statement");
  }
  if (!stmt->subqueries.empty()) {
    return Status::Unsupported("scalar subqueries are not plannable");
  }
  if (stmt->kind == Statement::Kind::kInsert) {
    const std::string& target = stmt->insert->target;
    // The legacy path auto-creates missing targets on first firing; the
    // shared path needs the schema up front, so defer to legacy.
    if (!engine->HasBasket(target) && !engine->catalog().HasTable(target)) {
      return Status::Unsupported("insert target does not exist yet: " +
                                 target);
    }
  }
  if (body->from.size() != 1 ||
      body->from[0].kind != FromItem::Kind::kBasketExpr ||
      body->from[0].basket_query == nullptr) {
    return Status::Unsupported(
        "plannable queries read exactly one basket expression");
  }
  const SelectStmt& inner = *body->from[0].basket_query;
  if (inner.from.size() != 1 ||
      inner.from[0].kind != FromItem::Kind::kRelation) {
    return Status::Unsupported("basket expression must name one basket");
  }
  const std::string& source = inner.from[0].relation;
  if (!engine->HasBasket(source)) {
    return Status::Unsupported("source is not a basket: " + source);
  }
  const bool plain_star = inner.items.size() == 1 && inner.items[0].star &&
                          inner.items[0].star_qualifier.empty();
  if (!plain_star || inner.distinct || !inner.group_by.empty() ||
      inner.having != nullptr) {
    return Status::Unsupported("basket expression must be a plain select *");
  }
  ASSIGN_OR_RETURN(core::BasketPtr basket, engine->GetBasket(source));
  const Schema& schema = basket->schema();

  CompiledQuery q;
  q.name = name;
  q.source_basket = source;
  q.stmt = std::move(stmt);
  q.window_trivial = !inner.top_n.has_value() && inner.order_by.empty();
  q.min_tuples = inner.top_n.value_or(1);

  ASSIGN_OR_RETURN(
      std::vector<ClassifiedConjunct> inner_cc,
      ClassifyConjuncts(inner.where, BindingName(inner.from[0]), &schema));
  // The outer scope sees the window under the basket expression's alias; a
  // plain-star window exposes the full source schema.
  ASSIGN_OR_RETURN(
      std::vector<ClassifiedConjunct> outer_cc,
      ClassifyConjuncts(body->where, body->from[0].alias, &schema));

  std::vector<Conjunct> pushed;
  std::vector<Conjunct> inner_residual;
  for (Conjunct& c : ToConjuncts(inner_cc, cost)) {
    (c.shareable ? pushed : inner_residual).push_back(std::move(c));
  }
  std::vector<Conjunct> outer_residual;
  for (Conjunct& c : ToConjuncts(outer_cc, cost)) {
    // Outer conjuncts may only cross a non-trivial window if it cannot
    // change their input set — i.e. never. With a trivial (pass-through)
    // window pushing them down is safe.
    if (q.window_trivial && c.shareable) {
      pushed.push_back(std::move(c));
    } else {
      outer_residual.push_back(std::move(c));
    }
  }
  q.shared = pushed;

  // Logical tree: scan -> filter(pushed + inner residual) -> window ->
  // filter(outer residual) -> [aggregate] -> project.
  double rows = SourceEstimate(engine, source);
  PlanPtr p = MakeScan(source, /*is_basket=*/true, rows);
  std::vector<Conjunct> pre = pushed;
  pre.insert(pre.end(), inner_residual.begin(), inner_residual.end());
  if (!pre.empty()) {
    OrderBySelectivity(&pre);
    rows = ApplySelectivity(rows, pre);
    p = MakeFilter(std::move(p), std::move(pre), rows);
  }
  if (!q.window_trivial) {
    if (inner.top_n.has_value()) {
      rows = std::min(rows, static_cast<double>(*inner.top_n));
    }
    p = MakeUnary(PlanNodeKind::kWindow, std::move(p), WindowDetail(inner),
                  rows);
  }
  q.plan = FinishBody(*body, std::move(p), rows, std::move(outer_residual));
  return q;
}

Result<std::shared_ptr<Statement>> MakeLeafStatement(
    core::Engine* engine, const CompiledQuery& q,
    const std::string& leaf_basket, const std::set<std::string>& strip_fps) {
  std::shared_ptr<Statement> clone = CloneStatement(*q.stmt);
  SelectStmt* body = MutableBodySelect(*clone);
  if (body == nullptr || body->from.size() != 1 ||
      body->from[0].basket_query == nullptr) {
    return Status::Internal("leaf rewrite on a non-plannable statement");
  }
  SelectStmt& inner = *body->from[0].basket_query;
  const std::string binding = BindingName(inner.from[0]);
  ASSIGN_OR_RETURN(core::BasketPtr basket, engine->GetBasket(q.source_basket));
  const Schema& schema = basket->schema();

  // Drop every conjunct an upstream shared stage already evaluated.
  // Fingerprints are recomputed through the same resolve+normalize path
  // CompileContinuous used, so they match exactly.
  auto strip = [&](const ExprPtr& where,
                   const std::string& scope_binding) -> Result<ExprPtr> {
    ASSIGN_OR_RETURN(std::vector<ClassifiedConjunct> ccs,
                     ClassifyConjuncts(where, scope_binding, &schema));
    std::vector<ExprPtr> keep;
    for (const ClassifiedConjunct& cc : ccs) {
      if (strip_fps.count(cc.fp) == 0) keep.push_back(cc.original);
    }
    return AndAll(keep);
  };
  ASSIGN_OR_RETURN(inner.where, strip(inner.where, binding));
  ASSIGN_OR_RETURN(body->where, strip(body->where, body->from[0].alias));

  // Redirect the consume to the shared leaf basket; keeping the original
  // binding name means every remaining column reference still resolves.
  inner.from[0].relation = leaf_basket;
  inner.from[0].alias = binding;
  return clone;
}

namespace {

void RedirectSelect(SelectStmt* stmt,
                    const std::map<std::string, std::string>& redirect,
                    bool inside_basket_expr) {
  for (FromItem& f : stmt->from) {
    if (f.kind == FromItem::Kind::kBasketExpr && f.basket_query != nullptr) {
      RedirectSelect(f.basket_query.get(), redirect, true);
      continue;
    }
    if (!inside_basket_expr || f.kind != FromItem::Kind::kRelation) continue;
    auto it = redirect.find(f.relation);
    if (it == redirect.end()) continue;
    f.alias = BindingName(f);
    f.relation = it->second;
  }
}

void RedirectStatement(Statement* stmt,
                       const std::map<std::string, std::string>& redirect) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect:
      RedirectSelect(stmt->select.get(), redirect, false);
      break;
    case Statement::Kind::kInsert:
      if (stmt->insert->select != nullptr) {
        RedirectSelect(stmt->insert->select.get(), redirect, false);
      }
      break;
    case Statement::Kind::kWithBlock:
      if (stmt->with_block->basket_query != nullptr) {
        RedirectSelect(stmt->with_block->basket_query.get(), redirect, true);
      }
      for (StatementPtr& body : stmt->with_block->body) {
        RedirectStatement(body.get(), redirect);
      }
      break;
    default:
      break;
  }
  for (auto& sub : stmt->subqueries) {
    if (sub != nullptr) RedirectSelect(sub.get(), redirect, false);
  }
}

}  // namespace

std::shared_ptr<Statement> RedirectConsumedBaskets(
    const Statement& stmt, const std::map<std::string, std::string>& redirect) {
  std::shared_ptr<Statement> clone = CloneStatement(stmt);
  RedirectStatement(clone.get(), redirect);
  return clone;
}

Result<PlanPtr> BuildLogicalPlan(core::Engine* engine, const Statement& stmt,
                                 const CostModel& cost) {
  const SelectStmt* body = BodySelect(stmt);
  if (body == nullptr) {
    return Status::Unsupported(
        "EXPLAIN supports SELECT and INSERT .. SELECT statements");
  }
  if (body->from.empty()) {
    return MakeUnary(PlanNodeKind::kProject, MakeScan("dual", false, 1),
                     ItemsDetail(*body), 1);
  }
  if (body->from.size() > 2) {
    return Status::Unsupported("more than two FROM sources");
  }

  // One plan per source. Predicates here are normalized + fingerprinted
  // but not resolved or pushed — this path only renders structure.
  auto source_plan = [&](const FromItem& item) -> Result<PlanPtr> {
    if (item.kind == FromItem::Kind::kRelation) {
      const bool basket = engine->HasBasket(item.relation);
      return MakeScan(item.relation, basket,
                      obs::IsVirtualTable(item.relation)
                          ? 100
                          : SourceEstimate(engine, item.relation));
    }
    const SelectStmt& inner = *item.basket_query;
    if (inner.from.size() != 1 ||
        inner.from[0].kind != FromItem::Kind::kRelation) {
      return Status::Unsupported("nested basket expression shape");
    }
    double rows = SourceEstimate(engine, inner.from[0].relation);
    PlanPtr p = MakeScan(inner.from[0].relation, /*is_basket=*/true, rows);
    ASSIGN_OR_RETURN(
        std::vector<ClassifiedConjunct> ccs,
        ClassifyConjuncts(inner.where, BindingName(inner.from[0]), nullptr));
    if (!ccs.empty()) {
      std::vector<Conjunct> conjuncts = ToConjuncts(ccs, cost);
      OrderBySelectivity(&conjuncts);
      rows = ApplySelectivity(rows, conjuncts);
      p = MakeFilter(std::move(p), std::move(conjuncts), rows);
    }
    if (inner.top_n.has_value() || !inner.order_by.empty()) {
      if (inner.top_n.has_value()) {
        rows = std::min(rows, static_cast<double>(*inner.top_n));
      }
      p = MakeUnary(PlanNodeKind::kWindow, std::move(p), WindowDetail(inner),
                    rows);
    }
    return p;
  };

  ASSIGN_OR_RETURN(PlanPtr left, source_plan(body->from[0]));
  double rows = left->est_rows;
  PlanPtr p = left;
  std::vector<Conjunct> post;
  if (body->from.size() == 2) {
    ASSIGN_OR_RETURN(PlanPtr right, source_plan(body->from[1]));
    rows = std::max(1.0, rows * right->est_rows * 0.01);
    const std::string detail =
        body->where != nullptr ? body->where->ToString() : "cross";
    p = MakeJoin(std::move(p), std::move(right), detail, rows);
  } else if (body->where != nullptr) {
    ASSIGN_OR_RETURN(std::vector<ClassifiedConjunct> ccs,
                     ClassifyConjuncts(body->where, body->from[0].alias,
                                       nullptr));
    post = ToConjuncts(ccs, cost);
  }
  return FinishBody(*body, std::move(p), rows, std::move(post));
}

}  // namespace datacell::sql::plan
