#include "core/basket_expression.h"

#include <algorithm>
#include <numeric>

#include "expr/eval.h"
#include "util/logging.h"

namespace datacell::core {

Result<Table> BasketExpression::Evaluate(const EvalContext& ctx) const {
  // Snapshot the basket under its lock. The snapshot shares the basket's
  // column buffers copy-on-write, so it costs O(#columns), and it stays
  // immutable no matter what producers append afterwards. Policies that do
  // not erase *specific* rows can therefore release the lock before the
  // (possibly expensive) window evaluation:
  //   * kNone never mutates the basket;
  //   * kBatch consumes exactly the snapshot, so we Clear() up front (O(1);
  //     the snapshot keeps the rows) — except under `top n`, which must
  //     consume nothing when the window cannot be filled yet, so it keeps
  //     the lock like the row-targeted policies;
  //   * kMatched/kExpired erase rows by index into the snapshot, so the
  //     basket must not change between snapshot and erase: hold the lock.
  // The two branches keep the lock state balanced on every path, which is
  // what the thread-safety analysis can follow.
  const bool consume_upfront =
      consume_ == ConsumePolicy::kBatch && !top_n_.has_value();
  if (consume_ == ConsumePolicy::kNone || consume_upfront) {
    Table data;
    {
      BasketLock lock(source_.get());
      data = source_->Peek();
      if (consume_upfront) source_->Clear();
    }
    return EvaluateSnapshot(data, ctx);
  }
  BasketLock lock(source_.get());
  Table data = source_->Peek();
  return EvaluateSnapshot(data, ctx);
}

Result<Table> BasketExpression::EvaluateSnapshot(const Table& data,
                                                const EvalContext& ctx) const {
  const bool consume_upfront =
      consume_ == ConsumePolicy::kBatch && !top_n_.has_value();

  // 1. Window predicate. Without one the window is the whole snapshot,
  // which the later steps read in place instead of copying.
  SelVector window;
  Table filtered;
  if (predicate_ != nullptr) {
    ASSIGN_OR_RETURN(window, EvalPredicate(data, *predicate_, ctx));
    if (!order_by_.empty() || top_n_.has_value()) filtered = data.Take(window);
  }
  const Table& window_tab = predicate_ != nullptr ? filtered : data;
  // Snapshot row of window row l.
  const auto to_snapshot = [&](SelVector local) {
    if (predicate_ != nullptr) {
      for (uint32_t& l : local) l = window[l];
    }
    return local;
  };

  // 2. order by / top n over the window.
  SelVector selected;
  if (top_n_.has_value()) {
    // A `top n` window is exact: wait until it can be filled.
    if (window_tab.num_rows() < *top_n_) return Table(data.schema());
    ASSIGN_OR_RETURN(SelVector local,
                     ops::TopNIndices(window_tab, order_by_, *top_n_, ctx));
    selected = to_snapshot(std::move(local));
  } else if (!order_by_.empty()) {
    ASSIGN_OR_RETURN(SelVector local,
                     ops::SortIndices(window_tab, order_by_, ctx));
    selected = to_snapshot(std::move(local));
  } else if (predicate_ != nullptr) {
    selected = std::move(window);
  } else {
    selected.resize(data.num_rows());
    std::iota(selected.begin(), selected.end(), 0);
  }

  // 3. Materialize the result before mutating the basket: only the
  // selected rows, or the snapshot itself when every row is selected in
  // order.
  const bool whole = predicate_ == nullptr && order_by_.empty() &&
                     !top_n_.has_value();
  Table result = whole ? data : data.Take(selected);

  // 4. Consumption side effect (indices refer to the snapshot; for the
  // row-targeted policies the lock held by Evaluate since the snapshot
  // keeps them valid against the basket).
  switch (consume_) {
    case ConsumePolicy::kNone:
      break;
    case ConsumePolicy::kBatch:
      if (!consume_upfront) source_->Clear();
      break;
    case ConsumePolicy::kMatched: {
      SelVector to_erase = std::move(selected);
      if (!std::is_sorted(to_erase.begin(), to_erase.end())) {
        std::sort(to_erase.begin(), to_erase.end());
      }
      to_erase.erase(std::unique(to_erase.begin(), to_erase.end()),
                     to_erase.end());
      RETURN_NOT_OK(source_->EraseRows(to_erase));
      break;
    }
    case ConsumePolicy::kExpired: {
      if (expire_predicate_ == nullptr) {
        return Status::InvalidArgument(
            "kExpired consume policy requires an expire predicate");
      }
      ASSIGN_OR_RETURN(SelVector expired,
                       EvalPredicate(data, *expire_predicate_, ctx));
      RETURN_NOT_OK(source_->EraseRows(expired));
      break;
    }
  }
  return result;
}

}  // namespace datacell::core
