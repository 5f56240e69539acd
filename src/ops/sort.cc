#include "ops/sort.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace datacell::ops {

namespace {

// One evaluated ORDER BY key as raw spans of its live rows (the span of
// the column's physical type), so comparisons index arrays directly.
struct KeyLane {
  DataType type;
  bool asc;
  const uint8_t* valid;  // null: no NULLs
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* bools = nullptr;
  const std::string* strings = nullptr;

  // Three-way compare of rows i, j, ascending; NULLs first.
  int Compare(uint32_t i, uint32_t j) const {
    if (valid != nullptr) {
      const bool vi = valid[i] != 0;
      const bool vj = valid[j] != 0;
      if (!vi || !vj) return static_cast<int>(vi) - static_cast<int>(vj);
    }
    switch (type) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        return ints[i] < ints[j] ? -1 : (ints[i] > ints[j] ? 1 : 0);
      case DataType::kDouble: {
        // NaN sorts after every number (and ties with NaN), which keeps
        // the order a strict weak ordering for both sort and top-n.
        const double a = doubles[i], b = doubles[j];
        if (a < b) return -1;
        if (a > b) return 1;
        return static_cast<int>(std::isnan(a)) -
               static_cast<int>(std::isnan(b));
      }
      case DataType::kBool:
        return static_cast<int>(bools[i]) - static_cast<int>(bools[j]);
      case DataType::kString:
        return strings[i].compare(strings[j]);
    }
    return 0;
  }
};

// The evaluated ORDER BY keys of one table.
struct KeyOrder {
  std::vector<Column> cols;  // owns the spans the lanes point into
  std::vector<KeyLane> lanes;

  // Three-way compare of rows a, b on the keys alone, directions applied.
  int Compare(uint32_t a, uint32_t b) const {
    for (const KeyLane& l : lanes) {
      const int cmp = l.Compare(a, b);
      if (cmp != 0) return (cmp < 0) == l.asc ? -1 : 1;
    }
    return 0;
  }
};

Result<KeyOrder> EvalKeys(const Table& table, const std::vector<SortKey>& keys,
                          const EvalContext& ctx) {
  KeyOrder order;
  order.cols.reserve(keys.size());
  for (const SortKey& k : keys) {
    ASSIGN_OR_RETURN(Column c, EvalScalar(table, *k.expr, ctx));
    order.cols.push_back(std::move(c));
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    const Column& c = order.cols[k];
    KeyLane lane{c.type(), keys[k].ascending, c.raw_validity()};
    switch (c.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        lane.ints = c.ints().data();
        break;
      case DataType::kDouble:
        lane.doubles = c.doubles().data();
        break;
      case DataType::kBool:
        lane.bools = c.bools().data();
        break;
      case DataType::kString:
        lane.strings = c.strings().data();
        break;
    }
    order.lanes.push_back(lane);
  }
  return order;
}

}  // namespace

Result<SelVector> SortIndices(const Table& table,
                              const std::vector<SortKey>& keys,
                              const EvalContext& ctx) {
  const size_t n = table.num_rows();
  SelVector perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  ASSIGN_OR_RETURN(KeyOrder order, EvalKeys(table, keys, ctx));
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return order.Compare(a, b) < 0;
  });
  return perm;
}

Result<Table> SortTable(const Table& table, const std::vector<SortKey>& keys,
                        const EvalContext& ctx) {
  ASSIGN_OR_RETURN(SelVector perm, SortIndices(table, keys, ctx));
  return table.Take(perm);
}

Result<SelVector> TopNIndices(const Table& table,
                              const std::vector<SortKey>& keys, size_t n,
                              const EvalContext& ctx) {
  const size_t rows = table.num_rows();
  const size_t k = std::min(n, rows);
  SelVector prefix(k);
  std::iota(prefix.begin(), prefix.end(), 0);
  // Without keys the window is the first n rows in arrival order.
  if (keys.empty() || k == 0) return prefix;
  ASSIGN_OR_RETURN(KeyOrder order, EvalKeys(table, keys, ctx));
  // Input already in (keys, arrival) order: the prefix is the answer.
  bool sorted = true;
  for (uint32_t i = 1; i < rows && sorted; ++i) sorted = order.Compare(i - 1, i) <= 0;
  if (sorted) return prefix;
  // Otherwise select on (keys, row index), a strict total order whose
  // first k elements are exactly the stable sort's first k.
  const auto less = [&](uint32_t a, uint32_t b) {
    const int cmp = order.Compare(a, b);
    return cmp != 0 ? cmp < 0 : a < b;
  };
  SelVector perm(rows);
  std::iota(perm.begin(), perm.end(), 0);
  const auto kth = perm.begin() + static_cast<std::ptrdiff_t>(k);
  if (k < rows) std::nth_element(perm.begin(), kth, perm.end(), less);
  std::sort(perm.begin(), kth, less);
  perm.resize(k);
  return perm;
}

}  // namespace datacell::ops
