#include "ops/aggregate.h"

#include <cstring>
#include <functional>
#include <limits>

#include "ops/kernels.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/strings.h"

namespace datacell::ops {

namespace {

constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
// Hash of a NULL key cell; NULLs form one group per key position.
constexpr uint64_t kNullHash = 0x6A09E667F3BCC909ULL;

// One evaluated group-key column in the form the group table compares.
// Fixed-width types are 64-bit patterns: int64/timestamp as they are,
// doubles by bit pattern (so -0.0/+0.0 and distinct NaN payloads are
// distinct groups), bools as 0/1. Strings compare by value. A NULL cell
// equals only another NULL cell, whatever placeholder it holds.
struct KeyLane {
  const uint64_t* bits = nullptr;
  const std::string* strs = nullptr;
  const uint8_t* valid = nullptr;  // null: no NULLs in the column
  std::vector<uint64_t> widened;   // bit patterns of double/bool columns
};

void InitLane(const Column& c, KeyLane* lane) {
  const size_t n = c.size();
  lane->valid = c.raw_validity();
  switch (c.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      // uint64_t may alias int64_t (its unsigned counterpart).
      lane->bits = reinterpret_cast<const uint64_t*>(c.ints().data());
      break;
    case DataType::kDouble:
      lane->widened.resize(n);
      if (n > 0) {
        std::memcpy(lane->widened.data(), c.doubles().data(),
                    n * sizeof(double));
      }
      lane->bits = lane->widened.data();
      break;
    case DataType::kBool:
      lane->widened.assign(c.bools().begin(), c.bools().end());
      lane->bits = lane->widened.data();
      break;
    case DataType::kString:
      lane->strs = c.strings().data();
      break;
  }
}

bool CellsEqual(const KeyLane& l, uint32_t a, uint32_t b) {
  if (l.valid != nullptr) {
    const bool va = l.valid[a] != 0;
    if (va != (l.valid[b] != 0)) return false;
    if (!va) return true;
  }
  return l.bits != nullptr ? l.bits[a] == l.bits[b] : l.strs[a] == l.strs[b];
}

// Per-row hash over all key lanes: multiply-shift per fixed-width lane,
// std::hash (spread by the same multiplier) per string lane, combined
// lane by lane.
void HashKeys(const std::vector<KeyLane>& lanes, size_t n,
              std::vector<uint64_t>* out) {
  out->resize(n);
  std::vector<uint64_t> lane_hash(lanes.size() > 1 ? n : 0);
  for (size_t k = 0; k < lanes.size(); ++k) {
    const KeyLane& l = lanes[k];
    uint64_t* h = k == 0 ? out->data() : lane_hash.data();
    if (l.bits != nullptr) {
      simd::HashI64(reinterpret_cast<const int64_t*>(l.bits), n, h);
    } else {
      for (size_t i = 0; i < n; ++i) {
        h[i] = std::hash<std::string>{}(l.strs[i]) * simd::kHashMul;
      }
    }
    if (l.valid != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (l.valid[i] == 0) h[i] = kNullHash;
      }
    }
    if (k == 0) continue;
    uint64_t* acc = out->data();
    for (size_t i = 0; i < n; ++i) {
      acc[i] = ((acc[i] << 23) | (acc[i] >> 41)) ^ h[i];
    }
  }
}

// Open-addressing group table (linear probing on the hash's top bits).
// Group ids are dense and in first-seen order; `rep` is each group's first
// row, against which later rows are compared lane by lane.
void AssignGroups(const std::vector<KeyLane>& lanes, size_t n,
                  std::vector<uint32_t>* row_group,
                  std::vector<uint32_t>* rep) {
  std::vector<uint64_t> hash;
  HashKeys(lanes, n, &hash);
  std::vector<uint64_t> group_hash;
  // Sized for every row to be its own group at half load, up to 64k slots;
  // larger inputs grow the table as groups appear.
  unsigned bits = 6;
  while (bits < 16 && (size_t{1} << bits) < 2 * n) ++bits;
  std::vector<uint32_t> slots(size_t{1} << bits, kNoGroup);
  row_group->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t h = hash[i];
    const size_t mask = slots.size() - 1;
    size_t pos = h >> (64 - bits);
    uint32_t g;
    for (;;) {
      g = slots[pos];
      if (g == kNoGroup) {
        g = static_cast<uint32_t>(rep->size());
        slots[pos] = g;
        rep->push_back(i);
        group_hash.push_back(h);
        break;
      }
      if (group_hash[g] == h) {
        const uint32_t r = (*rep)[g];
        bool same = true;
        for (const KeyLane& l : lanes) {
          if (!CellsEqual(l, i, r)) {
            same = false;
            break;
          }
        }
        if (same) break;
      }
      pos = (pos + 1) & mask;
    }
    (*row_group)[i] = g;
    if (rep->size() * 2 > slots.size()) {
      ++bits;
      slots.assign(size_t{1} << bits, kNoGroup);
      const size_t grown_mask = slots.size() - 1;
      for (uint32_t j = 0; j < group_hash.size(); ++j) {
        size_t p = group_hash[j] >> (64 - bits);
        while (slots[p] != kNoGroup) p = (p + 1) & grown_mask;
        slots[p] = j;
      }
    }
  }
}

// Typed per-group accumulators of one aggregate. Which vectors are sized
// depends on the function and the argument's physical type.
struct Accumulator {
  std::vector<int64_t> count;  // rows (count(*)) or non-NULL arguments
  std::vector<uint64_t> isum;  // int64 sums, wrapping like the SIMD fold
  std::vector<double> dsum;    // double sums, added in row order
  std::vector<int64_t> iext;   // exact int64 min or max
  std::vector<double> dext;    // double min or max
  std::vector<uint32_t> ext_row;  // bool/string min or max: its row
};

// Folds one aggregate's argument into per-group accumulators, row by row.
// Min/max keep the incumbent unless the challenger is strictly better —
// the same rule as the SIMD folds, which settles -0.0/+0.0 ties and never
// lets a NaN in after the first value.
void FoldGrouped(AggFunc func, const Column& arg,
                 const std::vector<uint32_t>& row_group, Accumulator* acc) {
  const size_t n = row_group.size();
  const uint32_t* grp = row_group.data();
  const uint8_t* valid = arg.raw_validity();
  int64_t* count = acc->count.data();
  if (func == AggFunc::kCount) {
    for (size_t i = 0; i < n; ++i) {
      if (valid == nullptr || valid[i] != 0) ++count[grp[i]];
    }
    return;
  }
  const bool is_min = func == AggFunc::kMin;
  const bool is_sum = func == AggFunc::kSum || func == AggFunc::kAvg;
  switch (arg.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t* d = arg.ints().data();
      if (is_sum) {
        uint64_t* sum = acc->isum.data();
        for (size_t i = 0; i < n; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          ++count[grp[i]];
          sum[grp[i]] += static_cast<uint64_t>(d[i]);
        }
        return;
      }
      int64_t* ext = acc->iext.data();
      for (size_t i = 0; i < n; ++i) {
        if (valid != nullptr && valid[i] == 0) continue;
        const uint32_t g = grp[i];
        const int64_t v = d[i];
        if (count[g]++ == 0 || (is_min ? v < ext[g] : v > ext[g])) ext[g] = v;
      }
      return;
    }
    case DataType::kDouble: {
      const double* d = arg.doubles().data();
      if (is_sum) {
        double* sum = acc->dsum.data();
        for (size_t i = 0; i < n; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          ++count[grp[i]];
          sum[grp[i]] += d[i];
        }
        return;
      }
      double* ext = acc->dext.data();
      for (size_t i = 0; i < n; ++i) {
        if (valid != nullptr && valid[i] == 0) continue;
        const uint32_t g = grp[i];
        const double v = d[i];
        if (count[g]++ == 0 || (is_min ? v < ext[g] : v > ext[g])) ext[g] = v;
      }
      return;
    }
    case DataType::kBool:
    case DataType::kString: {
      // Remember the extreme's row; compare in the column's own type.
      const auto better = [&](uint32_t a, uint32_t b) {
        if (arg.type() == DataType::kBool) {
          return is_min ? arg.bools()[a] < arg.bools()[b]
                        : arg.bools()[a] > arg.bools()[b];
        }
        return is_min ? arg.strings()[a] < arg.strings()[b]
                      : arg.strings()[a] > arg.strings()[b];
      };
      uint32_t* ext = acc->ext_row.data();
      for (uint32_t i = 0; i < n; ++i) {
        if (valid != nullptr && valid[i] == 0) continue;
        const uint32_t g = grp[i];
        if (count[g]++ == 0 || better(i, ext[g])) ext[g] = i;
      }
      return;
    }
  }
}

// Global (ungrouped) numeric aggregates go through the columnar fold
// kernel: morsel-gridded SIMD count/sum/min/max with partials merged in
// morsel order (DESIGN.md §12).
void FoldGlobal(AggFunc func, const Column& arg, Accumulator* acc) {
  const simd::FoldState f = kern::FoldNumeric(arg);
  acc->count[0] = static_cast<int64_t>(f.count);
  const bool is_double = arg.type() == DataType::kDouble;
  if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    if (is_double) {
      acc->dsum[0] = f.dsum;
    } else {
      acc->isum[0] = f.isum;
    }
  } else if (f.seen && (func == AggFunc::kMin || func == AggFunc::kMax)) {
    if (is_double) {
      acc->dext[0] = func == AggFunc::kMin ? f.dmin : f.dmax;
    } else {
      acc->iext[0] = func == AggFunc::kMin ? f.imin : f.imax;
    }
  }
}

// Output type of an aggregate over an argument column type.
Result<DataType> AggOutputType(AggFunc func, DataType arg) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      if (!IsNumeric(arg)) return Status::TypeMismatch("sum on non-numeric");
      return arg == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
    case AggFunc::kAvg:
      if (!IsNumeric(arg)) return Status::TypeMismatch("avg on non-numeric");
      return DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg;
  }
  return Status::Internal("unreachable");
}

// Writes one aggregate's per-group results into the empty column `out`:
// the typed vector is filled in one pass, then groups without a non-NULL
// argument are marked NULL (their slots hold the AppendNull placeholder —
// every accumulator starts at zero).
void EmitResults(AggFunc func, const Column& arg, const Accumulator& acc,
                 Column* out) {
  const size_t groups = acc.count.size();
  const int64_t* count = acc.count.data();
  const bool is_double = arg.type() == DataType::kDouble;
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      out->ints() = acc.count;
      return;  // never NULL
    case AggFunc::kSum:
      if (is_double) {
        out->doubles() = acc.dsum;
      } else {
        out->ints().assign(acc.isum.begin(), acc.isum.end());
      }
      break;
    case AggFunc::kAvg: {
      // Int avg derives from the exact integer sum.
      std::vector<double>& avg = out->doubles();
      avg.resize(groups);
      for (size_t g = 0; g < groups; ++g) {
        if (count[g] == 0) continue;
        const double sum =
            is_double ? acc.dsum[g]
                      : static_cast<double>(static_cast<int64_t>(acc.isum[g]));
        avg[g] = sum / static_cast<double>(count[g]);
      }
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      switch (arg.type()) {
        case DataType::kInt64:
        case DataType::kTimestamp:
          out->ints() = acc.iext;
          break;
        case DataType::kDouble:
          out->doubles() = acc.dext;
          break;
        case DataType::kBool: {
          std::vector<uint8_t>& v = out->bools();
          v.resize(groups);
          for (size_t g = 0; g < groups; ++g) {
            if (count[g] > 0) v[g] = arg.bools()[acc.ext_row[g]];
          }
          break;
        }
        case DataType::kString: {
          std::vector<std::string>& v = out->strings();
          v.resize(groups);
          for (size_t g = 0; g < groups; ++g) {
            if (count[g] > 0) v[g] = arg.strings()[acc.ext_row[g]];
          }
          break;
        }
      }
      break;
  }
  for (size_t g = 0; g < groups; ++g) {
    if (count[g] == 0) out->SetNull(g);
  }
}

bool ValueLess(const Value& a, const Value& b) {
  if (a.is_string()) return a.string_value() < b.string_value();
  if (a.is_bool()) return a.bool_value() < b.bool_value();
  double x = a.is_int() ? static_cast<double>(a.int_value()) : a.double_value();
  double y = b.is_int() ? static_cast<double>(b.int_value()) : b.double_value();
  return x < y;
}

void MergeMinMax(const Value& v, Value* min, Value* max) {
  if (min->is_null() || ValueLess(v, *min)) *min = v;
  if (max->is_null() || ValueLess(*max, v)) *max = v;
}

void UpdateMinMax(const Column& col, uint32_t row, Value* min, Value* max) {
  MergeMinMax(col.GetValue(row), min, max);
}

}  // namespace

Result<AggFunc> AggFuncFromName(const std::string& name, bool star) {
  std::string n = ToLower(name);
  if (n == "count") return star ? AggFunc::kCountStar : AggFunc::kCount;
  if (star) return Status::ParseError("'*' argument only valid for count");
  if (n == "sum") return AggFunc::kSum;
  if (n == "avg") return AggFunc::kAvg;
  if (n == "min") return AggFunc::kMin;
  if (n == "max") return AggFunc::kMax;
  return Status::BindError("unknown aggregate function '" + name + "'");
}

Result<Table> Aggregate(const Table& table, const std::vector<GroupItem>& groups,
                        const std::vector<AggItem>& aggs,
                        const EvalContext& ctx) {
  const size_t n = table.num_rows();

  // Evaluate group keys and aggregate arguments once, vectorized.
  std::vector<Column> key_cols;
  key_cols.reserve(groups.size());
  for (const GroupItem& g : groups) {
    ASSIGN_OR_RETURN(Column c, EvalScalar(table, *g.expr, ctx));
    key_cols.push_back(std::move(c));
  }
  std::vector<Column> arg_cols;  // parallel to aggs; empty column for count(*)
  arg_cols.reserve(aggs.size());
  for (const AggItem& a : aggs) {
    if (a.func == AggFunc::kCountStar) {
      arg_cols.emplace_back(DataType::kInt64);
      continue;
    }
    ASSIGN_OR_RETURN(Column c, EvalScalar(table, *a.arg, ctx));
    if ((a.func == AggFunc::kSum || a.func == AggFunc::kAvg) &&
        !IsNumeric(c.type())) {
      return Status::TypeMismatch("aggregate '" + a.name +
                                  "' requires a numeric argument, got " +
                                  DataTypeName(c.type()));
    }
    arg_cols.push_back(std::move(c));
  }

  // Group id per input row; groups 0..k-1 in first-seen order, each with
  // its first row as representative. No group items: one global group.
  std::vector<uint32_t> row_group;
  std::vector<uint32_t> group_rep;
  size_t num_groups = 1;
  if (groups.empty()) {
    row_group.assign(n, 0);
  } else {
    std::vector<KeyLane> lanes(key_cols.size());
    for (size_t k = 0; k < key_cols.size(); ++k) {
      InitLane(key_cols[k], &lanes[k]);
    }
    AssignGroups(lanes, n, &row_group, &group_rep);
    num_groups = group_rep.size();
  }

  // Fold.
  std::vector<Accumulator> accs(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggFunc func = aggs[a].func;
    const Column& arg = arg_cols[a];
    Accumulator& acc = accs[a];
    acc.count.assign(num_groups, 0);
    if (func == AggFunc::kCountStar) {
      for (const uint32_t g : row_group) ++acc.count[g];
      continue;
    }
    const bool is_int = IsIntegerPhysical(arg.type());
    const bool is_double = arg.type() == DataType::kDouble;
    if (func == AggFunc::kSum || func == AggFunc::kAvg) {
      if (is_int) acc.isum.assign(num_groups, 0);
      if (is_double) acc.dsum.assign(num_groups, 0);
    }
    if (func == AggFunc::kMin || func == AggFunc::kMax) {
      if (is_int) acc.iext.assign(num_groups, 0);
      if (is_double) acc.dext.assign(num_groups, 0);
      if (!is_int && !is_double) acc.ext_row.assign(num_groups, 0);
    }
    if (groups.empty() && IsNumeric(arg.type())) {
      FoldGlobal(func, arg, &acc);
    } else {
      FoldGrouped(func, arg, row_group, &acc);
    }
  }

  // Assemble output schema: group columns then aggregate columns.
  Schema out_schema;
  for (size_t g = 0; g < groups.size(); ++g) {
    RETURN_NOT_OK(out_schema.AddField({groups[g].name, key_cols[g].type()}));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    DataType arg_t = aggs[a].func == AggFunc::kCountStar ? DataType::kInt64
                                                         : arg_cols[a].type();
    ASSIGN_OR_RETURN(DataType out_t, AggOutputType(aggs[a].func, arg_t));
    RETURN_NOT_OK(out_schema.AddField({aggs[a].name, out_t}));
  }
  Table out(out_schema);
  for (size_t k = 0; k < groups.size(); ++k) {
    RETURN_NOT_OK(out.column(k).AppendColumnRows(key_cols[k], group_rep));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    EmitResults(aggs[a].func, arg_cols[a], accs[a],
                &out.column(groups.size() + a));
  }
  return out;
}

Status RunningAggregate::Update(const Column& column) {
  const size_t n = column.size();
  if (func_ == AggFunc::kCountStar) {
    count_ += static_cast<int64_t>(n);
    return Status::OK();
  }
  // Numeric batches fold through the vectorized kernel; the running sum
  // absorbs one striped per-batch partial instead of n per-row adds
  // (DESIGN.md §12).
  if (IsNumeric(column.type())) {
    const simd::FoldState f = kern::FoldNumeric(column);
    count_ += static_cast<int64_t>(f.count);
    if (f.count == 0) return Status::OK();
    if (column.type() == DataType::kDouble) {
      if (func_ == AggFunc::kSum || func_ == AggFunc::kAvg) {
        sum_is_int_ = false;
        sum_ += f.dsum;
      } else if (func_ == AggFunc::kMin || func_ == AggFunc::kMax) {
        MergeMinMax(Value(f.dmin), &min_, &max_);
        MergeMinMax(Value(f.dmax), &min_, &max_);
      }
    } else {
      const int64_t batch = static_cast<int64_t>(f.isum);
      if (func_ == AggFunc::kSum || func_ == AggFunc::kAvg) {
        isum_ += batch;
        sum_ += static_cast<double>(batch);
      } else if (func_ == AggFunc::kMin || func_ == AggFunc::kMax) {
        MergeMinMax(Value(f.imin), &min_, &max_);
        MergeMinMax(Value(f.imax), &min_, &max_);
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    if (func_ == AggFunc::kCountStar) {
      ++count_;
      continue;
    }
    if (!column.IsValid(i)) continue;
    switch (func_) {
      case AggFunc::kCount:
        ++count_;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        ++count_;
        if (column.type() == DataType::kDouble) {
          sum_is_int_ = false;
          sum_ += column.doubles()[i];
        } else if (IsIntegerPhysical(column.type())) {
          isum_ += column.ints()[i];
          sum_ += static_cast<double>(column.ints()[i]);
        } else {
          return Status::TypeMismatch("sum/avg over non-numeric column");
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        ++count_;
        UpdateMinMax(column, static_cast<uint32_t>(i), &min_, &max_);
        break;
      case AggFunc::kCountStar:
        break;
    }
  }
  return Status::OK();
}

Value RunningAggregate::Current() const {
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value(count_);
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();
      return sum_is_int_ ? Value(isum_) : Value(sum_);
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null();
      return Value(sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
  }
  return Value::Null();
}

void RunningAggregate::Reset() {
  count_ = 0;
  sum_ = 0;
  isum_ = 0;
  sum_is_int_ = true;
  min_ = Value::Null();
  max_ = Value::Null();
}

}  // namespace datacell::ops
