#include "column/column.h"

#include <iterator>

#include "util/logging.h"
#include "util/simd.h"

namespace datacell {

namespace {

bool PhysicalIsInt(DataType t) {
  return t == DataType::kInt64 || t == DataType::kTimestamp;
}

// A consumed prefix shorter than this is never worth compacting: the copy
// would cost more than the memory it reclaims.
constexpr size_t kCompactMinRows = 256;

template <typename It>
It At(It begin, size_t offset) {
  return begin + static_cast<typename std::iterator_traits<It>::difference_type>(
                     offset);
}

}  // namespace

Column::Column(DataType type) : type_(type) { ResetBuffers(); }

void Column::ResetBuffers() {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      data_ = std::make_shared<std::vector<int64_t>>();
      break;
    case DataType::kDouble:
      data_ = std::make_shared<std::vector<double>>();
      break;
    case DataType::kBool:
      data_ = std::make_shared<std::vector<uint8_t>>();
      break;
    case DataType::kString:
      data_ = std::make_shared<std::vector<std::string>>();
      break;
  }
  valid_.reset();
  head_ = 0;
}

size_t Column::PhysicalSize() const {
  return std::visit([](const auto& b) { return b->size(); }, data_);
}

bool Column::Shared() const {
  if (valid_ != nullptr && valid_.use_count() > 1) return true;
  const bool shared =
      std::visit([](const auto& b) { return b.use_count() > 1; }, data_);
  if (!shared) {
    // use_count() is a relaxed load. Observing 1 may mean a snapshot on
    // another thread released its reference moments ago; callers take
    // "not shared" as licence to mutate the buffer in place, so those
    // writes must be ordered after that reader's final buffer reads.
    // Take the acquire edge through the refcount itself: copy/destroy of
    // the owner runs acq_rel RMWs on the count, which synchronize with
    // the release half of the snapshot destructor's decrement. (A bare
    // std::atomic_thread_fence(acquire) would also be correct, but TSan
    // does not model fences, so the RMW form keeps sanitizer runs clean.)
    std::visit([](const auto& b) { auto pin = b; }, data_);
    if (valid_ != nullptr) {
      auto pin = valid_;
    }
  }
  return shared;
}

bool Column::SharesStorageWith(const Column& other) const {
  return std::visit(
      [&](const auto& buf) {
        using P = std::decay_t<decltype(buf)>;
        const P* o = std::get_if<P>(&other.data_);
        return o != nullptr && buf.get() == o->get();
      },
      data_);
}

void Column::Detach(bool compact) {
  const bool shared = Shared();
  if (!shared && (!compact || head_ == 0)) return;
  std::visit(
      [&](auto& buf) {
        using Vec = typename std::decay_t<decltype(buf)>::element_type;
        if (shared) {
          // Copy only the live rows; the snapshot keeps the old buffer.
          buf = std::make_shared<Vec>(At(buf->begin(), head_), buf->end());
          if (valid_ != nullptr) {
            valid_ = std::make_shared<std::vector<uint8_t>>(
                At(valid_->begin(), head_), valid_->end());
          }
        } else {
          // Exclusive owner with a stale prefix: reclaim it in place.
          buf->erase(buf->begin(), At(buf->begin(), head_));
          if (valid_ != nullptr) {
            valid_->erase(valid_->begin(), At(valid_->begin(), head_));
          }
        }
        head_ = 0;
      },
      data_);
}

void Column::MaybeCompact() {
  if (head_ < kCompactMinRows || head_ * 2 < PhysicalSize()) return;
  if (Shared()) return;  // a snapshot pins the buffer; reclaim later
  Detach(/*compact=*/true);
}

void Column::EnsureValidity() {
  if (valid_ == nullptr) {
    valid_ = std::make_shared<std::vector<uint8_t>>(PhysicalSize(), 1);
  }
}

void Column::AppendInt(int64_t v) {
  DC_DCHECK(PhysicalIsInt(type_));
  Detach(false);
  std::get<BufPtr<int64_t>>(data_)->push_back(v);
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendDouble(double v) {
  DC_DCHECK(type_ == DataType::kDouble);
  Detach(false);
  std::get<BufPtr<double>>(data_)->push_back(v);
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendBool(bool v) {
  DC_DCHECK(type_ == DataType::kBool);
  Detach(false);
  std::get<BufPtr<uint8_t>>(data_)->push_back(v ? 1 : 0);
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendString(std::string v) {
  DC_DCHECK(type_ == DataType::kString);
  Detach(false);
  std::get<BufPtr<std::string>>(data_)->push_back(std::move(v));
  if (valid_ != nullptr) valid_->push_back(1);
}

void Column::AppendNull() {
  Detach(false);
  EnsureValidity();
  std::visit([](auto& b) { b->emplace_back(); }, data_);
  valid_->push_back(0);
}

template <typename T, typename It>
void Column::AppendBulk(It first, size_t n, const uint8_t* valid) {
  if (n == 0) return;
  Detach(false);
  if (valid != nullptr) EnsureValidity();  // before the rows grow
  std::vector<T>& buf = *std::get<BufPtr<T>>(data_);
  buf.insert(buf.end(), first, first + static_cast<std::ptrdiff_t>(n));
  if (valid != nullptr) {
    valid_->insert(valid_->end(), valid, valid + n);
  } else if (valid_ != nullptr) {
    valid_->insert(valid_->end(), n, 1);
  }
}

void Column::AppendInts(const int64_t* v, size_t n, const uint8_t* valid) {
  DC_DCHECK(PhysicalIsInt(type_));
  AppendBulk<int64_t>(v, n, valid);
}

void Column::AppendDoubles(const double* v, size_t n, const uint8_t* valid) {
  DC_DCHECK(type_ == DataType::kDouble);
  AppendBulk<double>(v, n, valid);
}

void Column::AppendBools(const uint8_t* v, size_t n, const uint8_t* valid) {
  DC_DCHECK(type_ == DataType::kBool);
  AppendBulk<uint8_t>(v, n, valid);
}

void Column::AppendStrings(std::string* v, size_t n, const uint8_t* valid) {
  DC_DCHECK(type_ == DataType::kString);
  AppendBulk<std::string>(std::make_move_iterator(v), n, valid);
}

void Column::SetNull(size_t i) {
  DC_DCHECK(i < size());
  Detach(/*compact=*/true);
  EnsureValidity();
  (*valid_)[i] = 0;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (!v.is_int()) break;
      AppendInt(v.int_value());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.double_value());
        return Status::OK();
      }
      if (v.is_int()) {
        AppendDouble(static_cast<double>(v.int_value()));
        return Status::OK();
      }
      break;
    case DataType::kBool:
      if (!v.is_bool()) break;
      AppendBool(v.bool_value());
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) break;
      AppendString(v.string_value());
      return Status::OK();
  }
  return Status::TypeMismatch("cannot append " + v.ToString() +
                              " to column of type " + DataTypeName(type_));
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::TypeMismatch(std::string("append type mismatch: ") +
                                DataTypeName(other.type_) + " vs " +
                                DataTypeName(type_));
  }
  if (other.empty()) return Status::OK();
  if (empty()) {
    // Adopt the source's buffers copy-on-write: O(1) whatever the size.
    // The first later mutation of either side detaches it.
    data_ = other.data_;
    valid_ = other.valid_;
    head_ = other.head_;
    return Status::OK();
  }
  Detach(false);
  if (other.has_nulls()) EnsureValidity();
  std::visit(
      [&](auto& dst) {
        using P = std::decay_t<decltype(dst)>;
        const auto& src = *std::get<P>(other.data_);
        dst->insert(dst->end(), At(src.begin(), other.head_), src.end());
      },
      data_);
  if (valid_ != nullptr) {
    if (other.has_nulls()) {
      valid_->insert(valid_->end(), At(other.valid_->begin(), other.head_),
                     other.valid_->end());
    } else {
      valid_->insert(valid_->end(), other.size(), 1);
    }
  }
  return Status::OK();
}

Status Column::AppendColumnRows(const Column& other, const SelVector& sel) {
  if (other.type_ != type_) {
    return Status::TypeMismatch(std::string("append type mismatch: ") +
                                DataTypeName(other.type_) + " vs " +
                                DataTypeName(type_));
  }
  Detach(false);
  if (other.has_nulls()) EnsureValidity();
  std::visit(
      [&](auto& dst) {
        using P = std::decay_t<decltype(dst)>;
        using T = typename P::element_type::value_type;
        const auto& src = *std::get<P>(other.data_);
        const size_t old = dst->size();
        if constexpr (std::is_same_v<T, int64_t> || std::is_same_v<T, double>) {
          // Vectorized gather for the numeric fast path (AVX2 i32gather
          // when available). Falls back to the element loop when source
          // and destination share a buffer: resize would invalidate the
          // raw source span.
          if (dst.get() != &src) {
            dst->resize(old + sel.size());
            if constexpr (std::is_same_v<T, int64_t>) {
              simd::GatherI64(src.data() + other.head_, sel.data(),
                              sel.size(), dst->data() + old);
            } else {
              simd::GatherF64(src.data() + other.head_, sel.data(),
                              sel.size(), dst->data() + old);
            }
            return;
          }
        }
        dst->reserve(old + sel.size());
        for (uint32_t r : sel) dst->push_back(src[other.head_ + r]);
      },
      data_);
  if (valid_ != nullptr) {
    if (other.has_nulls()) {
      for (uint32_t r : sel) {
        valid_->push_back((*other.valid_)[other.head_ + r]);
      }
    } else {
      valid_->insert(valid_->end(), sel.size(), 1);
    }
  }
  return Status::OK();
}

Value Column::GetValue(size_t i) const {
  DC_DCHECK(i < size());
  if (!IsValid(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return Value(ints()[i]);
    case DataType::kDouble:
      return Value(doubles()[i]);
    case DataType::kBool:
      return Value(bools()[i] != 0);
    case DataType::kString:
      return Value(strings()[i]);
  }
  return Value::Null();
}

Column Column::Take(const SelVector& sel) const {
  Column out(type_);
  Status st = out.AppendColumnRows(*this, sel);
  DC_DCHECK(st.ok());
  return out;
}

template <typename Vec>
void Column::EraseRowsIn(Vec& v, const SelVector& sorted_sel) {
  if (sorted_sel.empty()) return;
  // Single-pass shift: walk the survivors over the holes.
  size_t write = sorted_sel[0];
  size_t del_idx = 0;
  for (size_t read = sorted_sel[0]; read < v.size(); ++read) {
    if (del_idx < sorted_sel.size() && sorted_sel[del_idx] == read) {
      ++del_idx;
      continue;
    }
    v[write++] = std::move(v[read]);
  }
  v.resize(write);
}

template <typename Vec>
void Column::KeepRowsIn(Vec& v, const SelVector& sorted_sel) {
  size_t write = 0;
  for (uint32_t r : sorted_sel) {
    // Guard against self-move: for a kept prefix write == r, and
    // move-assigning a std::string onto itself may clear it.
    if (write != r) v[write] = std::move(v[r]);
    ++write;
  }
  v.resize(write);
}

void Column::EraseRows(const SelVector& sorted_sel) {
  if (sorted_sel.empty()) return;
  // An ascending unique selection whose maximum is k-1 is exactly the
  // prefix {0..k-1}: consume it by advancing the head instead of shifting.
  if (static_cast<size_t>(sorted_sel.back()) + 1 == sorted_sel.size()) {
    ErasePrefix(sorted_sel.size());
    return;
  }
  Detach(/*compact=*/true);
  std::visit([&](auto& b) { EraseRowsIn(*b, sorted_sel); }, data_);
  if (valid_ != nullptr) EraseRowsIn(*valid_, sorted_sel);
}

void Column::KeepRows(const SelVector& sorted_sel) {
  Detach(/*compact=*/true);
  std::visit([&](auto& b) { KeepRowsIn(*b, sorted_sel); }, data_);
  if (valid_ != nullptr) KeepRowsIn(*valid_, sorted_sel);
}

void Column::ErasePrefix(size_t n) {
  n = std::min(n, size());
  if (n == 0) return;
  head_ += n;
  if (head_ == PhysicalSize()) {
    // Everything consumed: drop our reference to the buffer entirely
    // (snapshots, if any, keep theirs).
    ResetBuffers();
    return;
  }
  MaybeCompact();
}

void Column::Clear() { ResetBuffers(); }

std::string Column::ValueToString(size_t i) const {
  return GetValue(i).ToString();
}

}  // namespace datacell
