#include "net/codec.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace datacell::net {

namespace {

// Wire marker for SQL NULL. A *string* whose value is literally "NULL"
// encodes as the bare four characters, so the two are unambiguous on
// decode: only the marker (backslash-N, which EscapeInto can never emit
// for a value — it escapes every backslash) means null. The bare word
// "NULL" is still accepted as null for non-string fields, where no legal
// value collides with it, keeping old encoders readable.
constexpr std::string_view kNullField = "\\N";

// Widest text of one value: INT64_MIN is 20 characters, a %.17g double
// at most 24 ("-2.2250738585072014e-308"), a bool 5 ("false").
constexpr size_t kMaxIntText = 20;
constexpr size_t kMaxDoubleText = 24;
constexpr size_t kMaxBoolText = 5;

// Fields of a tuple line parsed without touching the heap.
constexpr size_t kInlineFields = 16;

bool IsIntType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kTimestamp;
}

void EscapeInto(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '|':
        out->append("\\p");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'p':
        out.push_back('|');
        break;
      case 'n':
        out.push_back('\n');
        break;
      default:  // "\\" and any unknown escape keep the escaped byte
        out.push_back(s[i]);
    }
  }
  return out;
}

// The one field splitter: calls visit(index, raw_field, escaped) for each
// field of `line`, split on unescaped '|' ('\' escapes the byte after it;
// a lone trailing '\' is an ordinary byte). Returns the field count.
template <typename Visit>
size_t ForEachField(std::string_view line, Visit&& visit) {
  size_t n = 0;
  size_t start = 0;
  bool escaped = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      escaped = true;
      ++i;  // skip the escaped byte
    } else if (c == '|') {
      visit(n++, line.substr(start, i - start), escaped);
      start = i + 1;
      escaped = false;
    }
  }
  visit(n++, line.substr(start), escaped);
  return n;
}

std::string StringValue(std::string_view text, bool escaped) {
  return escaped ? Unescape(text) : std::string(text);
}

void AppendInt64(int64_t v, std::string* out) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

// Same bytes as "%.17g" in the C locale, nan/inf/-0 and subnormals
// included.
void AppendDouble(double v, std::string* out) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

}  // namespace

std::string Codec::EncodeSchemaHeader() const {
  std::string out;
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    if (i > 0) out.push_back('|');
    EscapeInto(schema_.field(i).name, &out);
    out.push_back(':');
    out += DataTypeName(schema_.field(i).type);
  }
  return out;
}

Result<Schema> Codec::DecodeSchemaHeader(std::string_view line) {
  Schema schema;
  Status status = Status::OK();
  // Field names travel escaped exactly like string values, so the header
  // splits on *unescaped* pipes — a name containing "\p" must not desync
  // the handshake.
  ForEachField(line, [&](size_t, std::string_view part, bool escaped) {
    if (!status.ok()) return;
    const size_t colon = part.rfind(':');
    if (colon == std::string_view::npos) {
      status = Status::ParseError("bad schema header field: " +
                                  std::string(part));
      return;
    }
    Result<DataType> type = DataTypeFromName(std::string(part.substr(colon + 1)));
    if (!type.ok()) {
      status = type.status();
      return;
    }
    std::string name = StringValue(part.substr(0, colon), escaped);
    if (name.empty()) {
      status = Status::ParseError("empty field name in schema header: " +
                                  std::string(line));
      return;
    }
    status = schema.AddField({std::move(name), *type});
  });
  RETURN_NOT_OK(status);
  return schema;
}

Result<std::string> Codec::EncodeRow(const Table& table, size_t i) const {
  if (table.num_columns() != schema_.num_fields()) {
    return Status::TypeMismatch("codec schema arity mismatch");
  }
  std::string out;
  RowWriter::AppendRow(table, i, &out);
  return out;
}

Result<std::string> Codec::EncodeTable(const Table& table) const {
  if (table.num_columns() != schema_.num_fields()) {
    return Status::TypeMismatch("codec schema arity mismatch");
  }
  const RowWriter writer(table);
  std::string out;
  out.reserve(writer.SizeHint());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    writer.Append(i, &out);
    out.push_back('\n');
  }
  return out;
}

Status Codec::ParseLine(std::string_view line, Field* fields) const {
  const size_t n = schema_.num_fields();
  const size_t arity = ForEachField(
      line, [&](size_t k, std::string_view text, bool escaped) {
        if (k < n) {
          fields[k].text = text;
          fields[k].escaped = escaped;
        }
      });
  if (arity != n) {
    return Status::ParseError("tuple arity " + std::to_string(arity) +
                              " does not match schema " + schema_.ToString());
  }
  for (size_t k = 0; k < n; ++k) {
    Field& f = fields[k];
    const DataType type = schema_.field(k).type;
    f.null = f.text == kNullField ||
             (f.text == "NULL" && type != DataType::kString);
    if (f.null) continue;
    switch (type) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        ASSIGN_OR_RETURN(f.i, ParseInt64(f.text));
        break;
      }
      case DataType::kDouble: {
        ASSIGN_OR_RETURN(f.d, ParseDouble(f.text));
        break;
      }
      case DataType::kBool:
        if (f.text == "true") {
          f.i = 1;
        } else if (f.text == "false") {
          f.i = 0;
        } else {
          return Status::ParseError("bad bool field: " + std::string(f.text));
        }
        break;
      case DataType::kString:
        break;  // unescaped when it lands
    }
  }
  return Status::OK();
}

Status Codec::CheckTarget(const Table& table) const {
  if (table.num_columns() != schema_.num_fields()) {
    return Status::TypeMismatch("decode target arity " +
                                std::to_string(table.num_columns()) +
                                " does not match schema " +
                                schema_.ToString());
  }
  for (size_t k = 0; k < schema_.num_fields(); ++k) {
    const DataType want = schema_.field(k).type;
    const DataType have = table.column(k).type();
    if (have != want && !(IsIntType(have) && IsIntType(want))) {
      return Status::TypeMismatch("decode target column " +
                                  std::to_string(k) + " is " +
                                  DataTypeName(have) + ", schema says " +
                                  DataTypeName(want));
    }
  }
  return Status::OK();
}

Status Codec::DecodeInto(std::string_view line, Table* out) const {
  RETURN_NOT_OK(CheckTarget(*out));
  const size_t n = schema_.num_fields();
  Field inline_fields[kInlineFields];
  std::vector<Field> heap_fields;
  Field* fields = inline_fields;
  if (n > kInlineFields) {
    heap_fields.resize(n);
    fields = heap_fields.data();
  }
  RETURN_NOT_OK(ParseLine(line, fields));
  for (size_t k = 0; k < n; ++k) {
    const Field& f = fields[k];
    Column& col = out->column(k);
    if (f.null) {
      col.AppendNull();
      continue;
    }
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        col.AppendInt(f.i);
        break;
      case DataType::kDouble:
        col.AppendDouble(f.d);
        break;
      case DataType::kBool:
        col.AppendBool(f.i != 0);
        break;
      case DataType::kString:
        col.AppendString(StringValue(f.text, f.escaped));
        break;
    }
  }
  return Status::OK();
}

BatchDecoder::BatchDecoder(const Codec* codec)
    : codec_(codec),
      fields_(codec->schema().num_fields()),
      lanes_(codec->schema().num_fields()) {}

Status BatchDecoder::Add(std::string_view line) {
  RETURN_NOT_OK(codec_->ParseLine(line, fields_.data()));
  for (size_t k = 0; k < lanes_.size(); ++k) {
    const Codec::Field& f = fields_[k];
    Lane& lane = lanes_[k];
    lane.valid.push_back(f.null ? 0 : 1);
    lane.has_null |= f.null;
    // A null slot stores the AppendNull placeholder (zero / empty).
    switch (codec_->schema().field(k).type) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        lane.ints.push_back(f.null ? 0 : f.i);
        break;
      case DataType::kDouble:
        lane.doubles.push_back(f.null ? 0.0 : f.d);
        break;
      case DataType::kBool:
        lane.bools.push_back(f.null ? 0 : static_cast<uint8_t>(f.i));
        break;
      case DataType::kString:
        lane.strings.push_back(f.null ? std::string()
                                      : StringValue(f.text, f.escaped));
        break;
    }
  }
  ++rows_;
  return Status::OK();
}

Status BatchDecoder::Flush(Table* out) {
  RETURN_NOT_OK(codec_->CheckTarget(*out));
  if (rows_ == 0) return Status::OK();
  for (size_t k = 0; k < lanes_.size(); ++k) {
    Lane& lane = lanes_[k];
    const uint8_t* valid = lane.has_null ? lane.valid.data() : nullptr;
    Column& col = out->column(k);
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        col.AppendInts(lane.ints.data(), rows_, valid);
        break;
      case DataType::kDouble:
        col.AppendDoubles(lane.doubles.data(), rows_, valid);
        break;
      case DataType::kBool:
        col.AppendBools(lane.bools.data(), rows_, valid);
        break;
      case DataType::kString:
        col.AppendStrings(lane.strings.data(), rows_, valid);
        break;
    }
    lane.ints.clear();
    lane.doubles.clear();
    lane.bools.clear();
    lane.strings.clear();
    lane.valid.clear();
    lane.has_null = false;
  }
  rows_ = 0;
  return Status::OK();
}

RowWriter::Col RowWriter::Col::Bind(const Column& column) {
  Col col;
  col.type = column.type();
  col.valid = column.raw_validity();
  switch (col.type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      col.ints = column.ints().data();
      break;
    case DataType::kDouble:
      col.doubles = column.doubles().data();
      break;
    case DataType::kBool:
      col.bools = column.bools().data();
      break;
    case DataType::kString:
      col.strings = column.strings().data();
      break;
  }
  return col;
}

size_t RowWriter::Col::SizeHint(size_t i) const {
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return kMaxIntText;
    case DataType::kDouble:
      return kMaxDoubleText;
    case DataType::kBool:
      return kMaxBoolText;
    case DataType::kString:
      return std::max(strings[i].size(), kNullField.size());
  }
  return 0;
}

void RowWriter::Col::Append(size_t i, std::string* out) const {
  if (valid != nullptr && valid[i] == 0) {
    out->append(kNullField);
    return;
  }
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      AppendInt64(ints[i], out);
      break;
    case DataType::kDouble:
      AppendDouble(doubles[i], out);
      break;
    case DataType::kBool:
      out->append(bools[i] ? "true" : "false");
      break;
    case DataType::kString:
      EscapeInto(strings[i], out);
      break;
  }
}

RowWriter::RowWriter(const Table& table) : rows_(table.num_rows()) {
  cols_.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    cols_.push_back(Col::Bind(table.column(c)));
  }
}

void RowWriter::Append(size_t i, std::string* out) const {
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (c > 0) out->push_back('|');
    cols_[c].Append(i, out);
  }
}

size_t RowWriter::SizeHint() const {
  size_t bytes = rows_ * cols_.size();  // separators plus the newline
  for (const Col& col : cols_) {
    for (size_t i = 0; i < rows_; ++i) bytes += col.SizeHint(i);
  }
  return bytes;
}

void RowWriter::AppendRow(const Table& table, size_t i, std::string* out) {
  size_t bytes = table.num_columns();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    bytes += Col::Bind(table.column(c)).SizeHint(i);
  }
  out->reserve(out->size() + bytes);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out->push_back('|');
    Col::Bind(table.column(c)).Append(i, out);
  }
}

}  // namespace datacell::net
