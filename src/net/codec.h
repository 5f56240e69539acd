#ifndef DATACELL_NET_CODEC_H_
#define DATACELL_NET_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "column/table.h"
#include "util/status.h"

namespace datacell::net {

/// The DataCell interchange format (§3.1): a purposely simple textual
/// protocol for flat relational tuples. One tuple per line, fields
/// separated by '|'; SQL NULL spelled "\N" (a string whose value is the
/// word NULL encodes unescaped and stays a string); '\', '|' and newline
/// escaped in strings and field names. Doubles round-trip via %.17g.
///
/// Decoding has one parser (Codec::ParseLine) behind two entry points:
/// DecodeInto appends one line straight into a table, BatchDecoder
/// collects many lines into typed per-column lanes and appends each lane
/// once per batch. Encoding has one row writer (RowWriter) behind
/// EncodeRow, EncodeTable and the ingest log.
class Codec {
 public:
  explicit Codec(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// "name:type|name:type" — sent once as a handshake header.
  std::string EncodeSchemaHeader() const;
  static Result<Schema> DecodeSchemaHeader(std::string_view line);

  /// Encodes row `i` of `table` (schemas must agree) without trailing
  /// newline.
  Result<std::string> EncodeRow(const Table& table, size_t i) const;
  /// Encodes all rows, one per line, each newline-terminated, into one
  /// buffer reserved once from this table's contents.
  Result<std::string> EncodeTable(const Table& table) const;

  /// Parses one tuple line and appends it to `out`, whose columns must
  /// have the codec schema's types. A rejected line leaves `out` as it was.
  Status DecodeInto(std::string_view line, Table* out) const;

 private:
  friend class BatchDecoder;

  /// One field of a parsed line: the raw (still escaped) text and, for
  /// non-null numeric and bool fields, the parsed value.
  struct Field {
    std::string_view text;
    bool escaped = false;  // text contains '\'
    bool null = false;
    int64_t i = 0;         // kInt64 / kTimestamp, and kBool as 0/1
    double d = 0;          // kDouble
  };

  /// Splits `line` and validates every field against the schema, filling
  /// `fields` (schema().num_fields() slots). Nothing is appended anywhere,
  /// so a line is known to be whole before any of it lands.
  Status ParseLine(std::string_view line, Field* fields) const;
  /// TypeMismatch unless `table` has the schema's arity and column types.
  Status CheckTarget(const Table& table) const;

  Schema schema_;
};

/// Batch decoder: parses lines into per-batch typed lanes (values plus
/// validity) and appends each lane to its column once per batch, so the
/// column's ownership check and growth happen per batch, not per value.
/// The codec must outlive the decoder.
class BatchDecoder {
 public:
  explicit BatchDecoder(const Codec* codec);

  /// Parses one line into the lanes. A rejected line leaves them as they
  /// were, so the batch stays aligned.
  Status Add(std::string_view line);
  /// Lines accepted since the last Flush.
  size_t rows() const { return rows_; }
  /// Appends the accepted lines to `out` (schema as in DecodeInto) and
  /// empties the lanes.
  Status Flush(Table* out);

 private:
  struct Lane {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bools;
    std::vector<std::string> strings;
    std::vector<uint8_t> valid;  // one byte per row, 1 = non-null
    bool has_null = false;
  };

  const Codec* codec_;
  std::vector<Codec::Field> fields_;  // per-line scratch
  std::vector<Lane> lanes_;           // one per column
  size_t rows_ = 0;
};

/// Batch encoder: binds a table's columns once, then appends rows as
/// protocol text. Column types come from the table; the caller checks the
/// arity against the codec schema (EncodeRow/EncodeTable do).
class RowWriter {
 public:
  explicit RowWriter(const Table& table);

  /// Appends the text of row `i`, without newline.
  void Append(size_t i, std::string* out) const;
  /// Bytes all rows take with their newlines: exact for strings without
  /// escapes, an upper bound for the other types.
  size_t SizeHint() const;

  /// Appends row `i` of `table` binding each column on the fly: no
  /// allocation beyond `out`'s own (the single-row path, EncodeRow).
  static void AppendRow(const Table& table, size_t i, std::string* out);

 private:
  /// One column's typed data pointers.
  struct Col {
    static Col Bind(const Column& column);
    /// Bytes value `i` takes at most (exact for unescaped strings).
    size_t SizeHint(size_t i) const;
    void Append(size_t i, std::string* out) const;

    DataType type = DataType::kInt64;
    const int64_t* ints = nullptr;
    const double* doubles = nullptr;
    const uint8_t* bools = nullptr;
    const std::string* strings = nullptr;
    const uint8_t* valid = nullptr;  // nullptr = no nulls
  };

  std::vector<Col> cols_;
  size_t rows_;
};

}  // namespace datacell::net

#endif  // DATACELL_NET_CODEC_H_
