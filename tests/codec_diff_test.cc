// Differential test of the wire codec: the batch string_view/from_chars
// decoder and the to_chars row writer against the original per-line
// implementation (split into std::string fields, strtoll/strtod on heap
// copies, Row of Values, std::to_string / "%.17g"), kept here verbatim as
// the oracle. Every line must be accepted or rejected alike, and every
// table must encode to the same bytes.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "column/table.h"
#include "net/codec.h"
#include "net/framing.h"
#include "util/random.h"
#include "util/strings.h"

namespace datacell {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the codec as it was before the batch decoder.
// ---------------------------------------------------------------------------

namespace oracle {

Result<int64_t> ParseInt64(const std::string& buf) {
  if (buf.empty()) return Status::ParseError("empty integer literal");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range");
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid integer");
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(const std::string& buf) {
  if (buf.empty()) return Status::ParseError("empty double literal");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::ParseError("double out of range");
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid double");
  }
  return v;
}

void EscapeInto(const std::string& s, std::string* out) {
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

std::string Unescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case '\\':
        out.push_back('\\');
        break;
      case 'p':
        out.push_back('|');
        break;
      case 'n':
        out.push_back('\n');
        break;
      default:
        out.push_back(s[i]);
    }
  }
  return out;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      cur.push_back(line[i]);
      cur.push_back(line[i + 1]);
      ++i;
      continue;
    }
    if (line[i] == '|') {
      fields.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    cur.push_back(line[i]);
  }
  fields.push_back(std::move(cur));
  return fields;
}

Result<Row> DecodeRow(const Schema& schema, const std::string& line) {
  std::vector<std::string> fields = SplitFields(line);
  if (fields.size() != schema.num_fields()) {
    return Status::ParseError("tuple arity mismatch");
  }
  Row row;
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    if (f == "\\N" || (f == "NULL" && schema.field(i).type != DataType::kString)) {
      row.push_back(Value::Null());
      continue;
    }
    switch (schema.field(i).type) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        ASSIGN_OR_RETURN(int64_t v, ParseInt64(f));
        row.push_back(Value(v));
        break;
      }
      case DataType::kDouble: {
        ASSIGN_OR_RETURN(double v, ParseDouble(f));
        row.push_back(Value(v));
        break;
      }
      case DataType::kBool:
        if (f == "true") {
          row.push_back(Value(true));
        } else if (f == "false") {
          row.push_back(Value(false));
        } else {
          return Status::ParseError("bad bool field");
        }
        break;
      case DataType::kString:
        row.push_back(Value(Unescape(f)));
        break;
    }
  }
  return row;
}

std::string EncodeRow(const Table& table, size_t i) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back('|');
    const Column& col = table.column(c);
    if (!col.IsValid(i)) {
      out.append("\\N");
      continue;
    }
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        out.append(std::to_string(col.ints()[i]));
        break;
      case DataType::kDouble:
        out.append(StringPrintf("%.17g", col.doubles()[i]));
        break;
      case DataType::kBool:
        out.append(col.bools()[i] ? "true" : "false");
        break;
      case DataType::kString:
        EscapeInto(col.strings()[i], &out);
        break;
    }
  }
  return out;
}

std::string EncodeTable(const Table& table) {
  std::string out;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    out += EncodeRow(table, i);
    out.push_back('\n');
  }
  return out;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

constexpr DataType kTypes[] = {DataType::kInt64, DataType::kTimestamp,
                               DataType::kDouble, DataType::kBool,
                               DataType::kString};

Schema RandomSchema(Random* rng) {
  Schema schema;
  const size_t n = 1 + rng->Uniform(6);
  for (size_t f = 0; f < n; ++f) {
    const DataType t = kTypes[rng->Uniform(std::size(kTypes))];
    EXPECT_TRUE(schema.AddField({"f" + std::to_string(f), t}).ok());
  }
  return schema;
}

int64_t RandomInt(Random* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return std::numeric_limits<int64_t>::min();
    case 1:
      return std::numeric_limits<int64_t>::max();
    case 2:
      return rng->UniformRange(-10, 10);
    default:
      return static_cast<int64_t>(rng->Next());
  }
}

double RandomDouble(Random* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (rng->Uniform(12)) {
    case 0:
      return nan;
    case 1:
      return -nan;
    case 2:
      return kInf;
    case 3:
      return -kInf;
    case 4:
      return -0.0;
    case 5:
      return 0.0;
    case 6:  // subnormal
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng->Uniform(1000));
    case 7:
      return std::numeric_limits<double>::max();
    case 8:
      return std::numeric_limits<double>::min();  // smallest normal
    case 9:
      return static_cast<double>(rng->UniformRange(-1000, 1000));
    default:
      return (rng->NextDouble() - 0.5) *
             std::pow(10.0, static_cast<double>(rng->UniformRange(-300, 300)));
  }
}

std::string RandomString(Random* rng) {
  static const std::vector<std::string> kTokens = {
      "NULL", "\\N", "N", "|", "\\", "\n", "\\p", "\\n", "a", "xyz", ":",
      "", "true", "7", " ", "null", "\\\\"};
  std::string s;
  const size_t pieces = rng->Uniform(5);
  for (size_t p = 0; p < pieces; ++p) s += kTokens[rng->Uniform(kTokens.size())];
  return s;
}

Table RandomTable(const Schema& schema, Random* rng, size_t rows) {
  Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      Column& col = t.column(c);
      if (rng->Bernoulli(0.15)) {
        col.AppendNull();
        continue;
      }
      switch (col.type()) {
        case DataType::kInt64:
        case DataType::kTimestamp:
          col.AppendInt(RandomInt(rng));
          break;
        case DataType::kDouble:
          col.AppendDouble(RandomDouble(rng));
          break;
        case DataType::kBool:
          col.AppendBool(rng->Bernoulli(0.5));
          break;
        case DataType::kString:
          col.AppendString(RandomString(rng));
          break;
      }
    }
  }
  return t;
}

// Field texts that stress the numeric, bool and null rules. Substituted
// raw (unescaped) into a line.
const std::vector<std::string>& HostileFields() {
  static const std::vector<std::string> kFields = {
      "", "+5", " 5", "5 ", "\t5", "-0", "007", "-", "+", "0x10", "0x1p3",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "99999999999999999999999", "1e400", "-1e400",
      "1e-400", "4.9406564584124654e-324", "2.2250738585072014e-308",
      "2.2250738585072009e-308", "inf", "-inf", "INF", "infinity", "nan",
      "-nan", "NaN", "nan(123)", "1e", "1.", ".5", ".", "1e+5", "1E5",
      "true", "false", "TRUE", "True", "1", "0", "\\N", "NULL", "null",
      "\\", "a\\", "\\p", "5\\", "12x", "1_000", std::string(200, '0') + "5",
      std::string(130, ' ') + "5"};
  return kFields;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t eol = text.find('\n', start);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, eol - start));
    start = eol + 1;
  }
  return lines;
}

// Lines derived from the valid ones: wrong arity, hostile field texts,
// torn and escape-damaged lines.
std::vector<std::string> MalformedLines(const Schema& schema,
                                        const std::vector<std::string>& valid,
                                        Random* rng) {
  std::vector<std::string> out = {"", "|", "||", "\\", "\\|", "a|b|c|d|e|f|g"};
  const size_t n = schema.num_fields();
  for (size_t v = 0; v < valid.size() && v < 8; ++v) {
    const std::string& line = valid[v];
    out.push_back(line + "|");
    out.push_back(line + "|x");
    out.push_back(line + "\\");
    out.push_back("|" + line);
    if (!line.empty()) {
      out.push_back(line.substr(0, rng->Uniform(line.size())));  // torn
      std::string damaged = line;
      damaged.insert(rng->Uniform(line.size() + 1), 1,
                     "\\|\n"[rng->Uniform(3)]);
      out.push_back(damaged);
    }
  }
  // Every hostile text in every field position of an otherwise valid line.
  if (!valid.empty()) {
    const std::vector<std::string> fields = oracle::SplitFields(valid[0]);
    for (size_t k = 0; k < n && k < fields.size(); ++k) {
      for (const std::string& f : HostileFields()) {
        std::string line;
        for (size_t j = 0; j < fields.size(); ++j) {
          if (j > 0) line.push_back('|');
          line += j == k ? f : fields[j];
        }
        out.push_back(line);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The differential checks.
// ---------------------------------------------------------------------------

struct Decoded {
  Table table;
  std::vector<bool> accepted;
};

Decoded DecodeWithOracle(const Schema& schema,
                         const std::vector<std::string>& lines) {
  Decoded d{Table(schema), {}};
  for (const std::string& line : lines) {
    Result<Row> row = oracle::DecodeRow(schema, line);
    d.accepted.push_back(row.ok());
    if (row.ok()) {
      EXPECT_TRUE(d.table.AppendRow(*row).ok());
    }
  }
  return d;
}

Decoded DecodeWithDecodeInto(const net::Codec& codec,
                             const std::vector<std::string>& lines) {
  Decoded d{Table(codec.schema()), {}};
  for (const std::string& line : lines) {
    const size_t before = d.table.num_rows();
    const bool ok = codec.DecodeInto(line, &d.table).ok();
    d.accepted.push_back(ok);
    EXPECT_EQ(d.table.num_rows(), before + (ok ? 1 : 0)) << line;
  }
  return d;
}

Decoded DecodeWithBatch(const net::Codec& codec,
                        const std::vector<std::string>& lines,
                        size_t batch_rows) {
  Decoded d{Table(codec.schema()), {}};
  net::BatchDecoder decoder(&codec);
  for (const std::string& line : lines) {
    d.accepted.push_back(decoder.Add(line).ok());
    if (decoder.rows() == batch_rows) {
      EXPECT_TRUE(decoder.Flush(&d.table).ok());
    }
  }
  EXPECT_TRUE(decoder.Flush(&d.table).ok());
  return d;
}

// Counts the lines on which `got` and `want` disagree about acceptance.
size_t AcceptanceDiffs(const std::vector<std::string>& lines,
                       const Decoded& got, const Decoded& want,
                       const char* path) {
  size_t diffs = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (got.accepted[i] != want.accepted[i]) {
      ++diffs;
      ADD_FAILURE() << path << " " << (got.accepted[i] ? "accepts" : "rejects")
                    << " a line the oracle "
                    << (want.accepted[i] ? "accepts" : "rejects") << ": '"
                    << lines[i] << "'";
    }
  }
  return diffs;
}

void CheckLines(const net::Codec& codec, const std::vector<std::string>& lines,
                Random* rng) {
  const Decoded want = DecodeWithOracle(codec.schema(), lines);
  const std::string want_bytes = oracle::EncodeTable(want.table);
  const Decoded one = DecodeWithDecodeInto(codec, lines);
  const Decoded batch = DecodeWithBatch(codec, lines, 1 + rng->Uniform(64));
  EXPECT_EQ(AcceptanceDiffs(lines, one, want, "DecodeInto"), 0u);
  EXPECT_EQ(AcceptanceDiffs(lines, batch, want, "BatchDecoder"), 0u);
  EXPECT_EQ(oracle::EncodeTable(one.table), want_bytes);
  EXPECT_EQ(oracle::EncodeTable(batch.table), want_bytes);
  // And the new encoder on the decoded tables.
  EXPECT_EQ(*codec.EncodeTable(batch.table), want_bytes);
}

class CodecDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecDiffTest, EncodeMatchesOracleByteForByte) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 20; ++iter) {
    const Schema schema = RandomSchema(&rng);
    const net::Codec codec(schema);
    const Table t = RandomTable(schema, &rng, rng.Uniform(40));
    Result<std::string> text = codec.EncodeTable(t);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(*text, oracle::EncodeTable(t)) << schema.ToString();
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(*codec.EncodeRow(t, r), oracle::EncodeRow(t, r));
    }
  }
}

TEST_P(CodecDiffTest, RandomLinesDecodeLikeTheOracle) {
  Random rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  for (int iter = 0; iter < 20; ++iter) {
    const Schema schema = RandomSchema(&rng);
    const net::Codec codec(schema);
    const Table t = RandomTable(schema, &rng, 1 + rng.Uniform(40));
    const std::vector<std::string> valid =
        SplitLines(oracle::EncodeTable(t));
    std::vector<std::string> lines = valid;
    for (std::string& bad : MalformedLines(schema, valid, &rng)) {
      // Interleave, so rejected lines sit between accepted ones.
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.Uniform(lines.size() + 1)),
                   std::move(bad));
    }
    CheckLines(codec, lines, &rng);
  }
}

// The gateway's shape: one receive buffer torn at random points, lines
// handed out as views and decoded in batches, torn last line at EOF.
TEST_P(CodecDiffTest, FramedViewsDecodeLikeTheOracle) {
  Random rng(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  for (int iter = 0; iter < 10; ++iter) {
    const Schema schema = RandomSchema(&rng);
    const net::Codec codec(schema);
    const Table t = RandomTable(schema, &rng, 1 + rng.Uniform(200));
    std::string stream = oracle::EncodeTable(t);
    for (const std::string& bad :
         MalformedLines(schema, SplitLines(stream), &rng)) {
      if (bad.find('\n') == std::string::npos) stream += bad + "\n";
    }
    stream += "1|torn";  // no newline: the EOF remainder
    const std::vector<std::string> lines = SplitLines(stream);

    net::LineFramer framer;
    net::BatchDecoder decoder(&codec);
    Decoded got{Table(schema), {}};
    const size_t batch_rows = 1 + rng.Uniform(50);
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t n = std::min(stream.size() - pos, 1 + rng.Uniform(300));
      framer.Append(std::string_view(stream).substr(pos, n));
      pos += n;
      while (std::optional<std::string_view> line = framer.NextView()) {
        got.accepted.push_back(decoder.Add(*line).ok());
        if (decoder.rows() == batch_rows) {
          ASSERT_TRUE(decoder.Flush(&got.table).ok());
        }
      }
    }
    got.accepted.push_back(decoder.Add(framer.TakeRemainder()).ok());
    ASSERT_TRUE(decoder.Flush(&got.table).ok());
    EXPECT_EQ(framer.buffered(), 0u);

    const Decoded want = DecodeWithOracle(schema, lines);
    ASSERT_EQ(got.accepted.size(), want.accepted.size());
    EXPECT_EQ(AcceptanceDiffs(lines, got, want, "framed BatchDecoder"), 0u);
    EXPECT_EQ(oracle::EncodeTable(got.table), oracle::EncodeTable(want.table));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecDiffTest, ::testing::Range(1, 9));

TEST(CodecDiffTest, SpecialDoublesEncodeLikePrintf) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Schema schema({{"d", DataType::kDouble}});
  Table t(schema);
  for (double v : {nan, -nan, inf, -inf, -0.0, 0.0,
                   std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max(), 0.1, 1e21, 1e-7,
                   123456789012345678.0}) {
    t.column(0).AppendDouble(v);
  }
  EXPECT_EQ(*net::Codec(schema).EncodeTable(t), oracle::EncodeTable(t));
}

TEST(CodecDiffTest, SchemaHeadersDecodeLikeTheOracle) {
  for (const std::string header :
       {"a:int", "a:int|b:string", "p\\pq:double|r\\\\s:bool", "a\\:int",
        "a:int|", "|a:int", "a", ":int", "a:nosuchtype", "a:int|a:int",
        "x\\", "a:timestamp|b:bool|c:double"}) {
    Result<Schema> got = net::Codec::DecodeSchemaHeader(header);
    // Oracle: split like the old header decoder, unescape each name.
    bool want_ok = true;
    Schema want;
    for (const std::string& part : oracle::SplitFields(header)) {
      const size_t colon = part.rfind(':');
      if (colon == std::string::npos) {
        want_ok = false;
        break;
      }
      Result<DataType> type = DataTypeFromName(part.substr(colon + 1));
      std::string name = oracle::Unescape(part.substr(0, colon));
      if (!type.ok() || name.empty() || !want.AddField({name, *type}).ok()) {
        want_ok = false;
        break;
      }
    }
    ASSERT_EQ(got.ok(), want_ok) << header;
    if (want_ok) {
      EXPECT_EQ(*got, want) << header;
    }
  }
}

}  // namespace
}  // namespace datacell
