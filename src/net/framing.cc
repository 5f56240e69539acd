#include "net/framing.h"

#include <utility>

#include "net/codec.h"

namespace datacell::net {

void LineFramer::Compact() {
  if (head_ == 0) return;
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ >= 4096 && head_ * 2 >= buffer_.size()) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
}

void LineFramer::Append(std::string_view data) {
  Compact();
  buffer_.append(data.data(), data.size());
}

std::optional<std::string_view> LineFramer::NextView() {
  Compact();
  const size_t pos = buffer_.find('\n', head_);
  if (pos == std::string::npos) {
    // No complete line, so no view is handed out: compact fully now so a
    // half-received tuple after a large drained burst does not pin the
    // whole burst buffer.
    if (head_ > 0) {
      buffer_.erase(0, head_);
      head_ = 0;
    }
    return std::nullopt;
  }
  const std::string_view line(buffer_.data() + head_, pos - head_);
  head_ = pos + 1;
  return line;
}

std::optional<std::string> LineFramer::NextLine() {
  std::optional<std::string_view> line = NextView();
  if (!line.has_value()) return std::nullopt;
  return std::string(*line);
}

std::string_view LineFramer::TakeRemainder() {
  Compact();
  const std::string_view rest(buffer_.data() + head_, buffer_.size() - head_);
  head_ = buffer_.size();
  return rest;
}

Result<Hello> ParseHello(std::string_view line) {
  Hello hello;
  if (line == "STATS") {
    hello.kind = HelloKind::kStats;
    return hello;
  }
  if (line == "SEQ") {
    hello.kind = HelloKind::kSeq;
    return hello;
  }
  ASSIGN_OR_RETURN(hello.schema, Codec::DecodeSchemaHeader(line));
  hello.kind = HelloKind::kSchema;
  return hello;
}

}  // namespace datacell::net
