#ifndef DATACELL_NET_FRAMING_H_
#define DATACELL_NET_FRAMING_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "column/table.h"
#include "util/status.h"

namespace datacell::net {

/// Byte-stream framing for the line protocol (§3.1): accumulates arbitrary
/// received chunks and yields complete '\n'-terminated lines (newline
/// stripped). This is the single implementation behind TcpStream's
/// buffered-line helpers and the gateway reactor, and it is fuzzed directly
/// (tests/fuzz/fuzz_gateway_framing) — keep it free of socket concerns.
///
/// Lines are handed out as views into the receive buffer: a view stays
/// valid until the next non-const call on the framer. Consumption advances
/// a logical head offset; compaction of the consumed prefix happens only
/// at the start of a call, never under a view handed out by that call, so
/// popping N lines out of a large burst is O(bytes), not O(lines * bytes).
class LineFramer {
 public:
  /// Appends received bytes to the buffer.
  void Append(std::string_view data);

  /// Extracts the next complete line, or nullopt when none is buffered.
  std::optional<std::string_view> NextView();

  /// NextView copied into a string, for callers that keep the line past
  /// the next call.
  std::optional<std::string> NextLine();

  /// Drains whatever trails the last newline — the torn partial line a
  /// peer leaves behind when it disconnects mid-tuple. Empties the buffer;
  /// the view lives until the next call, like NextView's.
  std::string_view TakeRemainder();

  /// Bytes buffered but not yet returned.
  size_t buffered() const { return buffer_.size() - head_; }

 private:
  // Reclaims the consumed prefix: all of it once everything is consumed,
  // otherwise once it is both big and the majority of the buffer.
  void Compact();

  std::string buffer_;
  size_t head_ = 0;  // consumed prefix
};

/// What the first line of an ingress connection asked for.
enum class HelloKind {
  kStats,   // "STATS": answer with one stats line, close
  kSeq,     // "SEQ": answer with the stream's last logged seq, close
  kSchema,  // a schema header: validate and start streaming tuples
};

struct Hello {
  HelloKind kind = HelloKind::kSchema;
  Schema schema;  // decoded header; meaningful only for kSchema
};

/// Classifies and decodes the handshake line of the gateway protocol. A
/// line that is neither a control word nor a well-formed schema header is a
/// ParseError (the gateway drops such connections individually).
Result<Hello> ParseHello(std::string_view line);

}  // namespace datacell::net

#endif  // DATACELL_NET_FRAMING_H_
