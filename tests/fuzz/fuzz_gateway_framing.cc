/// Fuzz harness: gateway line framing + handshake + tuple decode.
///
/// This walks the exact path a byte arriving on the gateway socket takes:
/// LineFramer reassembly (under adversarial chunking), ParseHello on the
/// first line, then Codec::DecodeInto for the tuple lines. The framer must
/// conserve bytes — every byte fed in comes back out in exactly one line
/// or in the remainder — and the decoders must return Status, not crash.
///
/// Input layout: byte 0 seeds the chunk-size pattern so the same stream
/// replayed with different first bytes exercises different recv() splits;
/// the rest is the wire stream.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "column/table.h"
#include "net/codec.h"
#include "net/framing.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > (1 << 16)) return 0;
  const uint8_t chunk_seed = data[0];
  const char* stream = reinterpret_cast<const char*>(data) + 1;
  const size_t stream_len = size - 1;

  datacell::net::LineFramer framer;
  std::optional<datacell::net::Codec> codec;
  bool saw_hello = false;
  size_t bytes_out = 0;

  size_t pos = 0;
  uint32_t chunk_state = chunk_seed + 1u;
  while (pos < stream_len) {
    // Feed in pseudo-random 1..64 byte chunks, like a torn recv() stream.
    chunk_state = chunk_state * 1664525u + 1013904223u;
    size_t n = 1 + (chunk_state >> 16) % 64;
    if (n > stream_len - pos) n = stream_len - pos;
    framer.Append(std::string_view(stream + pos, n));
    pos += n;

    // Views into the framer's buffer: each must stay readable until the
    // next call, which is where compaction may move the bytes.
    while (std::optional<std::string_view> line = framer.NextView()) {
      bytes_out += line->size() + 1;  // '\n' is consumed, not returned
      if (!saw_hello) {
        saw_hello = true;
        datacell::Result<datacell::net::Hello> hello =
            datacell::net::ParseHello(*line);
        if (hello.ok() &&
            hello->kind == datacell::net::HelloKind::kSchema) {
          codec.emplace(hello->schema);
        }
      } else if (codec.has_value()) {
        datacell::Table batch(codec->schema());
        // Arbitrary tuple lines may or may not decode; both are fine.
        if (datacell::Status st = codec->DecodeInto(*line, &batch); st.ok()) {
          if (batch.num_rows() != 1) {
            std::fprintf(stderr,
                         "fuzz_gateway_framing: DecodeInto ok but %zu rows\n",
                         batch.num_rows());
            std::abort();
          }
        }
      }
    }
  }

  bytes_out += framer.TakeRemainder().size();
  if (bytes_out != stream_len) {
    std::fprintf(stderr,
                 "fuzz_gateway_framing: fed %zu bytes, recovered %zu\n",
                 stream_len, bytes_out);
    std::abort();
  }
  if (framer.buffered() != 0) {
    std::fprintf(stderr,
                 "fuzz_gateway_framing: framer still buffers %zu bytes "
                 "after TakeRemainder\n",
                 framer.buffered());
    std::abort();
  }
  return 0;
}
