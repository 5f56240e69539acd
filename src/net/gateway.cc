#include "net/gateway.h"

namespace datacell::net {

Result<std::unique_ptr<TcpEgress>> TcpEgress::Connect(const std::string& host,
                                                      uint16_t port) {
  ASSIGN_OR_RETURN(TcpStream stream, TcpStream::Connect(host, port));
  return std::unique_ptr<TcpEgress>(new TcpEgress(std::move(stream)));
}

core::Emitter::Sink TcpEgress::MakeSink() {
  return [this](const Table& batch) -> Status {
    if (!codec_.has_value()) {
      Codec codec(batch.schema());
      RETURN_NOT_OK(stream_.WriteAll(codec.EncodeSchemaHeader() + "\n"));
      codec_.emplace(std::move(codec));
    }
    ASSIGN_OR_RETURN(std::string payload, codec_->EncodeTable(batch));
    return stream_.WriteAll(payload);
  };
}

Status TcpEgress::Finish() { return stream_.ShutdownWrite(); }

}  // namespace datacell::net
