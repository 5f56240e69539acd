#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/receptor.h"
#include "core/scheduler.h"
#include "net/actuator.h"
#include "net/codec.h"
#include "net/gateway.h"
#include "net/sensor.h"
#include "net/shard.h"
#include "net/socket.h"
#include "net/wakeup.h"
#include "storage/ingest_log.h"
#include "util/clock.h"

namespace datacell::net {
namespace {

Schema StreamSchema() { return Sensor::StreamSchema(); }

// Decodes one tuple line into a fresh table and boxes it back into a Row.
Result<Row> DecodeOne(const Codec& codec, std::string_view line) {
  Table t(codec.schema());
  RETURN_NOT_OK(codec.DecodeInto(line, &t));
  return t.GetRow(0);
}

TEST(CodecTest, SchemaHeaderRoundTrip) {
  Codec codec(StreamSchema());
  std::string header = codec.EncodeSchemaHeader();
  EXPECT_EQ(header, "tag:timestamp|payload:int");
  auto schema = Codec::DecodeSchemaHeader(header);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(*schema, StreamSchema());
}

TEST(CodecTest, RowRoundTrip) {
  Schema s({{"i", DataType::kInt64},
            {"d", DataType::kDouble},
            {"b", DataType::kBool},
            {"s", DataType::kString}});
  Codec codec(s);
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value(-7), Value(2.5), Value(true), Value("hi")}).ok());
  auto line = codec.EncodeRow(t, 0);
  ASSERT_TRUE(line.ok());
  auto row = DecodeOne(codec, *line);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value(-7));
  EXPECT_EQ((*row)[1], Value(2.5));
  EXPECT_EQ((*row)[2], Value(true));
  EXPECT_EQ((*row)[3], Value("hi"));
}

TEST(CodecTest, NullsAndEscaping) {
  Schema s({{"a", DataType::kString}, {"b", DataType::kInt64}});
  Codec codec(s);
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("p|q\\r\nx"), Value::Null()}).ok());
  auto line = codec.EncodeRow(t, 0);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->find('\n'), std::string::npos);
  auto row = DecodeOne(codec, *line);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value("p|q\\r\nx"));
  EXPECT_TRUE((*row)[1].is_null());
}

TEST(CodecTest, DoublePrecisionRoundTrip) {
  Schema s({{"d", DataType::kDouble}});
  Codec codec(s);
  Table t(s);
  const double v = 0.1 + 0.2;  // not exactly representable
  ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  auto line = codec.EncodeRow(t, 0);
  ASSERT_TRUE(line.ok());
  auto row = DecodeOne(codec, *line);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].double_value(), v);
}

TEST(CodecTest, ArityMismatchRejected) {
  Codec codec(StreamSchema());
  EXPECT_FALSE(DecodeOne(codec, "1|2|3").ok());
  EXPECT_FALSE(DecodeOne(codec, "1").ok());
}

TEST(CodecTest, BadFieldRejected) {
  Codec codec(StreamSchema());
  EXPECT_FALSE(DecodeOne(codec, "notanint|5").ok());
  EXPECT_FALSE(DecodeOne(codec, "1|notanint").ok());
}

TEST(CodecTest, EncodeTableMultipleLines) {
  Codec codec(StreamSchema());
  Table t(StreamSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(10)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value(20)}).ok());
  auto payload = codec.EncodeTable(t);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "1|10\n2|20\n");
}

TEST(SocketTest, LoopbackEcho) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto line = conn->ReadLine();
    ASSERT_TRUE(line.ok());
    ASSERT_TRUE(conn->WriteAll("echo:" + *line + "\n").ok());
  });
  auto client = TcpStream::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->WriteAll("hello\n").ok());
  auto reply = client->ReadLine();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:hello");
  server.join();
}

TEST(SocketTest, ReadLineEof) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->WriteAll("only\n").ok());
    // close without more data
  });
  auto client = TcpStream::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  auto l1 = client->ReadLine();
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(*l1, "only");
  auto l2 = client->ReadLine();
  EXPECT_EQ(l2.status().code(), StatusCode::kNotFound);  // clean EOF
  server.join();
}

TEST(EndToEndTest, SensorThroughKernelToActuator) {
  // sensor -> ShardedIngress -> basket -> factory(select *) -> out basket ->
  // emitter(TcpEgress) -> actuator; the full §6.1 pipeline on loopback.
  SystemClock* clock = SystemClock::Get();

  core::ReceptorPtr receptor = std::make_shared<core::Receptor>("r");
  auto in = std::make_shared<core::Basket>("in", StreamSchema());
  receptor->AddOutput(in);
  auto out = std::make_shared<core::Basket>("out", in->schema(), false);

  auto factory = std::make_shared<core::Factory>(
      "q", [out](core::FactoryContext& ctx) -> Status {
        Table batch = ctx.input(0).TakeAll();
        ASSIGN_OR_RETURN(size_t n, out->AppendAligned(batch, ctx.now()));
        (void)n;
        return Status::OK();
      });
  factory->AddInput(in);
  factory->AddOutput(out);

  Actuator actuator(clock);
  ASSERT_TRUE(actuator.Start().ok());

  auto egress = TcpEgress::Connect("127.0.0.1", actuator.port());
  ASSERT_TRUE(egress.ok());
  auto emitter =
      std::make_shared<core::Emitter>("e", (*egress)->MakeSink());
  emitter->AddInput(out);

  ShardedIngress ingress({receptor}, Codec(StreamSchema()), clock);
  ASSERT_TRUE(ingress.Start().ok());

  core::Scheduler sched(clock);
  sched.Register(factory);
  sched.Register(emitter);
  ASSERT_TRUE(sched.Start().ok());

  Sensor::Options opts;
  opts.num_tuples = 500;
  opts.tuples_per_write = 50;
  std::thread sensor([&] {
    ASSERT_TRUE(Sensor::Run("127.0.0.1", ingress.port(), opts, clock).ok());
  });
  sensor.join();

  // Wait until the kernel drained everything.
  for (int i = 0; i < 2000 && actuator.stats().tuples < 500; ++i) {
    clock->SleepFor(1000);
  }
  sched.Stop();
  ASSERT_TRUE((*egress)->Finish().ok());
  actuator.WaitFinished();

  auto stats = actuator.stats();
  EXPECT_EQ(stats.tuples, 500u);
  EXPECT_EQ(ingress.tuples_received(), 500u);
  EXPECT_GT(stats.MeanLatency(), 0.0);
  EXPECT_GE(stats.Elapsed(), 0);
}

TEST(EgressTest, SchemaHeaderWrittenExactlyOnce) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::vector<std::string> lines;
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    while (true) {
      auto line = conn->ReadLine();
      if (!line.ok()) break;
      lines.push_back(*line);
    }
  });
  auto egress = TcpEgress::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(egress.ok());
  core::Emitter::Sink sink = (*egress)->MakeSink();
  Table batch(StreamSchema());
  ASSERT_TRUE(batch.AppendRow({Value(int64_t{1}), Value(10)}).ok());
  ASSERT_TRUE(sink(batch).ok());
  ASSERT_TRUE(sink(batch).ok());  // second batch: no second header
  ASSERT_TRUE((*egress)->Finish().ok());
  server.join();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "tag:timestamp|payload:int");
  EXPECT_EQ(lines[1], "1|10");
  EXPECT_EQ(lines[2], "1|10");
}

TEST(EndToEndTest, SensorDirectToActuator) {
  // The paper's "without the kernel" baseline.
  SystemClock* clock = SystemClock::Get();
  Actuator actuator(clock);
  ASSERT_TRUE(actuator.Start().ok());
  Sensor::Options opts;
  opts.num_tuples = 300;
  opts.tuples_per_write = 30;
  ASSERT_TRUE(Sensor::Run("127.0.0.1", actuator.port(), opts, clock).ok());
  actuator.WaitFinished();
  EXPECT_EQ(actuator.stats().tuples, 300u);
}

// ---------------------------------------------------------------------------
// Codec correctness fixes
// ---------------------------------------------------------------------------

TEST(CodecTest, LiteralNullStringIsNotSqlNull) {
  Schema s({{"a", DataType::kString}, {"b", DataType::kString}});
  Codec codec(s);
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("NULL"), Value::Null()}).ok());
  auto line = codec.EncodeRow(t, 0);
  ASSERT_TRUE(line.ok());
  auto row = DecodeOne(codec, *line);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value("NULL"));  // the string survives as a string
  EXPECT_TRUE((*row)[1].is_null());     // the null survives as a null
}

TEST(CodecTest, NullMarkerLookalikeStringsRoundTrip) {
  // Strings that collide with the wire spelling of null must not decode as
  // null: "\N" (the marker itself), "N", and "NULL" are all plain values.
  Schema s({{"a", DataType::kString}});
  Codec codec(s);
  for (const std::string v : {"\\N", "N", "NULL", "\\NULL", "\\n"}) {
    Table t(s);
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
    auto line = codec.EncodeRow(t, 0);
    ASSERT_TRUE(line.ok());
    auto row = DecodeOne(codec, *line);
    ASSERT_TRUE(row.ok()) << v;
    EXPECT_EQ((*row)[0], Value(v));
  }
}

TEST(CodecTest, BareNullWordStillNullForNonStringFields) {
  // Backward compatibility with pre-\N encoders, where no legal value
  // collides with the word.
  Codec codec(StreamSchema());
  auto row = DecodeOne(codec, "NULL|7");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[0].is_null());
  EXPECT_EQ((*row)[1], Value(7));
}

TEST(CodecTest, SchemaHeaderEscapedFieldNames) {
  Schema s({{"pipe|name", DataType::kInt64},
            {"back\\slash", DataType::kString},
            {"plain", DataType::kDouble}});
  Codec codec(s);
  std::string header = codec.EncodeSchemaHeader();
  auto decoded = Codec::DecodeSchemaHeader(header);
  ASSERT_TRUE(decoded.ok()) << header;
  EXPECT_EQ(*decoded, s);
}

TEST(CodecTest, SchemaHeaderEmptyFieldNameRejected) {
  EXPECT_FALSE(Codec::DecodeSchemaHeader(":int|b:int").ok());
  EXPECT_FALSE(Codec::DecodeSchemaHeader("a:int|:string").ok());
}

// ---------------------------------------------------------------------------
// Gateway: multi-client fan-in, fault injection, flow control
// ---------------------------------------------------------------------------

// One ingress over `shards` receptors, each feeding its own basket
// "in.s<k>"; the single-reactor gateway is shards == 1.
struct GatewayFixture {
  explicit GatewayFixture(size_t shards = 1, size_t basket_capacity = 0,
                          size_t max_batch_rows = 1024)
      : clock(SystemClock::Get()) {
    for (size_t k = 0; k < shards; ++k) {
      auto b = std::make_shared<core::Basket>("in.s" + std::to_string(k),
                                              StreamSchema());
      if (basket_capacity > 0) b->SetCapacity(basket_capacity);
      auto r = std::make_shared<core::Receptor>("r.s" + std::to_string(k));
      r->AddOutput(b);
      baskets.push_back(std::move(b));
      receptors.push_back(std::move(r));
    }
    ShardedIngressOptions opts;
    opts.max_batch_rows = max_batch_rows;
    ingress = std::make_unique<ShardedIngress>(receptors, Codec(StreamSchema()),
                                               clock, opts);
  }

  bool WaitFinished(int timeout_ms = 5000) {
    for (int i = 0; i < timeout_ms && !ingress->finished(); ++i) {
      clock->SleepFor(1000);
    }
    return ingress->finished();
  }

  uint64_t TotalBasketRows() const {
    uint64_t total = 0;
    for (const auto& b : baskets) total += b->size();
    return total;
  }

  SystemClock* clock;
  std::vector<core::BasketPtr> baskets;
  std::vector<core::ReceptorPtr> receptors;
  std::unique_ptr<ShardedIngress> ingress;
};

TEST(GatewayTest, MultiClientFanIn) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());

  constexpr int kClients = 8;
  constexpr uint64_t kPerClient = 200;
  std::vector<std::thread> sensors;
  for (int c = 0; c < kClients; ++c) {
    sensors.emplace_back([&, c] {
      Sensor::Options opts;
      opts.num_tuples = kPerClient;
      opts.tuples_per_write = 17;
      opts.seed = static_cast<uint64_t>(c) + 1;
      ASSERT_TRUE(
          Sensor::Run("127.0.0.1", fx.ingress->port(), opts, fx.clock).ok());
    });
  }
  for (auto& t : sensors) t.join();
  ASSERT_TRUE(fx.WaitFinished());

  EXPECT_EQ(fx.ingress->connections_accepted(), kClients);
  EXPECT_EQ(fx.ingress->tuples_received(), kClients * kPerClient);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 0u);
  EXPECT_EQ(fx.baskets[0]->size(), kClients * kPerClient);
  fx.ingress->Stop();
}

TEST(GatewayTest, StopWithConnectedIdleClientReturnsQuickly) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());

  // A sensor that connects and then says nothing — the regression that used
  // to leave Stop() hanging in join() behind a blocked ReadLine.
  auto idle = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(idle.ok());
  for (int i = 0; i < 2000 && fx.ingress->active_connections() == 0; ++i) {
    fx.clock->SleepFor(1000);
  }
  ASSERT_EQ(fx.ingress->active_connections(), 1u);

  const auto t0 = std::chrono::steady_clock::now();
  fx.ingress->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  // The accepted stream was shut down, not leaked: the idle client sees EOF.
  auto line = idle->ReadLine();
  EXPECT_FALSE(line.ok());
}

TEST(GatewayTest, MalformedBurstCountedNotSilent) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());
  auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(conn.ok());
  Codec codec(StreamSchema());
  // One write so the whole burst lands in the drain loop together; valid
  // and malformed lines interleave.
  ASSERT_TRUE(conn->WriteAll(codec.EncodeSchemaHeader() +
                             "\n1|10\ngarbage\n2|20\n3|not_an_int\n4|40\n"
                             "5|\n6|60\n")
                  .ok());
  ASSERT_TRUE(conn->ShutdownWrite().ok());
  ASSERT_TRUE(fx.WaitFinished());
  EXPECT_EQ(fx.ingress->tuples_received(), 4u);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 3u);
  EXPECT_EQ(fx.baskets[0]->size(), 4u);
  fx.ingress->Stop();
}

TEST(GatewayTest, MidStreamDisconnectKeepsServingOthers) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());
  Codec codec(StreamSchema());

  // Client 1 dies mid-stream with a hard reset (SO_LINGER 0 => RST).
  {
    auto doomed = TcpStream::Connect("127.0.0.1", fx.ingress->port());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(
        doomed->WriteAll(codec.EncodeSchemaHeader() + "\n1|10\n2|2").ok());
    struct linger lg = {1, 0};
    ::setsockopt(doomed->fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    doomed->Close();
  }

  // Client 2 streams normally and must be unaffected.
  auto ok_client = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(ok_client.ok());
  ASSERT_TRUE(ok_client
                  ->WriteAll(codec.EncodeSchemaHeader() +
                             "\n7|70\n8|80\n9|90\n")
                  .ok());
  ASSERT_TRUE(ok_client->ShutdownWrite().ok());
  ASSERT_TRUE(fx.WaitFinished());
  // Whatever the reset connection managed to deliver is kept; client 2's
  // three tuples all arrive.
  EXPECT_GE(fx.ingress->tuples_received(), 3u);
  EXPECT_GE(fx.baskets[0]->size(), 3u);
  Table contents = fx.baskets[0]->Peek();
  int from_ok_client = 0;
  for (size_t i = 0; i < contents.num_rows(); ++i) {
    const int64_t payload = contents.GetRow(i)[1].int_value();
    if (payload == 70 || payload == 80 || payload == 90) ++from_ok_client;
  }
  EXPECT_EQ(from_ok_client, 3);
  fx.ingress->Stop();
}

TEST(GatewayTest, TornCompleteLineAtEofDelivered) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());
  auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(conn.ok());
  Codec codec(StreamSchema());
  // The final line is missing its newline; it is still a whole tuple.
  ASSERT_TRUE(
      conn->WriteAll(codec.EncodeSchemaHeader() + "\n5|50\n7|7").ok());
  ASSERT_TRUE(conn->ShutdownWrite().ok());
  ASSERT_TRUE(fx.WaitFinished());
  EXPECT_EQ(fx.ingress->tuples_received(), 2u);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 0u);
  fx.ingress->Stop();
}

TEST(GatewayTest, TornPartialLineAtEofCountedDropped) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());
  auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(conn.ok());
  Codec codec(StreamSchema());
  // The connection tears in the middle of the second tuple's payload.
  ASSERT_TRUE(
      conn->WriteAll(codec.EncodeSchemaHeader() + "\n5|50\n8|").ok());
  ASSERT_TRUE(conn->ShutdownWrite().ok());
  ASSERT_TRUE(fx.WaitFinished());
  EXPECT_EQ(fx.ingress->tuples_received(), 1u);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 1u);
  fx.ingress->Stop();
}

TEST(GatewayTest, BackpressureEngagesAndReleasesWithoutLoss) {
  GatewayFixture fx(/*shards=*/1, /*basket_capacity=*/0,
                    /*max_batch_rows=*/4);
  fx.baskets[0]->SetCapacity(/*high_watermark=*/8, /*low_watermark=*/4);
  ASSERT_TRUE(fx.ingress->Start().ok());

  constexpr uint64_t kTuples = 50;
  auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(conn.ok());
  Codec codec(StreamSchema());
  std::string payload = codec.EncodeSchemaHeader() + "\n";
  for (uint64_t i = 0; i < kTuples; ++i) {
    payload += std::to_string(i) + "|" + std::to_string(i * 10) + "\n";
  }
  ASSERT_TRUE(conn->WriteAll(payload).ok());
  ASSERT_TRUE(conn->ShutdownWrite().ok());

  // With no consumer the valve must close at the high watermark: the
  // basket holds at most 8 rows and the gateway stops reading.
  for (int i = 0; i < 5000 && !fx.ingress->backpressured(); ++i) {
    fx.clock->SleepFor(1000);
  }
  EXPECT_TRUE(fx.ingress->backpressured());
  EXPECT_LE(fx.baskets[0]->size(), 8u);
  EXPECT_LT(fx.ingress->tuples_received(), kTuples);

  // Draining past the low watermark releases it; every tuple eventually
  // arrives and none were dropped anywhere (push-back, not drop).
  uint64_t taken = 0;
  for (int i = 0; i < 5000 && !fx.ingress->finished(); ++i) {
    taken += fx.baskets[0]->TakeAll().num_rows();
    fx.clock->SleepFor(1000);
  }
  ASSERT_TRUE(fx.ingress->finished());
  taken += fx.baskets[0]->TakeAll().num_rows();

  EXPECT_EQ(taken, kTuples);
  EXPECT_EQ(fx.ingress->tuples_received(), kTuples);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 0u);
  EXPECT_EQ(fx.baskets[0]->stats().dropped, 0u);
  EXPECT_LE(fx.baskets[0]->stats().peak_rows, 8u);
  EXPECT_GE(fx.ingress->backpressure_engagements(), 1u);
  EXPECT_FALSE(fx.ingress->backpressured());
  fx.ingress->Stop();
}

TEST(GatewayTest, HandshakeFailureDropsOnlyThatConnection) {
  GatewayFixture fx;
  ASSERT_TRUE(fx.ingress->Start().ok());
  Codec codec(StreamSchema());

  auto bad = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(bad->WriteAll("wrong:int|schema:string\n1|x\n").ok());
  ASSERT_TRUE(bad->ShutdownWrite().ok());

  auto good = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(
      good->WriteAll(codec.EncodeSchemaHeader() + "\n1|10\n2|20\n").ok());
  ASSERT_TRUE(good->ShutdownWrite().ok());

  ASSERT_TRUE(fx.WaitFinished());
  EXPECT_EQ(fx.ingress->connections_accepted(), 2u);
  EXPECT_EQ(fx.ingress->tuples_received(), 2u);
  EXPECT_EQ(fx.baskets[0]->size(), 2u);
  fx.ingress->Stop();
}

// Regression for finished() on an idle gateway: probes (STATS, SEQ) and
// header-less connect-and-close are not sensor sessions, and the window
// between the acceptor counting a connection and the shard taking it must
// not read as "every connection closed". A server polling finished()
// would otherwise shut down on the first monitoring probe. One thread
// spins on finished() for the whole probe storm; it must never read true.
TEST(GatewayTest, ProbesNeverReadAsFinishedSession) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    GatewayFixture fx(shards);
    ASSERT_TRUE(fx.ingress->Start().ok());

    std::atomic<bool> done{false};
    std::atomic<bool> saw_finished{false};
    std::thread spinner([&] {
      while (!done.load()) {
        if (fx.ingress->finished()) saw_finished.store(true);
      }
    });
    for (int i = 0; i < 300; ++i) {
      auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
      ASSERT_TRUE(conn.ok());
      if (i % 3 == 2) continue;  // header-less: connect, then close
      ASSERT_TRUE(conn->WriteAll(i % 3 == 0 ? "STATS\n" : "SEQ\n").ok());
      EXPECT_TRUE(conn->ReadLine().ok());
    }
    for (int i = 0; i < 5000 && (fx.ingress->connections_accepted() < 300 ||
                                 fx.ingress->active_connections() > 0);
         ++i) {
      fx.clock->SleepFor(1000);
    }
    EXPECT_EQ(fx.ingress->connections_accepted(), 300u);
    EXPECT_EQ(fx.ingress->active_connections(), 0u);
    done.store(true);
    spinner.join();
    EXPECT_FALSE(saw_finished.load()) << shards << " shard(s)";
    EXPECT_FALSE(fx.ingress->finished());

    // One real sensor session, and the gateway does read as finished.
    Sensor::Options opts;
    opts.num_tuples = 10;
    ASSERT_TRUE(
        Sensor::Run("127.0.0.1", fx.ingress->port(), opts, fx.clock).ok());
    EXPECT_TRUE(fx.WaitFinished());
    EXPECT_EQ(fx.ingress->tuples_received(), 10u);
    fx.ingress->Stop();
  }
}

// ---------------------------------------------------------------------------
// Reactor correctness regressions (wake pipe ordering, EAGAIN writes)
// ---------------------------------------------------------------------------

// Regression for the lost reactor wakeup: the old drain path read the
// self-pipe empty and *then* cleared the pending flag, so a Notify() that
// raced into that window saw pending == true, skipped its write, and the
// wakeup evaporated — the reactor slept until the idle timeout. WakePipe
// clears before each read (loop form); this test drives a notify into the
// exact window via the drain hook. On the reverted ordering the hook's
// Notify() returns false (suppressed by the stale flag) with the pipe
// already empty, and the first expectation fails.
TEST(WakePipeTest, WakePipeLostWakeupRegression) {
  WakePipe wp;
  ASSERT_TRUE(wp.Open().ok());
  ASSERT_TRUE(wp.Notify());    // byte in flight, pending set
  EXPECT_FALSE(wp.Notify());   // deduped while undrained

  bool racing_notify_observable = false;
  int hook_calls = 0;
  wp.set_drain_hook_for_test([&] {
    // Fires right after a read(2) inside Drain — the historical race
    // window between "pipe drained" and "flag cleared".
    if (++hook_calls == 1) racing_notify_observable = wp.Notify();
  });
  wp.Drain();

  // The racing notify must have made itself observable: with clear-before-
  // read it wins the exchange (the flag was already cleared) and writes a
  // byte that a later pass of the same Drain consumes.
  EXPECT_TRUE(racing_notify_observable);
  EXPECT_GE(hook_calls, 2) << "Drain did not loop back for the raced byte";

  // And the pipe is not wedged: a fresh notify writes a real byte (a
  // stranded pending flag would suppress it forever).
  wp.set_drain_hook_for_test(nullptr);
  EXPECT_TRUE(wp.Notify());
  wp.Drain();
  wp.Close();
}

// Regression for TcpStream::WriteAll on a non-blocking socket: the old
// loop treated EAGAIN like a hard error, so a reply that overran the send
// buffer (slow scraper, tiny window) surfaced as IOError mid-line. Now it
// polls for POLLOUT and resumes. Shrunken SO_SNDBUF + a reader that only
// starts draining after a delay force the stall deterministically.
TEST(SocketTest, WriteAllRidesOutFullSendBuffer) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpStream::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  auto server = listener->Accept();
  ASSERT_TRUE(server.ok());

  // Minimum send buffer (the kernel clamps up to its floor) and a payload
  // orders of magnitude larger, so the first writes hit EAGAIN while the
  // reader is still asleep.
  int sndbuf = 1;
  ::setsockopt(server->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  ASSERT_TRUE(server->SetNonBlocking(true).ok());
  const std::string payload(4 << 20, 'x');

  std::string received;
  std::thread reader([&] {
    ::usleep(50 * 1000);  // guarantee the writer fills the buffer first
    char buf[4096];
    ssize_t n;
    while ((n = ::read(client->fd(), buf, sizeof(buf))) > 0) {
      received.append(buf, static_cast<size_t>(n));
    }
  });
  Status st = server->WriteAll(payload);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(server->ShutdownWrite().ok());
  reader.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

// ---------------------------------------------------------------------------
// Sharded gateway: fan-in, fault injection, per-shard flow control
// ---------------------------------------------------------------------------

TEST(ShardedGatewayTest, FanInAcrossShardsLossless) {
  GatewayFixture fx(/*shards=*/4);
  ASSERT_TRUE(fx.ingress->Start().ok());

  constexpr int kClients = 12;
  constexpr uint64_t kPerClient = 100;
  // Every client is connected, and accepted, before any of them streams,
  // so the server holds kClients distinct fds at once: the premise of the
  // spread check below. Clients that connect and finish one after another
  // may legally reuse one fd, and so one shard, for the whole fleet.
  Codec codec(StreamSchema());
  std::vector<TcpStream> clients;
  for (int c = 0; c < kClients; ++c) {
    auto stream = TcpStream::Connect("127.0.0.1", fx.ingress->port());
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream->WriteAll(codec.EncodeSchemaHeader() + "\n").ok());
    clients.push_back(std::move(*stream));
  }
  for (int i = 0; i < 5000 && fx.ingress->connections_accepted() < kClients;
       ++i) {
    fx.clock->SleepFor(1000);
  }
  ASSERT_EQ(fx.ingress->connections_accepted(), kClients);
  std::vector<std::thread> sensors;
  for (int c = 0; c < kClients; ++c) {
    sensors.emplace_back([&, c] {
      TcpStream& stream = clients[static_cast<size_t>(c)];
      std::string burst;
      for (uint64_t i = 1; i <= kPerClient; ++i) {
        burst += std::to_string(i) + "|" + std::to_string(c) + "\n";
        if (i % 13 == 0 || i == kPerClient) {
          ASSERT_TRUE(stream.WriteAll(burst).ok());
          burst.clear();
        }
      }
      ASSERT_TRUE(stream.ShutdownWrite().ok());
      while (stream.ReadLine().ok()) {
      }  // until the gateway closes its end
    });
  }
  for (auto& t : sensors) t.join();
  ASSERT_TRUE(fx.WaitFinished());

  EXPECT_EQ(fx.ingress->connections_accepted(), kClients);
  EXPECT_EQ(fx.ingress->tuples_received(), kClients * kPerClient);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 0u);
  EXPECT_EQ(fx.TotalBasketRows(), kClients * kPerClient);

  // fd-hash routing spread the fleet: every tuple is accounted to exactly
  // one shard, and more than one shard did real work.
  uint64_t per_shard_sum = 0;
  size_t shards_used = 0;
  for (size_t k = 0; k < fx.ingress->num_shards(); ++k) {
    const ShardedIngress::ShardStats s = fx.ingress->shard_stats(k);
    per_shard_sum += s.tuples;
    if (s.connections > 0) ++shards_used;
  }
  EXPECT_EQ(per_shard_sum, kClients * kPerClient);
  EXPECT_GE(shards_used, 2u);
  fx.ingress->Stop();
}

TEST(ShardedGatewayTest, MidStreamResetLeavesSiblingShardsLossless) {
  GatewayFixture fx(/*shards=*/4);
  ASSERT_TRUE(fx.ingress->Start().ok());
  Codec codec(StreamSchema());

  // One client dies mid-tuple with a hard RST on whatever shard it hashed
  // to; streams on the three sibling shards must not lose a byte.
  {
    auto doomed = TcpStream::Connect("127.0.0.1", fx.ingress->port());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(
        doomed->WriteAll(codec.EncodeSchemaHeader() + "\n1|10\n2|2").ok());
    struct linger lg = {1, 0};
    ::setsockopt(doomed->fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    doomed->Close();
  }

  constexpr int kSurvivors = 6;
  constexpr uint64_t kPerClient = 50;
  std::vector<std::thread> sensors;
  for (int c = 0; c < kSurvivors; ++c) {
    sensors.emplace_back([&, c] {
      Sensor::Options opts;
      opts.num_tuples = kPerClient;
      opts.seed = static_cast<uint64_t>(c) + 100;
      ASSERT_TRUE(
          Sensor::Run("127.0.0.1", fx.ingress->port(), opts, fx.clock).ok());
    });
  }
  for (auto& t : sensors) t.join();
  ASSERT_TRUE(fx.WaitFinished());

  // All survivor tuples arrive; the reset costs at most its own in-flight
  // tuples and drops nothing counted as malformed.
  EXPECT_GE(fx.ingress->tuples_received(), kSurvivors * kPerClient);
  EXPECT_LE(fx.ingress->tuples_received(), kSurvivors * kPerClient + 2);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 0u);
  EXPECT_EQ(fx.TotalBasketRows(), fx.ingress->tuples_received());
  fx.ingress->Stop();
}

// Finds which shard a just-routed connection landed on by diffing the
// per-shard lifetime connection counts around the connect.
int ShardOf(GatewayFixture& fx, const std::vector<uint64_t>& before) {
  for (int waited = 0; waited < 5000; ++waited) {
    for (size_t k = 0; k < fx.ingress->num_shards(); ++k) {
      if (fx.ingress->shard_stats(k).connections > before[k]) {
        return static_cast<int>(k);
      }
    }
    fx.clock->SleepFor(1000);
  }
  return -1;
}

std::vector<uint64_t> ShardConnSnapshot(GatewayFixture& fx) {
  std::vector<uint64_t> v;
  for (size_t k = 0; k < fx.ingress->num_shards(); ++k) {
    v.push_back(fx.ingress->shard_stats(k).connections);
  }
  return v;
}

TEST(ShardedGatewayTest, BackpressureIsPerShardIndependent) {
  // Tiny per-shard baskets and batches so one client can wedge its shard's
  // credit valve while the sibling shard keeps streaming.
  GatewayFixture fx(/*shards=*/2, /*basket_capacity=*/8,
                    /*max_batch_rows=*/4);
  ASSERT_TRUE(fx.ingress->Start().ok());
  Codec codec(StreamSchema());

  // Land one client on each shard. Routing is by accepted-fd modulo, and
  // each attempt allocates exactly two fds (client + accepted), so the
  // accepted fd's parity — hence the shard — repeats; a held spacer fd per
  // duplicate shifts the allocation by one and flips the next routing.
  std::vector<std::optional<TcpStream>> clients(2);
  std::vector<TcpStream> parked;  // keeps fds distinct while hunting
  std::vector<int> spacers;
  for (int attempts = 0; attempts < 32; ++attempts) {
    auto before = ShardConnSnapshot(fx);
    auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
    ASSERT_TRUE(conn.ok());
    int shard = ShardOf(fx, before);
    ASSERT_GE(shard, 0) << "connection never routed";
    if (!clients[shard].has_value()) {
      clients[shard].emplace(std::move(*conn));
    } else {
      parked.push_back(std::move(*conn));  // duplicate shard; hold the fd
      if (int fd = ::dup(0); fd >= 0) spacers.push_back(fd);
    }
    if (clients[0].has_value() && clients[1].has_value()) break;
  }
  ASSERT_TRUE(clients[0].has_value() && clients[1].has_value())
      << "could not place a client on each shard";
  for (int fd : spacers) ::close(fd);
  parked.clear();

  // Client 0 floods shard 0 past its basket capacity with nobody draining:
  // that shard alone must engage backpressure.
  std::string flood = codec.EncodeSchemaHeader() + "\n";
  for (int i = 0; i < 64; ++i) flood += std::to_string(i) + "|1\n";
  ASSERT_TRUE(clients[0]->WriteAll(flood).ok());
  for (int i = 0; i < 5000 && !fx.ingress->shard_stats(0).backpressured; ++i) {
    fx.clock->SleepFor(1000);
  }
  ASSERT_TRUE(fx.ingress->shard_stats(0).backpressured);
  EXPECT_FALSE(fx.ingress->shard_stats(1).backpressured);

  // The sibling shard still accepts a full stream while shard 0 is wedged.
  const uint64_t shard1_before = fx.ingress->shard_stats(1).tuples;
  ASSERT_TRUE(clients[1]
                  ->WriteAll(codec.EncodeSchemaHeader() +
                             "\n100|1\n101|1\n102|1\n")
                  .ok());
  for (int i = 0;
       i < 5000 && fx.ingress->shard_stats(1).tuples < shard1_before + 3;
       ++i) {
    fx.clock->SleepFor(1000);
  }
  EXPECT_EQ(fx.ingress->shard_stats(1).tuples, shard1_before + 3);
  EXPECT_TRUE(fx.ingress->shard_stats(0).backpressured);

  // Draining shard 0's basket releases only its valve; every flooded tuple
  // eventually lands (push-back, never drop).
  ASSERT_TRUE(clients[0]->ShutdownWrite().ok());
  ASSERT_TRUE(clients[1]->ShutdownWrite().ok());
  uint64_t taken = 0;
  for (int i = 0; i < 10000 && fx.ingress->shard_stats(0).tuples < 64; ++i) {
    taken += fx.baskets[0]->TakeAll().num_rows();
    fx.clock->SleepFor(1000);
  }
  taken += fx.baskets[0]->TakeAll().num_rows();
  EXPECT_EQ(fx.ingress->shard_stats(0).tuples, 64u);
  EXPECT_EQ(taken, 64u);
  EXPECT_EQ(fx.ingress->tuples_dropped(), 0u);
  EXPECT_GE(fx.ingress->shard_stats(0).backpressure_engagements, 1u);
  EXPECT_EQ(fx.ingress->shard_stats(1).backpressure_engagements, 0u);
  fx.ingress->Stop();
}

// Scrapes "SEQ" through a fresh connection; the shard answering is
// whichever the new fd hashes to.
int64_t ShardedScrapeSeq(uint16_t port) {
  auto conn = TcpStream::Connect("127.0.0.1", port);
  if (!conn.ok()) return -1;
  if (!conn->WriteAll("SEQ\n").ok()) return -1;
  auto reply = conn->ReadLine();
  if (!reply.ok() || reply->rfind("SEQ ", 0) != 0) return -1;
  return std::atoll(reply->c_str() + 4);
}

TEST(ShardedGatewayTest, SeqResumeConsistentAcrossShardRehash) {
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("sharded_seq_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::remove(log_path.c_str());
  auto log = storage::IngestLog::Open(log_path, storage::FsyncPolicy::kNone);
  ASSERT_TRUE(log.ok());

  GatewayFixture fx(/*shards=*/2);
  fx.ingress->EnableIngestLog(log->get());
  ASSERT_TRUE(fx.ingress->Start().ok());

  constexpr uint64_t kTuples = 40;
  Sensor::Options opts;
  opts.num_tuples = kTuples;
  ASSERT_TRUE(
      Sensor::Run("127.0.0.1", fx.ingress->port(), opts, fx.clock).ok());
  ASSERT_TRUE(fx.WaitFinished());
  ASSERT_EQ(fx.ingress->tuples_received(), kTuples);

  // Each scrape opens a fresh connection, so consecutive probes hash to
  // different shards (ascending fds, 2 shards). Every one must report the
  // logical stream total, not whichever shard's slice it landed on.
  for (int probe = 0; probe < 4; ++probe) {
    EXPECT_EQ(ShardedScrapeSeq(fx.ingress->port()),
              static_cast<int64_t>(kTuples))
        << "probe " << probe << " saw a single shard's slice";
  }
  fx.ingress->Stop();
  std::remove(log_path.c_str());
}

// The STATS reply must arrive complete even when the scraper advertises a
// minimal receive window and only starts reading after a delay — the
// short-write regression on the reply path (WriteAllRidesOutFullSendBuffer
// covers the underlying EAGAIN fix).
TEST(ShardedGatewayTest, StatsScrapeCompleteThroughTinyReceiveWindow) {
  GatewayFixture fx(/*shards=*/8);
  ASSERT_TRUE(fx.ingress->Start().ok());

  auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
  ASSERT_TRUE(conn.ok());
  int rcvbuf = 1;  // kernel clamps to its floor — the smallest legal window
  ::setsockopt(conn->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  ASSERT_TRUE(conn->WriteAll("STATS\n").ok());
  SystemClock::Get()->SleepFor(100 * 1000);  // let the reply queue up

  std::string reply;
  char c;
  while (::read(conn->fd(), &c, 1) == 1) {
    reply.push_back(c);
    if (c == '\n') break;
  }
  EXPECT_EQ(reply.rfind("STATS ", 0), 0u) << reply;
  EXPECT_NE(reply.find(" shards=8 "), std::string::npos) << reply;
  EXPECT_NE(reply.find(" shard.7.backpressured="), std::string::npos) << reply;
  // The last basket field made it through: nothing was truncated.
  EXPECT_NE(reply.find(" basket.in.s7.credit_stalls=0\n"), std::string::npos)
      << reply;
  EXPECT_EQ(reply.back(), '\n');
  fx.ingress->Stop();
}

TEST(ShardedGatewayTest, StopWithIdleClientsReturnsQuickly) {
  GatewayFixture fx(/*shards=*/4);
  ASSERT_TRUE(fx.ingress->Start().ok());

  std::vector<TcpStream> idlers;
  for (int i = 0; i < 8; ++i) {
    auto conn = TcpStream::Connect("127.0.0.1", fx.ingress->port());
    ASSERT_TRUE(conn.ok());
    idlers.push_back(std::move(*conn));
  }
  for (int i = 0; i < 5000 && fx.ingress->active_connections() < 8; ++i) {
    fx.clock->SleepFor(1000);
  }
  ASSERT_EQ(fx.ingress->active_connections(), 8u);

  const auto t0 = std::chrono::steady_clock::now();
  fx.ingress->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  // Every idler was shut down, not leaked: each sees EOF.
  for (auto& idler : idlers) {
    EXPECT_FALSE(idler.ReadLine().ok());
  }
}

}  // namespace
}  // namespace datacell::net
