// Micro-benchmarks of the kernel primitives the DataCell is built from:
// selection, the delete-with-shift operator (§6.2's custom operator), hash
// join, aggregation, basket append/consume, basket-expression evaluation
// and the network codec. google-benchmark harness.

#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <string_view>

#include "core/basket.h"
#include "core/basket_expression.h"
#include "expr/eval.h"
#include "net/codec.h"
#include "net/framing.h"
#include "ops/aggregate.h"
#include "ops/join.h"
#include "ops/select.h"
#include "ops/sort.h"
#include "util/random.h"

namespace datacell {
namespace {

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table MakeTuples(size_t n, uint64_t seed = 7) {
  Random rng(seed);
  Table t(StreamSchema());
  t.column(0).ints().reserve(n);
  t.column(1).ints().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.column(0).AppendInt(static_cast<int64_t>(i));
    t.column(1).AppendInt(static_cast<int64_t>(rng.Uniform(10'000)));
  }
  return t;
}

void BM_SelectRange(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto sel = ops::SelectRange(t, "payload", Value(100), true, Value(110),
                                false);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectRange)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_PredicateFastPath(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  ExprPtr pred = Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(100)),
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(110)));
  EvalContext ctx;
  for (auto _ : state) {
    auto sel = EvalPredicate(t, *pred, ctx);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateFastPath)->Arg(100'000)->Arg(1'000'000);

// Ablation: the same predicate forced through the generic boolean-column
// evaluator (a double NOT defeats the column-vs-constant fast path), to
// quantify the candidate-list select pattern.
void BM_PredicateGenericPath(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  ExprPtr cmp = Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(100)),
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(110)));
  ExprPtr pred = Expr::Un(UnaryOp::kNot, Expr::Un(UnaryOp::kNot, cmp));
  EvalContext ctx;
  for (auto _ : state) {
    auto sel = EvalPredicate(t, *pred, ctx);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateGenericPath)->Arg(100'000)->Arg(1'000'000);

// The paper's custom operator: remove a tuple set and shift survivors in
// one pass (vs. re-materializing the survivors with Take).
void BM_DeleteWithShift(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table base = MakeTuples(n);
  SelVector every10;
  for (uint32_t i = 0; i < n; i += 10) every10.push_back(i);
  for (auto _ : state) {
    state.PauseTiming();
    Table t = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(t.EraseRows(every10));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeleteWithShift)->Arg(100'000)->Arg(1'000'000);

void BM_DeleteByRematerialize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table base = MakeTuples(n);
  SelVector keep;
  for (uint32_t i = 0; i < n; ++i) {
    if (i % 10 != 0) keep.push_back(i);
  }
  for (auto _ : state) {
    Table survivors = base.Take(keep);
    benchmark::DoNotOptimize(survivors);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeleteByRematerialize)->Arg(100'000)->Arg(1'000'000);

void BM_HashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table left = MakeTuples(n, 1);
  Table right = MakeTuples(n / 4, 2);
  for (auto _ : state) {
    auto m = ops::HashJoinIndices(left, right, {{"payload", "payload"}});
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(10'000)->Arg(100'000);

void BM_GroupByAggregate(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  EvalContext ctx;
  std::vector<ops::GroupItem> groups = {
      {Expr::Bin(BinaryOp::kMod, Expr::Col("payload"), Expr::Lit(100)), "g"}};
  std::vector<ops::AggItem> aggs = {
      {ops::AggFunc::kCountStar, nullptr, "n"},
      {ops::AggFunc::kAvg, Expr::Col("payload"), "avg"}};
  for (auto _ : state) {
    auto out = ops::Aggregate(t, groups, aggs, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAggregate)->Arg(100'000);

// The grouped aggregates of a standing query, one 1024-row firing per
// iteration: Arg 0 groups by `payload % 16` with count/sum/min/max, Arg 1
// groups by `payload` itself (about a thousand groups) with count/sum.
void BM_GroupByBatch(benchmark::State& state) {
  Table t = MakeTuples(1024);
  EvalContext ctx;
  const bool by_key = state.range(0) == 1;
  std::vector<ops::GroupItem> groups = {
      {by_key ? Expr::Col("payload")
              : Expr::Bin(BinaryOp::kMod, Expr::Col("payload"), Expr::Lit(16)),
       "g"}};
  std::vector<ops::AggItem> aggs = {
      {ops::AggFunc::kCountStar, nullptr, "n"},
      {ops::AggFunc::kSum, Expr::Col("payload"), "sv"}};
  if (!by_key) {
    aggs.push_back({ops::AggFunc::kMin, Expr::Col("payload"), "mn"});
    aggs.push_back({ops::AggFunc::kMax, Expr::Col("payload"), "mx"});
  }
  for (auto _ : state) {
    auto out = ops::Aggregate(t, groups, aggs, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_GroupByBatch)->Arg(0)->Arg(1);

// A `top 128` window ordered by arrival tag over a 1024-row basket: the
// eight firings that drain one batch. The refill is off the clock.
void BM_TopNWindow(benchmark::State& state) {
  Table batch = MakeTuples(1024);
  auto basket = std::make_shared<core::Basket>("b", StreamSchema());
  core::BasketExpression be(basket);
  be.OrderBy({{Expr::Col("tag"), true}}).Top(128);
  EvalContext ctx;
  for (auto _ : state) {
    state.PauseTiming();
    auto acc = basket->Append(batch, 0);
    benchmark::DoNotOptimize(acc);
    state.ResumeTiming();
    for (int f = 0; f < 8; ++f) {
      auto out = be.Evaluate(ctx);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TopNWindow);

void BM_BasketAppendTake(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table batch = MakeTuples(n);
  core::Basket basket("b", StreamSchema());
  for (auto _ : state) {
    auto acc = basket.Append(batch, 0);
    benchmark::DoNotOptimize(acc);
    Table out = basket.TakeAll();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BasketAppendTake)->Arg(10'000)->Arg(100'000);

void BM_BasketExpressionWindow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table batch = MakeTuples(n);
  auto basket = std::make_shared<core::Basket>("b", StreamSchema());
  core::BasketExpression be(basket);
  be.Where(Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(10)));
  be.Consume(core::ConsumePolicy::kBatch);
  EvalContext ctx;
  for (auto _ : state) {
    auto acc = basket->Append(batch, 0);
    benchmark::DoNotOptimize(acc);
    auto out = be.Evaluate(ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BasketExpressionWindow)->Arg(10'000)->Arg(100'000);

void BM_CodecEncodeDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table batch = MakeTuples(n);
  net::Codec codec(StreamSchema());
  for (auto _ : state) {
    auto text = codec.EncodeTable(batch);
    benchmark::DoNotOptimize(text);
    Table decoded(StreamSchema());
    size_t start = 0;
    const std::string& payload = *text;
    while (start < payload.size()) {
      size_t end = payload.find('\n', start);
      if (end == std::string::npos) break;
      auto st = codec.DecodeInto(payload.substr(start, end - start), &decoded);
      benchmark::DoNotOptimize(st);
      start = end + 1;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecEncodeDecode)->Arg(1'000)->Arg(10'000);

// Rows per decoded batch: the wire generator's burst size, which is what
// the gateway sees per read at 250k tuples/s.
constexpr size_t kGatewayBatchRows = 50;

// The gateway's decode shape (ShardedIngress DrainBuffered): the received
// bytes sit in one framer buffer, lines come out as views, and each
// 50-line batch is decoded into typed lanes and flushed into a fresh
// batch table. Returns the rows decoded.
size_t DecodeLikeTheGateway(const net::Codec& codec,
                            net::BatchDecoder* decoder,
                            const std::string& payload) {
  net::LineFramer framer;
  framer.Append(payload);
  size_t rows = 0;
  while (true) {
    while (decoder->rows() < kGatewayBatchRows) {
      std::optional<std::string_view> line = framer.NextView();
      if (!line.has_value()) break;
      Status st = decoder->Add(*line);
      benchmark::DoNotOptimize(st);
    }
    if (decoder->rows() == 0) break;
    Table batch(codec.schema());
    Status st = decoder->Flush(&batch);
    benchmark::DoNotOptimize(st);
    rows += batch.num_rows();
    benchmark::DoNotOptimize(batch);
  }
  return rows;
}

void BM_CodecDecodeGatewayShape(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  net::Codec codec(StreamSchema());
  const std::string payload = *codec.EncodeTable(MakeTuples(n));
  net::BatchDecoder decoder(&codec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeLikeTheGateway(codec, &decoder, payload));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecDecodeGatewayShape)->Arg(10'000);

// A schema with every value kind the text protocol escapes or spells
// specially: strings with '|', '\' and newlines, doubles, bools, NULLs.
Table MakeMixedTuples(size_t n) {
  Random rng(11);
  Table t(Schema({{"id", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"ok", DataType::kBool},
                  {"name", DataType::kString}}));
  const char* const names[] = {"sensor-17", "a|b", "back\\slash",
                               "two\nlines", "NULL", "plain text"};
  for (size_t i = 0; i < n; ++i) {
    t.column(0).AppendInt(static_cast<int64_t>(rng.Next() >> 20));
    if (rng.Bernoulli(0.1)) {
      t.column(1).AppendNull();
    } else {
      t.column(1).AppendDouble(rng.NextDouble() * 1e4 - 5e3);
    }
    t.column(2).AppendBool(rng.Bernoulli(0.5));
    if (rng.Bernoulli(0.1)) {
      t.column(3).AppendNull();
    } else {
      t.column(3).AppendString(names[rng.Uniform(std::size(names))]);
    }
  }
  return t;
}

void BM_CodecMixedEncodeDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Table mixed = MakeMixedTuples(n);
  net::Codec codec(mixed.schema());
  net::BatchDecoder decoder(&codec);
  for (auto _ : state) {
    auto text = codec.EncodeTable(mixed);
    benchmark::DoNotOptimize(text);
    benchmark::DoNotOptimize(DecodeLikeTheGateway(codec, &decoder, *text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecMixedEncodeDecode)->Arg(10'000);

}  // namespace
}  // namespace datacell

BENCHMARK_MAIN();
