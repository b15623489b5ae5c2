// Micro-benchmarks (google-benchmark) for the hot primitives: event queue,
// signatures, evidence validation, golden oracle, list scheduler, and
// single-mode planning. These quantify the *simulator's* own costs, so
// users can size experiments; the experiment binaries measure the *modeled*
// system.

#include <benchmark/benchmark.h>

#include <map>

#include "src/common/block_pool.h"
#include "src/common/flat_map.h"
#include "src/common/packed_key.h"
#include "src/core/btr_system.h"
#include "src/core/evidence.h"
#include "src/core/golden.h"
#include "src/core/messages.h"
#include "src/core/planner.h"
#include "src/crypto/keys.h"
#include "src/rt/list_scheduler.h"
#include "src/sim/simulator.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < batch; ++i) {
      q.Schedule((i * 7919) % 1000, [&sink] { ++sink; });
    }
    while (!q.Empty()) {
      q.RunNext();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueueCancel(benchmark::State& state) {
  // O(1) cancel via generation-stamped handles (no shadow live-set).
  const int batch = static_cast<int>(state.range(0));
  std::vector<EventHandle> handles(batch);
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < batch; ++i) {
      handles[i] = q.Schedule((i * 7919) % 1000, [] {});
    }
    for (int i = 0; i < batch; i += 2) {
      q.Cancel(handles[i]);
    }
    while (!q.Empty()) {
      q.RunNext();
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueCancel)->Arg(1024)->Arg(16384);

// Packed (id, period) keys over the eight periods a node's buffers hold
// just before the runtime retires the older half.
std::vector<uint64_t> RetentionKeys() {
  Rng rng(7);
  std::vector<uint64_t> keys(4096);
  for (uint64_t& k : keys) {
    k = PackIdPeriod(static_cast<uint32_t>(rng.NextBelow(64)), rng.NextBelow(8));
  }
  return keys;
}

void BM_PeriodMapInsertFindDrop(benchmark::State& state) {
  // The runtime-state container: per-period flat-map buckets.
  const std::vector<uint64_t> keys = RetentionKeys();
  for (auto _ : state) {
    PeriodMap64<uint64_t> m;
    uint64_t sum = 0;
    for (uint64_t k : keys) {
      m.InsertOrAssign(k, k);
    }
    for (uint64_t k : keys) {
      sum += *m.Find(k);
    }
    m.DropPeriodsBelow(4);
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_PeriodMapInsertFindDrop);

void BM_StdMapInsertFindErase(benchmark::State& state) {
  // Reference point: the ordered container the runtime used to key by
  // pairs/tuples (same packed keys for comparability).
  const std::vector<uint64_t> keys = RetentionKeys();
  for (auto _ : state) {
    std::map<uint64_t, uint64_t> m;
    uint64_t sum = 0;
    for (uint64_t k : keys) {
      m[k] = k;
    }
    for (uint64_t k : keys) {
      sum += m.find(k)->second;
    }
    std::erase_if(m, [](const auto& kv) { return PeriodOfPackedKey(kv.first) < 4; });
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_StdMapInsertFindErase);

void BM_PooledPayloadAllocation(benchmark::State& state) {
  // Freelist-pooled payloads vs the make_shared the runtime used per send.
  auto pool = std::make_shared<BlockPool>();
  for (auto _ : state) {
    auto hb = MakePooled<Heartbeat>(pool);
    hb->period = 1;
    benchmark::DoNotOptimize(hb);
  }
}
BENCHMARK(BM_PooledPayloadAllocation);

void BM_MakeSharedPayloadAllocation(benchmark::State& state) {
  for (auto _ : state) {
    auto hb = std::make_shared<Heartbeat>();
    hb->period = 1;
    benchmark::DoNotOptimize(hb);
  }
}
BENCHMARK(BM_MakeSharedPayloadAllocation);

void BM_SignVerify(benchmark::State& state) {
  Rng rng(1);
  KeyStore keys(8, &rng);
  Signer signer = keys.SignerFor(NodeId(3));
  uint64_t digest = 0x1234;
  for (auto _ : state) {
    const Signature sig = signer.Sign(digest);
    benchmark::DoNotOptimize(keys.Verify(sig, digest));
    ++digest;
  }
}
BENCHMARK(BM_SignVerify);

void BM_GoldenOracle(benchmark::State& state) {
  Scenario scenario = MakeAvionicsScenario(6);
  uint64_t period = 0;
  for (auto _ : state) {
    GoldenOracle oracle(&scenario.workload);  // cold each iteration
    uint64_t acc = 0;
    for (TaskId sink : scenario.workload.SinkIds()) {
      acc ^= oracle.Golden(sink, period);
    }
    benchmark::DoNotOptimize(acc);
    ++period;
  }
}
BENCHMARK(BM_GoldenOracle);

void BM_EvidenceValidateCommission(benchmark::State& state) {
  Rng rng(1);
  KeyStore keys(4, &rng);
  Scenario scenario = MakeScadaScenario();
  const Dataflow& w = scenario.workload;
  EvidenceValidator validator(&keys, &w, EvidenceValidationConfig{});

  const TaskId estimator = w.FindTask("estimator");
  auto rec = std::make_shared<OutputRecord>();
  rec->task = estimator;
  rec->period = 3;
  rec->sender = NodeId(2);
  for (const ChannelSpec& ch : w.Inputs(estimator)) {
    const uint64_t digest = SourceValue(ch.from, 3);
    rec->claimed_inputs.push_back(SignedInput{
        ch.from, digest, keys.SignerFor(NodeId(0)).Sign(InputContentDigest(ch.from, 3, digest))});
  }
  rec->digest = 0xBAD;  // provably wrong
  rec->value_sig = keys.SignerFor(NodeId(2)).Sign(InputContentDigest(estimator, 3, rec->digest));
  rec->sender_sig = keys.SignerFor(NodeId(2)).Sign(rec->ContentDigest());

  auto ev = std::make_shared<EvidenceRecord>();
  ev->kind = EvidenceKind::kCommission;
  ev->declarer = NodeId(3);
  ev->period = 3;
  ev->record = rec;
  ev->declarer_sig = keys.SignerFor(NodeId(3)).Sign(ev->ContentDigest());

  for (auto _ : state) {
    benchmark::DoNotOptimize(validator.Validate(*ev));
  }
}
BENCHMARK(BM_EvidenceValidateCommission);

void BM_EvidenceValidateBatch(benchmark::State& state) {
  // The verifier-budget loop's batched path: one KeyStore pass for a chunk
  // of declarer signatures, memoized digests across items.
  Rng rng(1);
  KeyStore keys(4, &rng);
  Scenario scenario = MakeScadaScenario();
  const Dataflow& w = scenario.workload;
  EvidenceValidator validator(&keys, &w, EvidenceValidationConfig{});

  constexpr size_t kBatch = 8;
  std::vector<std::shared_ptr<EvidenceRecord>> records;
  const EvidenceRecord* batch[kBatch];
  for (size_t i = 0; i < kBatch; ++i) {
    auto ev = std::make_shared<EvidenceRecord>();
    ev->kind = EvidenceKind::kPathDeclaration;
    ev->declarer = NodeId(1);
    ev->period = i;
    ev->path_a = NodeId(1);
    ev->path_b = NodeId(2);
    ev->declarer_sig = keys.SignerFor(NodeId(1)).Sign(ev->SealDigest());
    batch[i] = ev.get();
    records.push_back(std::move(ev));
  }
  EvidenceVerdict verdicts[kBatch];
  for (auto _ : state) {
    validator.ValidateBatch(batch, kBatch, verdicts);
    benchmark::DoNotOptimize(verdicts[0].valid);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EvidenceValidateBatch);

void BM_ListScheduler(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<SchedJob> jobs;
  std::vector<SchedEdge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    jobs.push_back(SchedJob{i, i % 8, Microseconds(100), 0, Milliseconds(50), 0});
    if (i > 0) {
      edges.push_back(SchedEdge{i - 1, i, Microseconds(10)});
    }
  }
  ListScheduler scheduler(8, Milliseconds(50));
  for (auto _ : state) {
    auto result = scheduler.Schedule(jobs, edges);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ListScheduler)->Arg(32)->Arg(128)->Arg(256);

void BM_PlanSingleMode(benchmark::State& state) {
  Scenario scenario = MakeAvionicsScenario(static_cast<size_t>(state.range(0)));
  PlannerConfig config;
  config.max_faults = 1;
  Planner planner(&scenario.topology, &scenario.workload, config);
  for (auto _ : state) {
    auto plan = planner.PlanForMode(FaultSet(), {});
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanSingleMode)->Arg(4)->Arg(8)->Arg(16);

void BM_FullAvionicsRun(benchmark::State& state) {
  // End-to-end simulator throughput: one fault-free 100-period avionics run.
  Scenario scenario = MakeAvionicsScenario(6);
  for (auto _ : state) {
    BtrConfig config;
    config.planner.max_faults = 1;
    config.planner.recovery_bound = Milliseconds(500);
    BtrSystem sys(scenario, config);
    benchmark::DoNotOptimize(sys.Plan().ok());
    auto report = sys.Run(100);
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_FullAvionicsRun)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace btr

BENCHMARK_MAIN();
