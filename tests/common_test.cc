// Unit tests for src/common: ids, rng, hashing, status, stats, tables,
// math, the thread pool's nested-use contract, and the data-plane
// containers (flat maps, packed keys, small callables, block pools).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/common/block_pool.h"
#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/inline_vec.h"
#include "src/common/math_util.h"
#include "src/common/packed_key.h"
#include "src/common/rng.h"
#include "src/common/small_fn.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"

namespace btr {
namespace {

// --- types ---

TEST(Types, InvalidIdIsNotValid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_FALSE(NodeId::Invalid().valid());
}

TEST(Types, IdsCompareByValue) {
  EXPECT_EQ(NodeId(3), NodeId(3));
  EXPECT_NE(NodeId(3), NodeId(4));
  EXPECT_LT(NodeId(3), NodeId(4));
  EXPECT_LE(NodeId(3), NodeId(3));
  EXPECT_GT(NodeId(5), NodeId(4));
}

TEST(Types, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, TaskId>);
  static_assert(!std::is_same_v<LinkId, FlowId>);
  SUCCEED();
}

TEST(Types, IdsHashIntoUnorderedContainers) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId(1));
  set.insert(NodeId(1));
  set.insert(NodeId(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Types, ToStringFormats) {
  EXPECT_EQ(ToString(NodeId(7)), "n7");
  EXPECT_EQ(ToString(TaskId(2)), "t2");
  EXPECT_EQ(ToString(NodeId()), "n<invalid>");
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(Microseconds(1), 1000);
  EXPECT_EQ(Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(ToSecondsF(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillisF(Milliseconds(5)), 5.0);
}

// --- rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyMatchesP) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.NextGaussian(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.NextExponential(4.0));
  }
  EXPECT_NEAR(stats.mean(), 4.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- hash ---

TEST(Hash, DeterministicAndSpread) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(Hash, HasherLengthPrefixing) {
  Hasher a;
  a.AddString("ab").AddString("c");
  Hasher b;
  b.AddString("a").AddString("bc");
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(Hash, HasherVectorsDiffer) {
  Hasher a;
  a.AddVector(std::vector<int>{1, 2, 3});
  Hasher b;
  b.AddVector(std::vector<int>{1, 2, 4});
  EXPECT_NE(a.Digest(), b.Digest());
}

// --- status ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::Infeasible("no gap");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.ToString(), "INFEASIBLE: no gap");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = Status::NotFound("x");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// --- stats ---

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Percentile(0.5), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(0.99), 99.01, 0.01);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-1.0);
  h.Add(0.5);
  h.Add(9.9);
  h.Add(10.0);
  h.Add(25.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.BucketValue(0), 1u);
  EXPECT_EQ(h.BucketValue(9), 1u);
  EXPECT_EQ(h.total(), 5u);
}

// --- table ---

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CellFormatters) {
  EXPECT_EQ(CellInt(42), "42");
  EXPECT_EQ(CellDouble(1.5, 1), "1.5");
  EXPECT_EQ(CellDuration(1500.0), "1.50 us");
  EXPECT_EQ(CellDuration(2.5e9), "2.500 s");
  EXPECT_EQ(CellBytes(2048), "2.0 KB");
  EXPECT_EQ(CellPercent(0.254), "25.4%");
}

// --- math ---

TEST(MathUtil, LcmAndGcd) {
  EXPECT_EQ(Lcm64(4, 6), 12);
  EXPECT_EQ(LcmAll({2, 3, 5}), 30);
  EXPECT_EQ(LcmAll({10, 20, 40}), 40);
  EXPECT_EQ(Gcd64(12, 18), 6);
}

TEST(MathUtil, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(RoundUp(10, 4), 12);
  EXPECT_EQ(RoundUp(12, 4), 12);
}

// --- packed keys ---

TEST(PackedKey, RoundTripsPeriodInLowBits) {
  EXPECT_EQ(PeriodOfPackedKey(PackIdPeriod(0, 0)), 0u);
  EXPECT_EQ(PeriodOfPackedKey(PackIdPeriod(123, 456)), 456u);
  EXPECT_EQ(PeriodOfPackedKey(PackTaskReplicaPeriod(9, 3, 777)), 777u);
  EXPECT_EQ(PeriodOfPackedKey(PackNodePairPeriod(1, 2, 31337)), 31337u);
}

TEST(PackedKey, DistinctTuplesDistinctKeysPerPacker) {
  // Distinctness is per packer: each container uses exactly one packing,
  // so only same-packer collisions would corrupt state.
  std::set<uint64_t> id_period;
  std::set<uint64_t> task_replica;
  std::set<uint64_t> node_pair;
  for (uint32_t id = 0; id < 8; ++id) {
    for (uint64_t p = 0; p < 8; ++p) {
      id_period.insert(PackIdPeriod(id, p));
      task_replica.insert(PackTaskReplicaPeriod(id, 1, p));
      task_replica.insert(PackTaskReplicaPeriod(id, 2, p));
      node_pair.insert(PackNodePairPeriod(id, id + 9, p));
    }
  }
  EXPECT_EQ(id_period.size(), 8u * 8);
  EXPECT_EQ(task_replica.size(), 2u * 8 * 8);
  EXPECT_EQ(node_pair.size(), 8u * 8);
}

TEST(PackedKey, FieldsDoNotOverlap) {
  EXPECT_NE(PackTaskReplicaPeriod(1, 0, 0), PackTaskReplicaPeriod(0, 1, 0));
  EXPECT_NE(PackTaskReplicaPeriod(0, 1, 0), PackTaskReplicaPeriod(0, 0, 1));
  EXPECT_NE(PackNodePairPeriod(1, 2, 3), PackNodePairPeriod(2, 1, 3));
}

// --- flat map / set ---

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.Emplace(42, 7));
  EXPECT_FALSE(m.Emplace(42, 9));  // emplace keeps the first value
  ASSERT_NE(m.Find(42), nullptr);
  EXPECT_EQ(*m.Find(42), 7);
  m.InsertOrAssign(42, 9);
  EXPECT_EQ(*m.Find(42), 9);
  m[43] = 1;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.Erase(42));
  EXPECT_FALSE(m.Erase(42));
  EXPECT_EQ(m.Find(42), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, RandomizedAgainstStdMap) {
  // Drive identical operation sequences against FlatMap64 and std::map and
  // require identical visible state throughout — this exercises growth,
  // collisions, and the backward-shift deletion.
  Rng rng(2024);
  FlatMap64<uint64_t> flat;
  std::map<uint64_t, uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBelow(512);  // small key space: collisions
    switch (rng.NextBelow(4)) {
      case 0:
        flat.InsertOrAssign(key, op);
        ref[key] = static_cast<uint64_t>(op);
        break;
      case 1: {
        const bool inserted = flat.Emplace(key, op);
        EXPECT_EQ(inserted, ref.emplace(key, op).second);
        break;
      }
      case 2:
        EXPECT_EQ(flat.Erase(key), ref.erase(key) > 0);
        break;
      default: {
        const uint64_t* found = flat.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full content comparison at the end.
  size_t seen = 0;
  flat.ForEach([&](uint64_t key, const uint64_t& value) {
    ++seen;
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(it->second, value);
  });
  EXPECT_EQ(seen, ref.size());
}

TEST(FlatSet, InsertContainsErase) {
  FlatSet64 s;
  EXPECT_TRUE(s.Insert(PackIdPeriod(3, 9)));
  EXPECT_FALSE(s.Insert(PackIdPeriod(3, 9)));
  EXPECT_TRUE(s.Contains(PackIdPeriod(3, 9)));
  EXPECT_FALSE(s.Contains(PackIdPeriod(3, 10)));
  EXPECT_TRUE(s.Erase(PackIdPeriod(3, 9)));
  EXPECT_TRUE(s.empty());
}

TEST(FlatMap, HeldSharedPtrsReleasedOnErase) {
  FlatMap64<std::shared_ptr<int>> m;
  auto value = std::make_shared<int>(5);
  m.InsertOrAssign(1, value);
  EXPECT_EQ(value.use_count(), 2);
  m.Erase(1);
  EXPECT_EQ(value.use_count(), 1);
  m.InsertOrAssign(2, value);
  m.clear();
  EXPECT_EQ(value.use_count(), 1);
}

// --- small callable ---

TEST(SmallFn, InvokesInlineAndMovedCaptures) {
  int hits = 0;
  SmallFn<48> fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  SmallFn<48> moved = std::move(fn);
  moved();
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move): move contract
}

TEST(SmallFn, OversizedCaptureUsesHeapAndStillWorks) {
  struct Big {
    uint64_t data[16] = {};
  };
  Big big;
  big.data[15] = 11;
  uint64_t out = 0;
  SmallFn<48> fn([big, &out] { out = big.data[15]; });
  SmallFn<48> moved = std::move(fn);
  moved();
  EXPECT_EQ(out, 11u);
}

TEST(SmallFn, DestructionReleasesCaptures) {
  auto token = std::make_shared<int>(1);
  {
    SmallFn<48> fn([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    fn.Reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  {
    SmallFn<48> fn([token] { (void)*token; });
    SmallFn<48> other = std::move(fn);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- inline vector ---

TEST(InlineVec, StaysInlineUpToNThenSpills) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.capacity(), 4u);  // still inline
  v.push_back(4);
  EXPECT_GT(v.capacity(), 4u);  // spilled to heap
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(v[i], i);
  }
}

TEST(InlineVec, CopyAndMoveBothModes) {
  InlineVec<std::shared_ptr<int>, 2> small;
  small.push_back(std::make_shared<int>(1));
  InlineVec<std::shared_ptr<int>, 2> copied = small;
  EXPECT_EQ(*copied[0], 1);
  EXPECT_EQ(small[0].use_count(), 2);
  InlineVec<std::shared_ptr<int>, 2> moved = std::move(copied);
  EXPECT_EQ(*moved[0], 1);
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(copied.size(), 0u);  // NOLINT(bugprone-use-after-move): move contract

  InlineVec<std::shared_ptr<int>, 2> big;
  for (int i = 0; i < 6; ++i) {
    big.push_back(std::make_shared<int>(i));
  }
  InlineVec<std::shared_ptr<int>, 2> big_copy = big;
  InlineVec<std::shared_ptr<int>, 2> big_move = std::move(big);
  ASSERT_EQ(big_move.size(), 6u);
  ASSERT_EQ(big_copy.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(*big_move[i], i);
    EXPECT_EQ(*big_copy[i], i);
  }
}

TEST(InlineVec, ClearReleasesElements) {
  auto token = std::make_shared<int>(0);
  InlineVec<std::shared_ptr<int>, 2> v;
  v.push_back(token);
  v.push_back(token);
  v.push_back(token);  // spilled
  EXPECT_EQ(token.use_count(), 4);
  v.clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(v.capacity(), 2u);  // heap returned, inline again
}

TEST(InlineVec, SortAndInitializerList) {
  InlineVec<int, 4> v = {3, 1, 2};
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[2], 3);
  InlineVec<int, 4> w;
  w.assign(v.begin(), v.end());
  EXPECT_EQ(w.size(), 3u);
}

// --- block pool ---

TEST(BlockPool, RecyclesBlocksBySizeClass) {
  auto pool = std::make_shared<BlockPool>();
  void* a = pool->Allocate(40);
  pool->Deallocate(a, 40);
  void* b = pool->Allocate(40);
  EXPECT_EQ(a, b);  // freelist hit, no new block
  EXPECT_EQ(pool->allocated_blocks(), 1u);
  void* c = pool->Allocate(400);  // different class
  EXPECT_NE(b, c);
  pool->Deallocate(b, 40);
  pool->Deallocate(c, 400);
  EXPECT_EQ(pool->allocated_blocks(), 2u);
}

TEST(BlockPool, MakePooledObjectsReuseStorage) {
  auto pool = std::make_shared<BlockPool>();
  struct Payload {
    uint64_t values[6] = {};
  };
  void* first_addr = nullptr;
  {
    auto p = MakePooled<Payload>(pool);
    p->values[0] = 9;
    first_addr = p.get();
  }
  // The block went back to the freelist; an identical allocation reuses it.
  auto q = MakePooled<Payload>(pool);
  EXPECT_EQ(static_cast<void*>(q.get()), first_addr);
  EXPECT_EQ(pool->allocated_blocks(), 1u);
}

TEST(BlockPool, PoolOutlivesItsObjects) {
  std::shared_ptr<int> survivor;
  {
    auto pool = std::make_shared<BlockPool>();
    survivor = MakePooled<int>(pool, 77);
  }
  // The arena handle inside the control block keeps the pool alive.
  EXPECT_EQ(*survivor, 77);
  survivor.reset();
}

// --- thread pool: nested use ---

TEST(ThreadPoolNested, OnWorkerThreadIsSetExactlyOnWorkers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  pool.ParallelFor(4, [&](size_t) {
    if (ThreadPool::OnWorkerThread()) {
      on_worker.fetch_add(1);
    }
  });
  EXPECT_EQ(on_worker.load(), 4);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// A batch submitted from a pool worker runs inline on that worker —
// enqueueing could starve forever when every worker is occupied by a
// long-running job (the sweep service's whole-experiment jobs). This test
// is exactly that worst case: both workers busy, each submitting nested
// batches; it must terminate.
TEST(ThreadPoolNested, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_jobs{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      EXPECT_TRUE(ThreadPool::OnWorkerThread());
      inner_jobs.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_jobs.load(), 16);
}

TEST(ThreadPoolNested, DeeplyNestedDispatchStillCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(2, [&](size_t) {
      pool.ParallelFor(2, [&](size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 8);
}

// ReserveWorkers guarantees *idle* workers, not a worker-count bound:
// long-running occupants must not absorb the reservation. Two occupants
// park on every initial worker, then a reserved batch of two genuinely
// concurrent helpers must rendezvous with each other — impossible unless
// both run on (new) idle workers at the same time.
TEST(ThreadPoolNested, ReserveWorkersGuaranteesIdleWorkersUnderLoad) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release_occupants = false;

  std::atomic<size_t> occupants_running{0};
  ThreadPool::Ticket occupants = pool.Dispatch(pool.worker_count(), [&](size_t) {
    occupants_running.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release_occupants; });
  });
  while (occupants_running.load() < pool.worker_count()) {
    std::this_thread::yield();
  }

  // Pool fully occupied. Reserve two idle workers and run a barrier pair.
  pool.ReserveWorkers(2);
  std::atomic<int> arrived{0};
  ThreadPool::Ticket helpers = pool.Dispatch(2, [&](size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) {
      std::this_thread::yield();  // spins forever unless both run concurrently
    }
  });
  helpers.Wait();
  EXPECT_EQ(arrived.load(), 2);

  {
    std::lock_guard<std::mutex> lock(mu);
    release_occupants = true;
  }
  cv.notify_all();
  occupants.Wait();
}

}  // namespace
}  // namespace btr
