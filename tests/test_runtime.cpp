// The kernel-launch runtime: arena reuse (zero steady-state heap traffic),
// worker-pool collectives, stream/event dependency recording, and
// bit-identical kernel results across worker counts and exec modes.
#include "runtime/arena.hpp"
#include "runtime/device.hpp"

#include "gravity/walk_tree.hpp"
#include "nbody/simulation.hpp"
#include "octree/calc_node.hpp"
#include "octree/radix_sort.hpp"
#include "octree/tree_build.hpp"
#include "scenario/registry.hpp"
#include "testkit/schedule.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace gothic::runtime {
namespace {

// --- Arena ----------------------------------------------------------------

TEST(Arena, AlignsToCacheLine) {
  Arena a;
  for (std::size_t bytes : {1, 3, 64, 100, 1000}) {
    void* p = a.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment, 0u);
  }
  auto span = a.alloc_span<double>(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) % Arena::kAlignment,
            0u);
}

TEST(Arena, ReusesRetainedChunkAfterReset) {
  Arena a;
  void* first = a.allocate(1024);
  const std::uint64_t warm = a.heap_allocations();
  for (int cycle = 0; cycle < 10; ++cycle) {
    a.reset();
    EXPECT_EQ(a.allocate(1024), first); // same retained storage
  }
  EXPECT_EQ(a.heap_allocations(), warm);
}

TEST(Arena, CoalescesOverflowChunksOnReset) {
  Arena a;
  // Overflow the first chunk so a second one is acquired.
  (void)a.allocate(Arena::kMinChunk - 64);
  (void)a.allocate(Arena::kMinChunk);
  const std::size_t high_water = a.capacity();
  a.reset();
  EXPECT_GE(a.capacity(), high_water); // one chunk now fits everything
  const std::uint64_t warm = a.heap_allocations();
  for (int cycle = 0; cycle < 5; ++cycle) {
    a.reset();
    (void)a.allocate(Arena::kMinChunk - 64);
    (void)a.allocate(Arena::kMinChunk);
  }
  EXPECT_EQ(a.heap_allocations(), warm); // steady state: no heap traffic
}

TEST(ArenaVector, PushResizeClear) {
  Arena a;
  ArenaVector<int> v(a);
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.resize(8);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v[7], 0); // value-initialised
}

// --- Device collectives ---------------------------------------------------

TEST(Device, ParallelForCoversEveryIndexOnce) {
  Device dev(4);
  std::vector<int> hits(1000, 0);
  dev.parallel_for(0, hits.size(),
                   [&](std::size_t i) { hits[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(Device, ParallelRangesUsesStaticChunks) {
  Device dev(3);
  const std::size_t n = 10;
  const std::size_t chunk = dev.chunk_size(0, n);
  EXPECT_EQ(chunk, 4u); // ceil(10/3) — the static schedule
  std::vector<int> owner(n, -1);
  dev.parallel_ranges(0, n, [&](Worker& w, std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, static_cast<std::size_t>(w.id) * chunk);
    for (std::size_t i = lo; i < hi; ++i) owner[i] = w.id;
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(owner[i], static_cast<int>(i / chunk));
  }
}

TEST(Device, ParallelDynamicCoversEveryIndexOnce) {
  Device dev(4);
  // Atomics, not plain ints: chunks are claimed concurrently and the
  // double-count check must not itself race.
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  dev.parallel_dynamic(0, hits.size(), 7,
                       [&](Worker&, std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           hits[i].fetch_add(1, std::memory_order_relaxed);
                         }
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Empty and zero-chunk (auto-sized) ranges are fine too.
  dev.parallel_dynamic(5, 5, 0, [&](Worker&, std::size_t, std::size_t) {
    ADD_FAILURE() << "empty range must not invoke the body";
  });
  std::atomic<std::size_t> covered{0};
  dev.parallel_dynamic(0, 100, 0,
                       [&](Worker&, std::size_t lo, std::size_t hi) {
                         covered.fetch_add(hi - lo);
                       });
  EXPECT_EQ(covered.load(), 100u);
}

TEST(Device, WorkerBusyGaugesAccumulate) {
  Device dev(2);
  EXPECT_EQ(dev.busy_worker_count(), 0);
  std::atomic<std::uint64_t> sink{0};
  dev.parallel_for(0, 20000, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_GT(dev.busy_worker_count(), 0);
  EXPECT_GT(dev.worker_busy_seconds_total(), 0.0);
  EXPECT_GE(dev.worker_busy_seconds_total(), dev.worker_busy_seconds_max());
  // Cumulative: more work never decreases the gauges.
  const double before = dev.worker_busy_seconds_total();
  dev.parallel_for(0, 20000, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_GE(dev.worker_busy_seconds_total(), before);
}

TEST(Device, BusyWorkerCountCountsWorkersNotContextSlots) {
  // The host and each lane keep their own worker slots, so a collective on
  // the host and one inside a launch on each of two streams record busy
  // time in different slots of the same pool workers. The gauge counts
  // workers: it never exceeds workers().
  Device dev(2);
  std::atomic<std::uint64_t> sink{0};
  const auto work = [&sink] {
    Device::current().parallel_for(0, 20000, [&sink](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  };
  work();
  Stream a("a"), b("b");
  LaunchDesc da, db;
  da.stream = &a;
  db.stream = &b;
  (void)dev.launch(da, [&work](simt::OpCounts&) { work(); });
  (void)dev.launch(db, [&work](simt::OpCounts&) { work(); });
  dev.synchronize();
  EXPECT_GT(dev.busy_worker_count(), 0);
  EXPECT_LE(dev.busy_worker_count(), dev.workers());
}

TEST(Device, PropagatesBodyExceptions) {
  Device dev(4);
  EXPECT_THROW(dev.parallel_for(0, 100,
                                [](std::size_t i) {
                                  if (i == 57) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  // The pool survives the throw and keeps working.
  std::vector<int> hits(64, 0);
  dev.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(Device, ScopedDeviceOverridesCurrent) {
  Device& base = Device::current();
  Device one(1);
  {
    ScopedDevice scope(one);
    EXPECT_EQ(&Device::current(), &one);
    Device two(2);
    {
      ScopedDevice nested(two);
      EXPECT_EQ(&Device::current(), &two);
    }
    EXPECT_EQ(&Device::current(), &one);
  }
  EXPECT_EQ(&Device::current(), &base);
}

TEST(Device, GothicThreadsEnvSelectsWorkerCount) {
  ASSERT_EQ(::setenv("GOTHIC_THREADS", "3", 1), 0);
  EXPECT_EQ(Device::default_workers(), 3);
  Device dev(0);
  EXPECT_EQ(dev.workers(), 3);
  ASSERT_EQ(::unsetenv("GOTHIC_THREADS"), 0);
  EXPECT_GE(Device::default_workers(), 1);
  Device pinned(2); // explicit count wins over the default
  EXPECT_EQ(pinned.workers(), 2);
}

TEST(Device, WorkerArenasRetainCapacityAcrossLaunches) {
  Device dev(2);
  auto kernel = [&] {
    dev.for_workers([](Worker& w) {
      w.arena.reset();
      auto scratch = w.arena.alloc_span<float>(4096);
      scratch[0] = 1.0f;
    });
  };
  kernel();
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 10; ++i) kernel();
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

// --- Streams, events, instrumentation -------------------------------------

TEST(Launch, RecordsIdsOpsAndSink) {
  Device dev(2);
  InstrumentationSink sink;
  Stream s("tree");
  LaunchDesc desc;
  desc.kernel = Kernel::CalcNode;
  desc.label = "calc";
  desc.items = 128;
  desc.stream = &s;
  desc.sink = &sink;
  const Event e = dev.launch(desc, [](simt::OpCounts& ops) {
    ops.int_ops += 42;
  });
  EXPECT_TRUE(e.valid());
  dev.synchronize(); // the record is complete once its launch is
  ASSERT_EQ(sink.step_records().size(), 1u);
  const LaunchRecord& rec = sink.step_records().back();
  EXPECT_EQ(rec.id, e.id);
  EXPECT_EQ(rec.kernel, Kernel::CalcNode);
  EXPECT_STREQ(rec.stream, "tree");
  EXPECT_EQ(rec.items, 128u);
  EXPECT_EQ(rec.workers, 2);
  EXPECT_EQ(rec.ops.int_ops, 42u);
  EXPECT_GE(rec.seconds, 0.0);
  EXPECT_EQ(s.last().id, e.id);
}

TEST(Launch, SameStreamLaunchesAreImplicitlyOrdered) {
  Device dev(1);
  InstrumentationSink sink;
  Stream s("tree");
  LaunchDesc desc;
  desc.stream = &s;
  desc.sink = &sink;
  const Event a = dev.launch(desc, [](simt::OpCounts&) {});
  (void)dev.launch(desc, [](simt::OpCounts&) {});
  dev.synchronize();
  const LaunchRecord& second = sink.step_records().back();
  EXPECT_EQ(second.deps[0], a.id); // CUDA stream semantics, recorded
}

TEST(Launch, CrossStreamDepsAreRecordedAndDeduplicated) {
  Device dev(1);
  InstrumentationSink sink;
  Stream tree("tree"), integrate("integrate");
  LaunchDesc pd;
  pd.stream = &integrate;
  pd.sink = &sink;
  const Event e_pred = dev.launch(pd, [](simt::OpCounts&) {});
  LaunchDesc cd;
  cd.stream = &tree;
  cd.sink = &sink;
  const Event e_calc = dev.launch(cd, [](simt::OpCounts&) {});
  LaunchDesc wd;
  wd.stream = &tree;
  wd.deps = {e_pred, e_calc};
  wd.sink = &sink;
  (void)dev.launch(wd, [](simt::OpCounts&) {});
  dev.synchronize();
  const LaunchRecord& walk = sink.step_records().back();
  // Explicit {pred, calc}; the implicit same-stream dep duplicates calc and
  // must not be recorded twice.
  EXPECT_EQ(walk.deps[0], e_pred.id);
  EXPECT_EQ(walk.deps[1], e_calc.id);
  EXPECT_EQ(walk.deps[2], 0u);
}

TEST(Launch, UnissuedDependencyThrows) {
  Device dev(1);
  LaunchDesc desc;
  desc.deps = {Event{9999}};
  EXPECT_THROW(dev.launch(desc, [](simt::OpCounts&) {}), std::logic_error);
  // Issue validation failures must not wedge the device.
  (void)dev.launch(LaunchDesc{}, [](simt::OpCounts&) {});
  dev.synchronize();
}

TEST(Launch, ForeignDeviceDependencyThrows) {
  Device a(1), b(1);
  LaunchDesc desc;
  const Event e = a.launch(desc, [](simt::OpCounts&) {});
  a.synchronize();
  LaunchDesc bad;
  bad.deps = {e};
  EXPECT_THROW(b.launch(bad, [](simt::OpCounts&) {}), std::logic_error);
}

TEST(Launch, AsyncRecordCompletesByEventWait) {
  Device dev(2);
  InstrumentationSink sink;
  Stream s("tree");
  LaunchDesc desc;
  desc.kernel = Kernel::CalcNode;
  desc.sink = &sink;
  desc.stream = &s;
  std::atomic<int> ran{0};
  const Event e = dev.launch(desc, [&ran](simt::OpCounts& ops) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ops.int_ops += 7;
    ran.store(1, std::memory_order_release);
  });
  e.wait(); // a real completion handle now
  EXPECT_EQ(ran.load(std::memory_order_acquire), 1);
  dev.synchronize();
  const LaunchRecord& rec = sink.step_records().back();
  EXPECT_EQ(rec.id, e.id);
  EXPECT_EQ(rec.ops.int_ops, 7u);
  EXPECT_GT(rec.workers, 0);
  EXPECT_GE(rec.t_end, rec.t_begin);
  EXPECT_DOUBLE_EQ(rec.seconds, rec.t_end - rec.t_begin);
}

TEST(Launch, CrossStreamEventOrdering) {
  // Ping-pong a strictly ordered chain of launches across two streams:
  // every launch depends on the previous one on the *other* stream, so the
  // scheduler's cross-lane event waits carry the entire ordering. Run
  // under TSan this doubles as the data-race stress test for the
  // dependency machinery.
  Device dev(2);
  Stream a("a"), b("b");
  constexpr int kRounds = 64;
  std::vector<int> seq;
  seq.reserve(2 * kRounds);
  Event prev{};
  for (int i = 0; i < 2 * kRounds; ++i) {
    LaunchDesc desc;
    desc.stream = (i % 2 == 0) ? &a : &b;
    desc.deps = {prev};
    prev = dev.launch(desc, [&seq, i](simt::OpCounts&) {
      seq.push_back(i);
    });
  }
  dev.synchronize();
  ASSERT_EQ(seq.size(), static_cast<std::size_t>(2 * kRounds));
  for (int i = 0; i < 2 * kRounds; ++i) EXPECT_EQ(seq[static_cast<std::size_t>(i)], i);
}

TEST(Launch, IndependentStreamsOverlap) {
  // Two sleeping launches on independent streams must genuinely overlap:
  // the step wall span stays well under the serial sum. A lane costs a
  // thread, not a worker, so a 1-worker device overlaps them too.
  for (int workers : {2, 1}) {
    Device dev(workers);
    InstrumentationSink sink;
    Stream a("a"), b("b");
    auto sleeper = [](simt::OpCounts&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    LaunchDesc da;
    da.stream = &a;
    da.sink = &sink;
    LaunchDesc db;
    db.stream = &b;
    db.sink = &sink;
    (void)dev.launch(da, sleeper);
    (void)dev.launch(db, sleeper);
    dev.synchronize();
    const auto& recs = sink.step_records();
    ASSERT_EQ(recs.size(), 2u);
    const double kernel = recs[0].seconds + recs[1].seconds;
    const double wall = std::max(recs[0].t_end, recs[1].t_end) -
                        std::min(recs[0].t_begin, recs[1].t_begin);
    EXPECT_GE(kernel, 0.18) << workers << " workers";
    EXPECT_LT(wall, 0.9 * kernel) << workers << " workers";
  }
}

TEST(Launch, BodyCollectivesUseTheWholePool) {
  // A lane is a queue plus a leader, not a slice of the pool: a body on
  // any lane sees every worker, its collectives fork onto all of them, and
  // its record carries the pool width — for four streams over the two
  // lanes.
  Device dev(4);
  ASSERT_EQ(dev.lane_count(), 2);
  InstrumentationSink sink;
  std::vector<Stream> streams(4, Stream("s"));
  struct Seen {
    int workers = 0;
    std::array<std::thread::id, 4> threads{};
  };
  std::vector<Seen> seen(streams.size());
  for (std::size_t l = 0; l < streams.size(); ++l) {
    LaunchDesc desc;
    desc.stream = &streams[l];
    desc.sink = &sink;
    Seen* out = &seen[l];
    (void)dev.launch(desc, [out](simt::OpCounts&) {
      Device& d = Device::current();
      out->workers = d.workers();
      d.for_workers([out](Worker& w) {
        out->threads[static_cast<std::size_t>(w.id)] =
            std::this_thread::get_id();
      });
    });
  }
  dev.synchronize();
  for (const Seen& s : seen) {
    EXPECT_EQ(s.workers, 4);
    const std::set<std::thread::id> distinct(s.threads.begin(),
                                             s.threads.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(distinct.count(std::thread::id{}), 0u);
  }
  ASSERT_EQ(sink.step_records().size(), streams.size());
  for (const LaunchRecord& rec : sink.step_records()) {
    EXPECT_EQ(rec.workers, 4);
  }
}

TEST(Launch, AsyncBodyErrorSurfacesAtSynchronize) {
  Device dev(2);
  LaunchDesc desc;
  (void)dev.launch(desc, [](simt::OpCounts&) {
    throw std::runtime_error("body failed");
  });
  EXPECT_THROW(dev.synchronize(), std::runtime_error);
  // The error is cleared and the device stays usable.
  std::atomic<int> ran{0};
  (void)dev.launch(desc, [&ran](simt::OpCounts&) { ran.store(1); });
  dev.synchronize();
  EXPECT_EQ(ran.load(), 1);
}

TEST(Device, DispatchPropagatesExactlyOneError) {
  Device dev(4);
  auto reusable = [&dev] {
    std::vector<int> hits(16, 0);
    dev.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
    return std::accumulate(hits.begin(), hits.end(), 0) == 16;
  };
  // Worker 0 (the calling thread) throws.
  EXPECT_THROW(dev.for_workers([](Worker& w) {
                 if (w.id == 0) throw std::runtime_error("w0");
               }),
               std::runtime_error);
  EXPECT_TRUE(reusable());
  // A pool worker throws.
  EXPECT_THROW(dev.for_workers([](Worker& w) {
                 if (w.id == 3) throw std::runtime_error("w3");
               }),
               std::runtime_error);
  EXPECT_TRUE(reusable());
  // Every worker throws: exactly one propagates (first recorded wins) and
  // none is left latched for the next collective — the old pool dropped
  // the pool-worker error when worker 0 also threw, and kept it latched.
  EXPECT_THROW(dev.for_workers([](Worker&) {
                 throw std::runtime_error("all");
               }),
               std::runtime_error);
  EXPECT_TRUE(reusable());
  dev.for_workers([](Worker&) {}); // must not rethrow a stale error
}

// --- Cooperative collectives -----------------------------------------------

TEST(Cooperative, SyncPublishesEveryWorkersWritesToEveryWorker) {
  // Each phase every worker writes its slot, syncs, then reads every slot:
  // a sync that let a worker through early shows up as a stale value.
  for (int workers : {1, 2, 4}) {
    Device dev(workers);
    constexpr int kPhases = 200;
    std::vector<int> slot(static_cast<std::size_t>(workers), -1);
    std::vector<int> stale(static_cast<std::size_t>(workers), 0);
    dev.cooperative([&](Worker& w, Grid& grid) {
      const auto me = static_cast<std::size_t>(w.id);
      for (int phase = 0; phase < kPhases; ++phase) {
        slot[me] = phase;
        grid.sync();
        for (const int v : slot) stale[me] += v != phase ? 1 : 0;
        grid.sync(); // nobody overwrites a slot another worker still reads
      }
    });
    for (int i = 0; i < workers; ++i) {
      EXPECT_EQ(stale[static_cast<std::size_t>(i)], 0)
          << workers << " workers, worker " << i;
    }
  }
}

TEST(Cooperative, EveryWorkerReachesEverySyncWhenWorkIsScarce) {
  // Two items on four workers: parallel_ranges would skip the two empty
  // chunks, a cooperative body must not, or the syncs would never fill.
  Device dev(4);
  std::array<int, 4> bodies{};
  std::array<int, 4> syncs{};
  std::array<std::size_t, 4> items{};
  dev.cooperative([&](Worker& w, Grid& grid) {
    const auto me = static_cast<std::size_t>(w.id);
    ++bodies[me];
    const Device::Chunk c = dev.static_chunk(w.id, 0, 2);
    for (int phase = 0; phase < 5; ++phase) {
      items[me] += c.hi - c.lo;
      grid.sync();
      ++syncs[me];
    }
  });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bodies[i], 1) << "worker " << i;
    EXPECT_EQ(syncs[i], 5) << "worker " << i;
  }
  EXPECT_EQ(items[0] + items[1], 10u);
  EXPECT_EQ(items[2] + items[3], 0u);

  // The kernels built on it, on inputs smaller than the pool.
  ScopedDevice scope(dev);
  std::vector<std::uint64_t> keys{3, 1, 2};
  std::vector<index_t> payload{0, 1, 2};
  octree::radix_sort_pairs(keys, payload, 8, nullptr);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(payload, (std::vector<index_t>{1, 2, 0}));
}

TEST(Cooperative, ThrowOnOneWorkerUnwindsTheOthersAndRethrowsItOnce) {
  // Phase 1 of 3 throws on one worker — a pool thread, then the caller
  // (the barrier's master): the others' syncs unwind instead of waiting,
  // the caller rethrows that exception alone, and the device (its barrier
  // included) serves the next cooperative collective.
  Device dev(4);
  for (int thrower : {2, 0}) {
    SCOPED_TRACE(testing::Message() << "worker " << thrower << " throws");
    std::atomic<int> reached_phase2{0};
    std::atomic<int> bodies{0};
    try {
      dev.cooperative([&](Worker& w, Grid& grid) {
        bodies.fetch_add(1);
        grid.sync(); // end of phase 0
        if (w.id == thrower) throw std::runtime_error("phase 1");
        grid.sync(); // end of phase 1
        reached_phase2.fetch_add(1);
        grid.sync();
      });
      ADD_FAILURE() << "the collective did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "phase 1");
    }
    EXPECT_EQ(bodies.load(), 4);
    EXPECT_EQ(reached_phase2.load(), 0);

    std::array<int, 4> syncs{};
    dev.cooperative([&](Worker& w, Grid& grid) {
      for (int phase = 0; phase < 3; ++phase) {
        grid.sync();
        ++syncs[static_cast<std::size_t>(w.id)];
      }
    });
    EXPECT_EQ(syncs, (std::array<int, 4>{3, 3, 3, 3}));
  }
}

TEST(Cooperative, OneWorkerLanesRunCooperativeCollectivesAtOnce) {
  // A 1-worker device runs collectives inline and unadmitted: each lane's
  // cooperative body waits, between two syncs, until the other lane's
  // body is inside its own, which only concurrent execution can satisfy.
  Device dev(1);
  Stream a("a");
  Stream b("b");
  std::atomic<int> inside{0};
  std::atomic<int> met{0};
  auto body = [&inside, &met](simt::OpCounts&) {
    Device::current().cooperative([&](Worker&, Grid& grid) {
      grid.sync();
      inside.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() == 2) met.fetch_add(1);
      grid.sync();
    });
  };
  LaunchDesc da;
  da.stream = &a;
  LaunchDesc db;
  db.stream = &b;
  (void)dev.launch(da, body);
  (void)dev.launch(db, body);
  dev.synchronize();
  EXPECT_EQ(met.load(), 2);
}

TEST(Cooperative, InsideALaunchBodyRunsOnTheLanesWorkerSlots) {
  Device dev(4);
  std::array<const Worker*, 4> host{};
  for (int i = 0; i < 4; ++i) {
    host[static_cast<std::size_t>(i)] = &dev.context_worker(i);
  }
  std::array<const Worker*, 4> lane{};
  std::array<const Worker*, 4> ran{};
  LaunchDesc desc;
  (void)dev.launch(desc, [&](simt::OpCounts&) {
    Device& d = Device::current();
    for (int i = 0; i < 4; ++i) {
      lane[static_cast<std::size_t>(i)] = &d.context_worker(i);
    }
    d.cooperative([&](Worker& w, Grid& grid) {
      grid.sync();
      ran[static_cast<std::size_t>(w.id)] = &w;
    });
  });
  dev.synchronize();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ran[i], lane[i]) << "worker " << i;
    EXPECT_NE(ran[i], host[i]) << "worker " << i;
  }
}

TEST(Cooperative, LevelSynchronousKernelsForkOncePerCall) {
  // The mechanism's regression gauge: calcNode's level sweep, a
  // calc_node_ranges launch and a radix sort are one collective each, and
  // a non-rebuild step of the m31 scenario forks four times (predict,
  // calcNode, walk, correct) on every worker count.
  const scenario::Scenario& sc = scenario::find_scenario("m31");
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    Device dev(workers);
    ScopedDevice scope(dev);
    nbody::SimConfig cfg = scenario::scenario_sim_config(sc);
    cfg.block_time_steps = true;
    cfg.dt_max = 1.0 / 8;
    cfg.max_level = 4;
    cfg.auto_rebuild = false;
    cfg.fixed_rebuild_interval = 8;
    nbody::Simulation sim(sc.make(4096, 1), cfg);

    std::uint64_t before = dev.collective_count();
    ASSERT_FALSE(sim.step().rebuilt);
    EXPECT_EQ(dev.collective_count() - before, 4u);

    octree::Octree tree = sim.tree();
    ASSERT_GE(tree.num_levels(), 8);
    const nbody::Particles& p = sim.particles();
    simt::OpCounts ops;
    before = dev.collective_count();
    octree::calc_node(tree, p.x, p.y, p.z, p.m, cfg.calc, &ops);
    EXPECT_EQ(dev.collective_count() - before, 1u);
    EXPECT_EQ(ops.global_barrier,
              static_cast<std::uint64_t>(tree.num_levels()));

    std::vector<octree::NodeRange> levels;
    for (int l = tree.num_levels() - 1; l >= 0; --l) {
      const auto lv = static_cast<std::size_t>(l);
      levels.push_back({tree.level_offset[lv], tree.level_offset[lv + 1]});
    }
    before = dev.collective_count();
    octree::calc_node_ranges(tree, p.x, p.y, p.z, p.m, cfg.calc, levels);
    EXPECT_EQ(dev.collective_count() - before, 1u);

    std::vector<std::uint64_t> keys(p.size());
    std::vector<index_t> perm(p.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = (i * 0x9E3779B97F4A7C15ULL) >> 1;
      perm[i] = static_cast<index_t>(i);
    }
    before = dev.collective_count();
    octree::radix_sort_pairs(keys, perm, 63, nullptr);
    EXPECT_EQ(dev.collective_count() - before, 1u);
    EXPECT_TRUE(octree::is_sorted_keys(keys));
  }
}

// --- Radix sort on arena scratch ------------------------------------------

std::pair<std::vector<std::uint64_t>, std::vector<index_t>>
random_pairs(std::size_t n, int bits, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  std::vector<index_t> payload(n);
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next() & mask;
    payload[i] = static_cast<index_t>(i);
  }
  return {std::move(keys), std::move(payload)};
}

TEST(RadixSort, MultiPassDeterministicAcrossWorkerCounts) {
  // 3 passes (odd, so the copy-back path runs) over duplicate-rich keys:
  // stability makes the payload order unique, so a reference stable_sort
  // and every worker count must agree exactly.
  constexpr std::size_t kN = 4096;
  constexpr int kBits = 24;
  auto [ref_keys, ref_payload] = random_pairs(kN, 10, 42); // many duplicates
  std::vector<std::size_t> order(kN);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ref_keys[a] < ref_keys[b];
                   });
  for (int workers : {1, 3, 4}) {
    Device dev(workers);
    ScopedDevice scope(dev);
    auto [keys, payload] = random_pairs(kN, 10, 42);
    octree::radix_sort_pairs(keys, payload, kBits, nullptr);
    EXPECT_TRUE(octree::is_sorted_keys(keys));
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(keys[i], ref_keys[order[i]]) << "workers " << workers;
      EXPECT_EQ(payload[i], static_cast<index_t>(order[i]))
          << "workers " << workers;
    }
  }
}

TEST(RadixSort, SteadyStateSortsDoZeroArenaHeapAllocations) {
  Device dev(3);
  ScopedDevice scope(dev);
  auto sort_once = [] {
    auto [keys, payload] = random_pairs(2048, 48, 7);
    octree::radix_sort_pairs(keys, payload, 48, nullptr);
    ASSERT_TRUE(octree::is_sorted_keys(keys));
  };
  sort_once(); // warm-up sizes the arenas
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u); // the scratch really lives in the arenas now
  for (int i = 0; i < 6; ++i) sort_once();
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

// --- Kernel determinism across devices and modes --------------------------

struct System {
  std::vector<real> x, y, z, m;
  std::vector<real> ax, ay, az, pot;
  simt::OpCounts ops;
  gravity::WalkStats stats;
};

/// Build + calc + walk the same Plummer realisation on the given device —
/// the whole pipeline, so radix-sort stability and walk accumulation are
/// both exercised.
System pipeline(int workers, simt::ExecMode mode) {
  Device dev(workers);
  ScopedDevice scope(dev);
  const std::size_t n = 2048;
  Xoshiro256 rng(20190805);
  System s;
  s.x.resize(n);
  s.y.resize(n);
  s.z.resize(n);
  s.m.assign(n, real(1.0 / static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(1e-6, 0.999);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    double ux, uy, uz;
    rng.unit_vector(ux, uy, uz);
    s.x[i] = static_cast<real>(r * ux);
    s.y[i] = static_cast<real>(r * uy);
    s.z[i] = static_cast<real>(r * uz);
  }
  octree::Octree tree;
  std::vector<index_t> perm;
  octree::BuildConfig bcfg;
  bcfg.mode = mode;
  octree::build_tree(s.x, s.y, s.z, tree, perm, bcfg);
  auto apply = [&perm](std::vector<real>& v) {
    std::vector<real> out(v.size());
    octree::gather(v, perm, out);
    v = std::move(out);
  };
  apply(s.x);
  apply(s.y);
  apply(s.z);
  apply(s.m);
  octree::CalcNodeConfig ccfg;
  ccfg.mode = mode;
  octree::calc_node(tree, s.x, s.y, s.z, s.m, ccfg);
  s.ax.resize(n);
  s.ay.resize(n);
  s.az.resize(n);
  s.pot.resize(n);
  gravity::WalkConfig wcfg;
  wcfg.mode = mode;
  gravity::walk_tree(tree, s.x, s.y, s.z, s.m, {}, wcfg, s.ax, s.ay, s.az,
                     s.pot, &s.ops, &s.stats);
  return s;
}

TEST(Determinism, WalkTreeBitIdenticalAcrossWorkerCounts) {
  const System one = pipeline(1, simt::ExecMode::Volta);
  const System four = pipeline(4, simt::ExecMode::Volta);
  ASSERT_EQ(one.ax.size(), four.ax.size());
  for (std::size_t i = 0; i < one.ax.size(); ++i) {
    EXPECT_EQ(one.ax[i], four.ax[i]) << "body " << i;
    EXPECT_EQ(one.ay[i], four.ay[i]) << "body " << i;
    EXPECT_EQ(one.az[i], four.az[i]) << "body " << i;
    EXPECT_EQ(one.pot[i], four.pot[i]) << "body " << i;
  }
  EXPECT_EQ(one.ops, four.ops);
  EXPECT_EQ(one.stats.interactions, four.stats.interactions);
}

TEST(Determinism, WalkTreeBitIdenticalAcrossExecModes) {
  const System pascal = pipeline(2, simt::ExecMode::Pascal);
  const System volta = pipeline(2, simt::ExecMode::Volta);
  for (std::size_t i = 0; i < pascal.ax.size(); ++i) {
    EXPECT_EQ(pascal.ax[i], volta.ax[i]) << "body " << i;
    EXPECT_EQ(pascal.ay[i], volta.ay[i]) << "body " << i;
    EXPECT_EQ(pascal.az[i], volta.az[i]) << "body " << i;
  }
  // The modes differ only in synchronisation accounting.
  EXPECT_EQ(pascal.ops.fp32_fma, volta.ops.fp32_fma);
  EXPECT_EQ(pascal.ops.syncwarp, 0u);
}

// --- The step loop on the runtime -----------------------------------------

nbody::Particles uniform_cloud(std::size_t n) {
  Xoshiro256 rng(7);
  nbody::Particles p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.y[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.z[i] = static_cast<real>(rng.uniform(-1.0, 1.0));
    p.m[i] = real(1.0 / static_cast<double>(n));
  }
  return p;
}

TEST(SimulationRuntime, SteadyStateStepsDoZeroArenaHeapAllocations) {
  Device dev(2);
  ScopedDevice scope(dev);
  nbody::SimConfig cfg;
  cfg.block_time_steps = false;  // identical work every step
  cfg.dt_max = 1.0 / 4096;
  cfg.auto_rebuild = false;
  // Rebuild every other step so the steady state includes makeTree and its
  // radix sort — the sort scratch lives in the worker arenas too now.
  cfg.fixed_rebuild_interval = 2;
  nbody::Simulation sim(uniform_cloud(1024), cfg);
  for (int i = 0; i < 4; ++i) (void)sim.step(); // warm-up incl. rebuilds
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 8; ++i) (void)sim.step();
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

TEST(SimulationRuntime, AsyncMatchesSyncBitIdentical) {
  // A full step loop (including rebuild steps) produces bit-identical
  // particle state whether the stream scheduler free-runs or is forced
  // through the in-order schedule: one launch at a time in issue order,
  // the serial reference every oracle compares against.
  auto run = [](int workers, ScheduleController* ctrl) {
    Device dev(workers);
    ScopedDevice scope(dev);
    if (ctrl != nullptr) dev.set_schedule_controller(ctrl);
    nbody::SimConfig cfg;
    cfg.auto_rebuild = false;
    cfg.fixed_rebuild_interval = 3;
    nbody::Simulation sim(uniform_cloud(640), cfg);
    sim.run(7);
    if (ctrl != nullptr) dev.set_schedule_controller(nullptr);
    return sim;
  };
  for (int workers : {1, 2, 4}) {
    testkit::InOrderSchedule ctrl;
    const auto serial = run(workers, &ctrl);
    EXPECT_TRUE(ctrl.violations().empty()) << workers << " workers";
    const auto free_run = run(workers, nullptr);
    const auto& ps = serial.particles();
    const auto& pa = free_run.particles();
    ASSERT_EQ(ps.size(), pa.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(ps.x[i], pa.x[i]) << "workers " << workers << " body " << i;
      EXPECT_EQ(ps.y[i], pa.y[i]) << "workers " << workers << " body " << i;
      EXPECT_EQ(ps.z[i], pa.z[i]) << "workers " << workers << " body " << i;
      EXPECT_EQ(ps.vx[i], pa.vx[i]) << "workers " << workers << " body " << i;
      EXPECT_EQ(ps.vy[i], pa.vy[i]) << "workers " << workers << " body " << i;
      EXPECT_EQ(ps.vz[i], pa.vz[i]) << "workers " << workers << " body " << i;
    }
    EXPECT_EQ(serial.rebuild_count(), free_run.rebuild_count());
  }
}

TEST(SimulationRuntime, StepReportCarriesWallAndOverlap) {
  Device dev(2);
  ScopedDevice scope(dev);
  nbody::SimConfig cfg;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 1 << 30;
  nbody::Simulation sim(uniform_cloud(512), cfg);
  const nbody::StepReport r = sim.step();
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GE(r.overlap_seconds(), 0.0);
  // The wall time is the span of the step's launch bodies.
  const auto& recs = sim.sink().step_records();
  ASSERT_FALSE(recs.empty());
  double lo = recs.front().t_begin;
  double hi = recs.front().t_end;
  for (const LaunchRecord& rec : recs) {
    lo = std::min(lo, rec.t_begin);
    hi = std::max(hi, rec.t_end);
  }
  EXPECT_DOUBLE_EQ(r.wall_seconds, hi - lo);
}

/// One step of `sim`: its report must be drained from the step's launch
/// records, which must form GOTHIC's single-device DAG. Copies them to
/// `out`.
void ExpectStepDrainedFromRecords(nbody::ShardedSimulation& sim,
                                  std::vector<LaunchRecord>& out) {
  const nbody::StepReport r = sim.step();

  const auto& records = sim.sink().step_records();
  out = records;
  ASSERT_EQ(records.size(), 4u); // predict, calcNode, walkTree, correct
  EXPECT_EQ(records[0].kernel, Kernel::PredictCorrect);
  EXPECT_EQ(records[1].kernel, Kernel::CalcNode);
  EXPECT_EQ(records[2].kernel, Kernel::WalkTree);
  EXPECT_EQ(records[3].kernel, Kernel::PredictCorrect);
  EXPECT_STREQ(records[2].stream, "tree");

  // walkTree depends on both predict and calcNode — the step's DAG.
  EXPECT_EQ(records[2].deps[0], records[0].id);
  EXPECT_EQ(records[2].deps[1], records[1].id);
  // correct depends on walkTree (plus the integrate stream's predict).
  EXPECT_EQ(records[3].deps[0], records[2].id);

  // Report seconds/ops are exactly the records' sums.
  double walk_s = 0.0, pred_s = 0.0;
  for (const LaunchRecord& rec : records) {
    if (rec.kernel == Kernel::WalkTree) walk_s += rec.seconds;
    if (rec.kernel == Kernel::PredictCorrect) pred_s += rec.seconds;
  }
  EXPECT_DOUBLE_EQ(r.seconds[static_cast<std::size_t>(Kernel::WalkTree)],
                   walk_s);
  EXPECT_DOUBLE_EQ(
      r.seconds[static_cast<std::size_t>(Kernel::PredictCorrect)], pred_s);
  EXPECT_EQ(r.ops[static_cast<std::size_t>(Kernel::WalkTree)],
            records[2].ops);
  EXPECT_GT(records[2].ops.fp32_fma, 0u);
}

TEST(SimulationRuntime, StepReportIsDrainedFromLaunchRecords) {
  nbody::SimConfig cfg;
  cfg.auto_rebuild = false;
  cfg.fixed_rebuild_interval = 1 << 30;
  Device dev(2);
  ScopedDevice scope(dev);
  nbody::Simulation sim(uniform_cloud(512), cfg);
  std::vector<LaunchRecord> ambient;
  ExpectStepDrainedFromRecords(sim, ambient);

  // One shard on an engine-owned device runs the same code path: the
  // same launches, ids and dependency edges on the same streams.
  nbody::ShardOptions opt;
  opt.shards = 1;
  opt.workers = 2;
  nbody::ShardedSimulation owned(uniform_cloud(512), cfg, opt);
  std::vector<LaunchRecord> records;
  ExpectStepDrainedFromRecords(owned, records);
  ASSERT_EQ(records.size(), ambient.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_STREQ(records[i].label, ambient[i].label) << "record " << i;
    EXPECT_STREQ(records[i].stream, ambient[i].stream) << "record " << i;
    EXPECT_EQ(records[i].id, ambient[i].id) << "record " << i;
    EXPECT_EQ(records[i].deps, ambient[i].deps) << "record " << i;
  }
}

TEST(SimulationRuntime, StepsBitIdenticalAcrossWorkerCounts) {
  auto run = [](int workers) {
    Device dev(workers);
    ScopedDevice scope(dev);
    nbody::SimConfig cfg;
    cfg.auto_rebuild = false;
    cfg.fixed_rebuild_interval = 4;
    nbody::Simulation sim(uniform_cloud(768), cfg);
    sim.run(6);
    return sim;
  };
  const auto a = run(1);
  const auto b = run(4);
  const auto& pa = a.particles();
  const auto& pb = b.particles();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa.x[i], pb.x[i]) << "body " << i;
    EXPECT_EQ(pa.y[i], pb.y[i]) << "body " << i;
    EXPECT_EQ(pa.z[i], pb.z[i]) << "body " << i;
    EXPECT_EQ(pa.vx[i], pb.vx[i]) << "body " << i;
  }
}

// --- schedule stress -------------------------------------------------------

TEST(LaunchEngine, StressRandomCrossStreamDagsKeepDependencyOrder) {
  // Free-running stress over random DAGs: every body asserts that all of
  // its dependencies published their completion flags before it started,
  // with four streams sharing the two lanes.
  Xoshiro256 rng(99);
  constexpr int kN = 200;
  for (int round = 0; round < 4; ++round) {
    Device dev(4);
    Stream streams[4] = {Stream{"s0"}, Stream{"s1"}, Stream{"s2"},
                         Stream{"s3"}};
    std::vector<std::atomic<int>> done(kN + 1);
    for (auto& d : done) d.store(0, std::memory_order_relaxed);
    std::atomic<int> violations{0};
    std::vector<Event> events(kN + 1);
    for (int i = 1; i <= kN; ++i) {
      LaunchDesc desc;
      desc.label = "stress";
      desc.items = 1;
      desc.stream = &streams[rng.next() % 4];
      std::array<std::uint64_t, 4> dep_ids{};
      for (int d = 0; d < 2; ++d) {
        if (i > 1 && (rng.next() & 1u) != 0) {
          const auto j = static_cast<std::size_t>(
              1 + rng.next() % static_cast<std::uint64_t>(i - 1));
          desc.deps[static_cast<std::size_t>(d)] = events[j];
          dep_ids[static_cast<std::size_t>(d)] = events[j].id;
        }
      }
      std::atomic<int>* flags = done.data();
      events[static_cast<std::size_t>(i)] =
          dev.launch(desc, [flags, dep_ids, i, &violations](simt::OpCounts&) {
            for (std::uint64_t d : dep_ids) {
              if (d != 0 &&
                  flags[d].load(std::memory_order_acquire) == 0) {
                violations.fetch_add(1, std::memory_order_relaxed);
              }
            }
            flags[i].store(1, std::memory_order_release);
          });
    }
    dev.synchronize();
    EXPECT_EQ(violations.load(), 0) << "round " << round;
    for (int i = 1; i <= kN; ++i) {
      ASSERT_EQ(done[static_cast<std::size_t>(i)].load(), 1)
          << "launch " << i << " never ran";
    }
  }
}

// Two lanes and the host share the one team. Every body fills each of its
// lane's worker arenas with a body-unique pattern on its serial path,
// rewrites it in several parallel_ranges collectives (each worker checking
// what the previous pass left in its own slot) and verifies the end state
// serially; meanwhile the host runs parallel_for collectives on the same
// device. A body that saw another lane's or the host's writes in its
// scratch, or a slot shared across contexts, fails a verification (and,
// under TSan, races).
void ExpectLanesKeepArenasPrivate(int workers) {
  Device dev(workers);
  ASSERT_EQ(dev.lane_count(), 2);
  Stream a("a"), b("b");
  constexpr std::size_t kWords = 512;
  constexpr int kPasses = 3;
  std::atomic<int> failures{0};
  std::atomic<int> bodies{0};
  auto pattern = [](int key, int slot, int pass, std::size_t j) {
    return (static_cast<std::uint64_t>(key) << 32) ^
           (static_cast<std::uint64_t>(slot) << 24) ^
           (static_cast<std::uint64_t>(pass) << 16) ^ j;
  };
  auto launch_body = [&](Stream& s, int key) {
    LaunchDesc desc;
    desc.stream = &s;
    (void)dev.launch(desc, [&failures, &bodies, pattern,
                            key](simt::OpCounts&) {
      Device& d = Device::current();
      const int nw = d.workers();
      std::array<std::span<std::uint64_t>, Device::kMaxWorkers> scratch{};
      for (int t = 0; t < nw; ++t) {
        Arena& arena = d.context_worker(t).arena;
        arena.reset();
        auto span = arena.alloc_span<std::uint64_t>(kWords);
        for (std::size_t j = 0; j < kWords; ++j) {
          span[j] = pattern(key, t, 0, j);
        }
        scratch[static_cast<std::size_t>(t)] = span;
      }
      for (int pass = 1; pass <= kPasses; ++pass) {
        d.parallel_ranges(
            0, static_cast<std::size_t>(nw) * kWords,
            [&](Worker& w, std::size_t lo, std::size_t hi) {
              auto span = scratch[static_cast<std::size_t>(w.id)];
              for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t j = i % kWords;
                if (span[j] != pattern(key, w.id, pass - 1, j)) {
                  failures.fetch_add(1, std::memory_order_relaxed);
                }
                span[j] = pattern(key, w.id, pass, j);
              }
            });
      }
      for (int t = 0; t < nw; ++t) {
        const auto span = scratch[static_cast<std::size_t>(t)];
        for (std::size_t j = 0; j < kWords; ++j) {
          if (span[j] != pattern(key, t, kPasses, j)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      bodies.fetch_add(1, std::memory_order_relaxed);
    });
  };
  std::vector<std::size_t> host(4096);
  int host_failures = 0;
  auto host_collective = [&](std::size_t round) {
    dev.parallel_for(0, host.size(),
                     [&](std::size_t i) { host[i] = i * 31 + round; });
    for (std::size_t i = 0; i < host.size(); ++i) {
      if (host[i] != i * 31 + round) ++host_failures;
    }
  };

  // Warm-up: every lane's slots reach their high-water capacity.
  launch_body(a, 1);
  launch_body(b, 2);
  dev.synchronize();
  const std::uint64_t warm = dev.arena_heap_allocations();
  EXPECT_GT(warm, 0u);

  constexpr int kLaunches = 200;
  for (int i = 0; i < kLaunches; ++i) {
    launch_body(a, 3 + 2 * i);
    launch_body(b, 4 + 2 * i);
    host_collective(static_cast<std::size_t>(i));
  }
  dev.synchronize();
  EXPECT_EQ(bodies.load(), 2 + 2 * kLaunches);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(host_failures, 0);
  EXPECT_EQ(dev.arena_heap_allocations(), warm);
}

TEST(LaunchEngine, SharedTeamKeepsEachLanesArenasPrivate) {
  // With 4 workers the lanes and the host take turns on the team. With one
  // worker the team has no threads, so the two lanes and the host each run
  // their collectives inline, at the same time, on their own slot 0.
  for (int workers : {4, 1}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    ExpectLanesKeepArenasPrivate(workers);
  }
}

} // namespace
} // namespace gothic::runtime
