// Tests for the parallel_for contract and the determinism guarantee of the
// parallelized DSE screening / exploration / load sweeps: serial (1 worker)
// and parallel executions must produce identical results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "shg/common/parallel.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/search.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg {
namespace {

/// Restores the global thread cap on scope exit so tests do not leak their
/// setting into each other.
class ThreadCapGuard {
 public:
  explicit ThreadCapGuard(int cap) { set_max_threads(cap); }
  ~ThreadCapGuard() { set_max_threads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCapGuard guard(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, HandlesZeroAndOneTask) {
  ThreadCapGuard guard(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsTaskException) {
  ThreadCapGuard guard(4);
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i == 7) throw Error("task failure");
                            }),
               Error);
}

TEST(ParallelFor, ResultsIndependentOfWorkerCount) {
  std::vector<double> serial(257), parallel(257);
  {
    ThreadCapGuard guard(1);
    parallel_for(serial.size(), [&](std::size_t i) {
      serial[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
  }
  {
    ThreadCapGuard guard(8);
    parallel_for(parallel.size(), [&](std::size_t i) {
      parallel[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
  }
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, GreedyDseIdenticalSerialVsParallel) {
  const tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  const customize::Goal goal{0.30};
  customize::SearchResult serial, parallel;
  {
    ThreadCapGuard guard(1);
    serial = customize::customize_greedy(arch, goal);
  }
  {
    ThreadCapGuard guard(8);
    parallel = customize::customize_greedy(arch, goal);
  }
  EXPECT_EQ(serial.params, parallel.params);
  EXPECT_EQ(serial.metrics.area_overhead, parallel.metrics.area_overhead);
  EXPECT_EQ(serial.metrics.avg_hops, parallel.metrics.avg_hops);
  EXPECT_EQ(serial.metrics.throughput_bound,
            parallel.metrics.throughput_bound);
  ASSERT_EQ(serial.history.size(), parallel.history.size());
  for (std::size_t i = 0; i < serial.history.size(); ++i) {
    EXPECT_EQ(serial.history[i].params, parallel.history[i].params);
    EXPECT_EQ(serial.history[i].note, parallel.history[i].note);
  }
}

TEST(ParallelDeterminism, ExploreIdenticalSerialVsParallel) {
  const tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  customize::ExploreOptions options;
  options.max_row_skips = 1;
  options.max_col_skips = 1;
  std::vector<customize::ExploredPoint> serial, parallel;
  {
    ThreadCapGuard guard(1);
    serial = customize::explore_shg(arch, options);
  }
  {
    ThreadCapGuard guard(8);
    parallel = customize::explore_shg(arch, options);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].params, parallel[i].params);
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_EQ(serial[i].metrics.area_overhead,
              parallel[i].metrics.area_overhead);
    EXPECT_EQ(serial[i].metrics.throughput_bound,
              parallel[i].metrics.throughput_bound);
  }
}

TEST(ParallelDeterminism, LoadSweepIdenticalSerialVsParallel) {
  const auto topo = topo::make_mesh(4, 4);
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  eval::ExperimentSpec spec;
  spec.topologies.push_back(eval::TopologyCase{topo, latencies, ""});
  spec.traffic.push_back(eval::TrafficCase{"uniform", ""});
  spec.rates = {0.02, 0.05, 0.10, 0.15};
  spec.config.sim.warmup_cycles = 200;
  spec.config.sim.measure_cycles = 600;

  eval::ExperimentReport serial, parallel;
  {
    ThreadCapGuard guard(1);
    serial = eval::run_experiment(spec);
  }
  {
    ThreadCapGuard guard(8);
    parallel = eval::run_experiment(spec);
  }
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].offered_rate, parallel.points[i].offered_rate);
    EXPECT_EQ(serial.points[i].accepted_rate.mean,
              parallel.points[i].accepted_rate.mean);
    EXPECT_EQ(serial.points[i].avg_latency.mean,
              parallel.points[i].avg_latency.mean);
    EXPECT_EQ(serial.points[i].p99_latency.mean,
              parallel.points[i].p99_latency.mean);
    EXPECT_EQ(serial.points[i].all_drained, parallel.points[i].all_drained);
  }
}

TEST(WorkerPool, ExecutesEveryTaskExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) r.store(0);
  {
    WorkerPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&ran, i] { ran[static_cast<std::size_t>(i)].fetch_add(1); });
    }
    pool.drain();
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(ran[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
    }
  }
}

TEST(WorkerPool, DestructorDrainsOutstandingTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // No drain: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPool, TaskExceptionIsContainedAndReported) {
  std::mutex mutex;
  std::vector<std::string> errors;
  std::atomic<int> ran{0};
  WorkerPool pool(2);
  pool.set_error_handler([&](std::exception_ptr error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex);
      errors.push_back(e.what());
    }
  });
  pool.submit([] { throw Error("request gone wrong"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.drain();
  // The pool survived the throw and kept serving.
  EXPECT_EQ(ran.load(), 10);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("request gone wrong"), std::string::npos);
}

TEST(WorkerPool, DrainAllowsFurtherSubmissions) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 1);
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 2);
}

TEST(WorkerPool, RejectsNullTask) {
  WorkerPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), Error);
}

}  // namespace
}  // namespace shg
