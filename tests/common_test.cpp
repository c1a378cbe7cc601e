// Unit tests for shg/common: error macros, geometry, PRNG, tables, strings,
// and the pluggable warning sink (shg/common/log.hpp).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "shg/common/error.hpp"
#include "shg/common/log.hpp"
#include "shg/common/geometry.hpp"
#include "shg/common/prng.hpp"
#include "shg/common/strings.hpp"
#include "shg/common/table.hpp"

namespace shg {
namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    SHG_REQUIRE(1 == 2, "one is not two");
    FAIL() << "SHG_REQUIRE must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInvariant) {
  EXPECT_THROW(SHG_ASSERT(false, "broken"), Error);
}

TEST(Error, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(SHG_REQUIRE(true, ""));
  EXPECT_NO_THROW(SHG_ASSERT(2 + 2 == 4, ""));
}

TEST(Geometry, ManhattanGrid) {
  EXPECT_EQ(manhattan(PointI{0, 0}, PointI{3, 4}), 7);
  EXPECT_EQ(manhattan(PointI{-2, 5}, PointI{1, 1}), 7);
  EXPECT_EQ(manhattan(PointI{2, 2}, PointI{2, 2}), 0);
}

TEST(Geometry, ManhattanAndEuclideanMM) {
  EXPECT_DOUBLE_EQ(manhattan(PointMM{0, 0}, PointMM{3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(euclidean(PointMM{0, 0}, PointMM{3, 4}), 5.0);
}

TEST(Geometry, RectBasics) {
  const RectMM r{{1.0, 2.0}, {4.0, 6.0}};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_EQ(r.center(), (PointMM{2.5, 4.0}));
  EXPECT_TRUE(r.contains(PointMM{1.0, 2.0}));
  EXPECT_TRUE(r.contains(PointMM{2.5, 4.0}));
  EXPECT_FALSE(r.contains(PointMM{0.9, 4.0}));
}

TEST(Geometry, RectOverlap) {
  const RectMM a{{0, 0}, {2, 2}};
  const RectMM b{{1, 1}, {3, 3}};
  const RectMM c{{2, 0}, {4, 2}};  // touching edge: not overlapping
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Prng, DeterministicFromSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, BelowIsUnbiasedEnough) {
  Prng rng(11);
  int counts[5] = {};
  for (int i = 0; i < 50000; ++i) {
    ++counts[rng.below(5)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 10000.0, 450.0);
  }
}

TEST(Prng, RangeInclusive) {
  Prng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, BelowRejectsZero) {
  Prng rng(1);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Every line has the same length (besides the trailing newline split).
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsMismatchedArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Strings, FmtIntSet) {
  EXPECT_EQ(fmt_int_set({}), "{}");
  EXPECT_EQ(fmt_int_set({4}), "{4}");
  EXPECT_EQ(fmt_int_set({2, 5}), "{2, 5}");
}

/// Captures (context, line) pairs for the duration of a test and restores
/// the default stderr sink on destruction.
class SinkCapture {
 public:
  SinkCapture() {
    log::set_sink([this](const std::string& context, const std::string& line) {
      captured_.emplace_back(context, line);
    });
  }
  ~SinkCapture() { log::set_sink(nullptr); }

  const std::vector<std::pair<std::string, std::string>>& lines() const {
    return captured_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> captured_;
};

TEST(Log, WarnfFormatsIntoInstalledSink) {
  SinkCapture capture;
  log::warnf("warning: %s %d\n", "code", 42);
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0].second, "warning: code 42\n");
  EXPECT_EQ(capture.lines()[0].first, "");  // no context set
}

TEST(Log, ScopedContextTagsAndNests) {
  SinkCapture capture;
  EXPECT_EQ(log::context(), "");
  {
    log::ScopedContext outer("req-1");
    EXPECT_EQ(log::context(), "req-1");
    log::warnf("outer\n");
    {
      log::ScopedContext inner("req-2");
      log::warnf("inner\n");
    }
    log::warnf("outer again\n");
  }
  EXPECT_EQ(log::context(), "");
  ASSERT_EQ(capture.lines().size(), 3u);
  EXPECT_EQ(capture.lines()[0].first, "req-1");
  EXPECT_EQ(capture.lines()[1].first, "req-2");
  EXPECT_EQ(capture.lines()[2].first, "req-1");
}

TEST(Log, ContextIsThreadLocal) {
  SinkCapture capture;
  const log::ScopedContext mine("main-thread");
  std::string other;
  std::thread worker([&other] { other = log::context(); });
  worker.join();
  EXPECT_EQ(other, "");  // the worker never set one
  EXPECT_EQ(log::context(), "main-thread");
}

TEST(Log, NullSinkRestoresDefault) {
  // After restoring the default sink, emission must not touch the old
  // capture (a dangling sink would crash or append).
  auto* captured = new std::vector<std::string>;
  log::set_sink([captured](const std::string&, const std::string& line) {
    captured->push_back(line);
  });
  log::warnf("one\n");
  log::set_sink(nullptr);
  EXPECT_EQ(captured->size(), 1u);
  delete captured;
  // Goes to stderr now; just must not crash.
  testing::internal::CaptureStderr();
  log::warnf("to stderr %d\n", 7);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "to stderr 7\n");
}

}  // namespace
}  // namespace shg
