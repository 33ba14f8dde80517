// The benchmark's own tests: the statistics it reports, the instruction
// counter, and the output checks that decide whether a job counts as failed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "checks.h"
#include "counters.h"
#include "ptwgr/circuit/suite.h"
#include "ptwgr/parallel/parallel_router.h"
#include "ptwgr/route/router.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, PicksHighestLadderStepWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(one_to(19)).has_value());
  EXPECT_EQ(tail_percentile(one_to(20))->percentile, 50.0);
  EXPECT_EQ(tail_percentile(one_to(39))->percentile, 50.0);
  EXPECT_EQ(tail_percentile(one_to(40))->percentile, 75.0);
  EXPECT_EQ(tail_percentile(one_to(99))->percentile, 75.0);
  EXPECT_EQ(tail_percentile(one_to(100))->percentile, 90.0);
  EXPECT_EQ(tail_percentile(one_to(999))->percentile, 90.0);
  EXPECT_EQ(tail_percentile(one_to(1000))->percentile, 99.0);
  EXPECT_EQ(tail_percentile(one_to(9999))->percentile, 99.0);
  EXPECT_EQ(tail_percentile(one_to(10000))->percentile, 99.9);
}

TEST(TailPercentile, ReportsValueBeyondAndCount) {
  std::vector<double> samples = one_to(100);
  std::reverse(samples.begin(), samples.end());  // order must not matter
  const Tail tail = *tail_percentile(samples);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.count, 100u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Geomean, OverClasses) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 100.0}), 10.0);
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
  // A class that reported nothing poisons the mean visibly, not silently.
  EXPECT_EQ(geomean({2.0, 0.0, 8.0}), 0.0);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(InstructionCounter, CountsAThreadStartedAfterIt) {
  const InstructionCounter counter;
  const std::uint64_t before = counter.read();
  std::thread([] {
    volatile std::uint64_t x = 1;  // each step loads, multiplies and stores
    for (int i = 0; i < 10'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  }).join();
  // The thread adds its count as it exits, which can trail the join.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // At least five instructions a step; the joining thread itself runs few.
  EXPECT_GE(counter.read() - before, 50'000'000u);
}

TEST(ClassBoundary, MarginToNearestBlockEdge) {
  const std::vector<std::size_t> thirds = {10, 10, 10};
  EXPECT_EQ(class_boundary_margin(50.0, thirds), 4u);  // rank 15
  EXPECT_EQ(class_boundary_margin(66.7, thirds), 0u);  // rank 21: first of block 3
  EXPECT_EQ(class_boundary_margin(66.6, thirds), 0u);  // rank 20: last of block 2
  EXPECT_EQ(class_boundary_margin(75.0, thirds), 2u);  // rank 23
  EXPECT_EQ(class_boundary_margin(50.0, {30}), 30u);   // one class: no edge
  EXPECT_TRUE(clear_of_class_boundaries(50.0, thirds));
  EXPECT_FALSE(clear_of_class_boundaries(66.7, thirds));
}

TEST(ClassBoundary, EqualThirdsKeepP50AndTailInsideOneClass) {
  for (std::size_t n = 30; n <= 3000; n += 3) {
    const std::vector<std::size_t> thirds = {n / 3, n / 3, n / 3};
    EXPECT_TRUE(clear_of_class_boundaries(50.0, thirds)) << n;
    const Tail tail = *tail_percentile(one_to(n));
    EXPECT_TRUE(clear_of_class_boundaries(tail.percentile, thirds))
        << "n=" << n << " p" << tail.percentile;
  }
}

TEST(ClassBoundary, UnequalSharesCanPutTheTailOnAnEdge) {
  // 3 plain : 1 observed, 40 jobs: p75 is the last plain job.
  EXPECT_FALSE(clear_of_class_boundaries(75.0, {30, 10}));
  EXPECT_TRUE(clear_of_class_boundaries(90.0, {300, 100}));
}

class CorruptedResults : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = new ptwgr::Circuit(ptwgr::small_test_circuit(7, 6, 40));
    serial_ = new ptwgr::RoutingResult(ptwgr::route_serial(*circuit_));
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete circuit_;
  }
  static ptwgr::Circuit* circuit_;
  static ptwgr::RoutingResult* serial_;
};

ptwgr::Circuit* CorruptedResults::circuit_ = nullptr;
ptwgr::RoutingResult* CorruptedResults::serial_ = nullptr;

TEST_F(CorruptedResults, IntactSerialResultPasses) {
  EXPECT_EQ(check_serial(*serial_, serial_->metrics), "");
}

TEST_F(CorruptedResults, TamperedMetricFailsAndIsCounted) {
  ptwgr::RoutingResult tampered = *serial_;
  tampered.metrics.area += 1;
  FailureLedger ledger;
  ledger.record(check_serial(*serial_, serial_->metrics));
  ledger.record(check_serial(tampered, serial_->metrics));
  EXPECT_EQ(ledger.attempted(), 2u);
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_NE(ledger.first_error().find("area"), std::string::npos);
}

TEST_F(CorruptedResults, DisconnectedWireSetFails) {
  ptwgr::RoutingResult broken = *serial_;
  ASSERT_FALSE(broken.wires.empty());
  // Drop every wire of the first multi-terminal net: it can no longer be
  // connected, whatever its metrics claim.
  const ptwgr::NetId net = broken.wires.front().net;
  std::erase_if(broken.wires,
                [net](const ptwgr::Wire& w) { return w.net == net; });
  const std::string error = check_serial(broken, serial_->metrics);
  EXPECT_NE(error.find("verification"), std::string::npos) << error;
}

TEST_F(CorruptedResults, DensitySumMismatchFails) {
  ptwgr::RoutingMetrics m = serial_->metrics;
  EXPECT_EQ(check_density_sum(m), "");
  m.channel_density.front() += 1;
  EXPECT_NE(check_density_sum(m), "");
}

TEST_F(CorruptedResults, ParallelResultMustMatchItsReference) {
  const ptwgr::ParallelRoutingResult result = ptwgr::route_parallel(
      *circuit_, ptwgr::ParallelAlgorithm::RowWise, 2);
  EXPECT_EQ(check_parallel(result, result.metrics), "");
  ptwgr::ParallelRoutingResult tampered = result;
  tampered.metrics.track_count += 1;
  EXPECT_NE(check_parallel(tampered, result.metrics), "");
  tampered = result;
  tampered.metrics.switch_flips += 1;
  EXPECT_NE(check_parallel(tampered, result.metrics), "");
}

TEST_F(CorruptedResults, ServeJobMustCompleteWithReferenceOutput) {
  ptwgr::serve::JobResult job;
  job.id = "j1";
  job.status = ptwgr::serve::JobStatus::Completed;
  job.has_metrics = true;
  job.metrics = serial_->metrics;
  EXPECT_EQ(check_serve(job, serial_->metrics, ""), "");

  ptwgr::serve::JobResult shed = job;
  shed.status = ptwgr::serve::JobStatus::Shed;
  EXPECT_NE(check_serve(shed, serial_->metrics, ""), "");

  ptwgr::serve::JobResult tampered = job;
  tampered.metrics.total_wirelength -= 1;
  EXPECT_NE(check_serve(tampered, serial_->metrics, ""), "");

  ptwgr::serve::JobResult report = job;
  report.run_report_json = "{}";
  EXPECT_NE(check_serve(report, serial_->metrics, "{\"x\": 1}"), "");
}

TEST(FailureLedger, ExceptionsCountAsFailures) {
  FailureLedger ledger;
  ledger.record("");
  ledger.record_exception("boom");
  ledger.record("later");
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.first_error(), "exception: boom");
}

}  // namespace
}  // namespace perfbench
