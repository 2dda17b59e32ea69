// Unit tests for the anytime-execution primitives (common/exec_context.h):
// cancellation tokens, deadlines, and the fault-injection registry behind
// DBW_FAULT sites.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "dbwipes/common/exec_context.h"

namespace dbwipes {
namespace {

// ---------- Cancellation ----------

TEST(CancellationTest, NullTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_EQ(token.reason(), "");
}

TEST(CancellationTest, SourceTripsItsTokens) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = source.token();
  EXPECT_FALSE(source.cancelled());
  EXPECT_FALSE(a.IsCancelled());
  source.Cancel("user clicked stop");
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(a.IsCancelled());
  EXPECT_TRUE(b.IsCancelled());
  EXPECT_EQ(a.reason(), "user clicked stop");
}

TEST(CancellationTest, FirstReasonWins) {
  CancellationSource source;
  source.Cancel("first");
  source.Cancel("second");
  EXPECT_EQ(source.token().reason(), "first");
}

TEST(CancellationTest, CancelFromAnotherThreadIsVisible) {
  CancellationSource source;
  CancellationToken token = source.token();
  std::thread canceller([&source] { source.Cancel("cross-thread"); });
  while (!token.IsCancelled()) {
    std::this_thread::yield();
  }
  canceller.join();
  EXPECT_EQ(token.reason(), "cross-thread");
}

// ---------- Deadline ----------

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  EXPECT_FALSE(Deadline::Infinite().expired());
}

TEST(DeadlineTest, ExpiresAfterInterval) {
  Deadline d = Deadline::After(1.0);
  EXPECT_FALSE(d.infinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, FarFutureNotExpired) {
  Deadline d = Deadline::After(60000.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 1000.0);
}

// ---------- FaultInjector ----------

TEST(FaultInjectorTest, UnarmedSiteIsOkAndUncounted) {
  FaultInjector faults;
  EXPECT_TRUE(faults.Hit("ranker/score").ok());
  EXPECT_EQ(faults.hits("ranker/score"), 0u);
}

TEST(FaultInjectorTest, ArmedErrorFiresAndCounts) {
  FaultInjector faults;
  faults.ArmError("ranker/score", Status::IoError("disk on fire"));
  Status st = faults.Hit("ranker/score");
  EXPECT_TRUE(st.IsIoError());
  EXPECT_EQ(faults.hits("ranker/score"), 1u);
  faults.Disarm("ranker/score");
  EXPECT_TRUE(faults.Hit("ranker/score").ok());
}

TEST(FaultInjectorTest, CountLimitedFaultSelfDisarms) {
  FaultInjector faults;
  FaultInjector::Fault fault;
  fault.status = Status::RuntimeError("boom");
  fault.count = 2;
  faults.Arm("match/materialize", fault);
  EXPECT_FALSE(faults.Hit("match/materialize").ok());
  EXPECT_FALSE(faults.Hit("match/materialize").ok());
  EXPECT_TRUE(faults.Hit("match/materialize").ok());  // disarmed
  EXPECT_EQ(faults.hits("match/materialize"), 2u);
}

TEST(FaultInjectorTest, LatencyFaultDelays) {
  FaultInjector faults;
  FaultInjector::Fault fault;
  fault.latency_ms = 10.0;
  faults.Arm("scorer/create", fault);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(faults.Hit("scorer/create").ok());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 9.0);
}

TEST(FaultInjectorTest, TripFaultCancelsSource) {
  FaultInjector faults;
  auto source = std::make_shared<CancellationSource>();
  FaultInjector::Fault fault;
  fault.trip = source;
  faults.Arm("enumerate/datasets", fault);
  EXPECT_TRUE(faults.Hit("enumerate/datasets").ok());  // trip, not error
  EXPECT_TRUE(source->cancelled());
}

TEST(FaultInjectorTest, DisarmAllClearsEverything) {
  FaultInjector faults;
  for (const std::string& site : AllFaultSites()) {
    faults.ArmError(site, Status::RuntimeError("armed"));
  }
  faults.DisarmAll();
  for (const std::string& site : AllFaultSites()) {
    EXPECT_TRUE(faults.Hit(site).ok()) << site;
  }
}

TEST(FaultSiteRegistryTest, SitesAreUniqueAndWellFormed) {
  const std::vector<std::string>& sites = AllFaultSites();
  EXPECT_FALSE(sites.empty());
  std::set<std::string> unique(sites.begin(), sites.end());
  EXPECT_EQ(unique.size(), sites.size());
  for (const std::string& site : sites) {
    // "<stage>/<step>" naming convention.
    EXPECT_NE(site.find('/'), std::string::npos) << site;
  }
}

// ---------- ExecContext ----------

TEST(ExecContextTest, DefaultRunsToCompletion) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.StopRequested());
  EXPECT_TRUE(ctx.CheckContinue().ok());
  EXPECT_FALSE(ExecContext::None().StopRequested());
}

TEST(ExecContextTest, CancelledReportsCancelled) {
  CancellationSource source;
  ExecContext ctx;
  ctx.token = source.token();
  source.Cancel("stop it");
  EXPECT_TRUE(ctx.StopRequested());
  Status st = ctx.CheckContinue();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_TRUE(st.IsInterrupt());
  EXPECT_NE(st.ToString().find("stop it"), std::string::npos);
}

TEST(ExecContextTest, ExpiredDeadlineReportsDeadline) {
  ExecContext ctx;
  ctx.deadline = Deadline::After(-1.0);  // already past
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_TRUE(ctx.CheckContinue().IsDeadlineExceeded());
}

TEST(ExecContextTest, CancelOutranksDeadline) {
  CancellationSource source;
  source.Cancel();
  ExecContext ctx;
  ctx.token = source.token();
  ctx.deadline = Deadline::After(-1.0);
  // Both hold; an explicit cancel must not be misreported as a timeout.
  EXPECT_TRUE(ctx.CheckContinue().IsCancelled());
}

TEST(ExecContextTest, InterruptCodesAreInterrupts) {
  EXPECT_TRUE(Status::Cancelled("x").IsInterrupt());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsInterrupt());
  EXPECT_FALSE(Status::ResourceExhausted("x").IsInterrupt());
  EXPECT_FALSE(Status::RuntimeError("x").IsInterrupt());
  EXPECT_FALSE(Status::OK().IsInterrupt());
}

Status SiteUnderTest(const ExecContext& ctx) {
  DBW_FAULT(ctx, "ranker/rank");
  return Status::OK();
}

TEST(ExecContextTest, FaultMacroFiresOnlyWithInjector) {
  ExecContext ctx;
  EXPECT_TRUE(SiteUnderTest(ctx).ok());  // null injector: pure no-op
  FaultInjector faults;
  faults.ArmError("ranker/rank", Status::IoError("injected"));
  ctx.faults = &faults;
  EXPECT_TRUE(SiteUnderTest(ctx).IsIoError());
  faults.Disarm("ranker/rank");
  EXPECT_TRUE(SiteUnderTest(ctx).ok());
  EXPECT_EQ(faults.hits("ranker/rank"), 1u);
}

}  // namespace
}  // namespace dbwipes
