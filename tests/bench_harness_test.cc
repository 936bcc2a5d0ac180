#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "server/wire.h"

namespace krsp::bench {
namespace {

namespace wire = server::wire;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(GateReport, WritesTheGateShapeThatParsesBack) {
  const std::string path = testing::TempDir() + "gate_report_shape.json";
  GateReport report(
      "E99", wire::ObjectWriter().field("n", std::int64_t{10}).done(), true);
  report.section("latency_ms", wire::ObjectWriter().field("p50", 1.5).done())
      .section("hit_rate", 0.25)
      .gate("speedup", 3.0, 1.5)
      .gate("served_frac", 1.0, 1.0);
  ASSERT_TRUE(report.write(path));

  std::string error;
  const auto doc = wire::parse(read_file(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->type, wire::Value::Type::kObject);
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc->members) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"experiment", "host", "config",
                                            "identical", "latency_ms",
                                            "hit_rate", "gate"}));
  EXPECT_EQ(doc->get_string("experiment"), "E99");
  EXPECT_TRUE(doc->get_bool("identical", false));
  EXPECT_DOUBLE_EQ(doc->get_number("hit_rate", 0.0), 0.25);

  const wire::Value* host = doc->find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_GE(host->get_int("nproc", -1), 0);
  EXPECT_FALSE(host->get_string("build_type").empty());
  EXPECT_EQ(doc->find("config")->get_int("n", 0), 10);
  EXPECT_DOUBLE_EQ(doc->find("latency_ms")->get_number("p50", 0.0), 1.5);

  const wire::Value* gate = doc->find("gate");
  ASSERT_NE(gate, nullptr);
  ASSERT_EQ(gate->members.size(), 2u);
  const wire::Value* speedup = gate->find("speedup");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->get_number("value", 0.0), 3.0);
  EXPECT_EQ(speedup->get_string("direction"), "higher");
  EXPECT_DOUBLE_EQ(speedup->get_number("min", 0.0), 1.5);
  EXPECT_EQ(gate->members[1].first, "served_frac");
}

TEST(GateReport, NonFiniteValuesBecomeNull) {
  const std::string path = testing::TempDir() + "gate_report_null.json";
  GateReport report("E99", "{}", false);
  report.section("inf", std::numeric_limits<double>::infinity())
      .gate("ratio", std::nan(""), 1.0);
  ASSERT_TRUE(report.write(path));

  const auto doc = wire::parse(read_file(path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->get_bool("identical", true));
  ASSERT_NE(doc->find("inf"), nullptr);
  EXPECT_EQ(doc->find("inf")->type, wire::Value::Type::kNull);
  const wire::Value* ratio = doc->find("gate")->find("ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->find("value")->type, wire::Value::Type::kNull);
  EXPECT_DOUBLE_EQ(ratio->get_number("min", 0.0), 1.0);
}

TEST(GateReport, UnwritablePathIsAFailure) {
  GateReport report("E99", "{}", true);
  report.gate("ratio", 1.0, 1.0);
  EXPECT_FALSE(report.write(testing::TempDir() + "no_such_dir/report.json"));
}

TEST(GateReport, EmptyPathWritesNothing) {
  GateReport report("E99", "{}", true);
  EXPECT_TRUE(report.write(""));
}

TEST(FanOut, EveryRequestRunsOnceOnItsRoundRobinClient) {
  constexpr int kClients = 3;
  constexpr int kRequests = 10;
  std::vector<std::atomic<int>> runs(kRequests);
  const LoadReport report =
      fan_out(kClients, kRequests, [&](int c, int r, Tally& tally) {
        EXPECT_EQ(r % kClients, c);
        ++runs[static_cast<std::size_t>(r)];
        (r % 2 == 0 ? tally.served : tally.rejected) += 1;
        tally.latency_ms.push_back(r);
      });
  for (const auto& n : runs) EXPECT_EQ(n.load(), 1);
  EXPECT_EQ(report.served, 5u);
  EXPECT_EQ(report.rejected, 5u);
  EXPECT_EQ(report.total(), 10u);
  EXPECT_DOUBLE_EQ(report.served_frac(), 0.5);
  EXPECT_DOUBLE_EQ(report.rejection_rate(), 0.5);
  EXPECT_EQ(report.latency_ms.count(), 10u);
  EXPECT_GE(report.wall_seconds, 0.0);
}

TEST(FanOut, AClientsExceptionIsRethrownAfterTheJoin) {
  std::atomic<int> runs{0};
  EXPECT_THROW(fan_out(2, 6,
                       [&](int, int r, Tally&) {
                         ++runs;
                         if (r == 1) throw std::runtime_error("client 1");
                       }),
               std::runtime_error);
  // Client 1 stopped at its first request; client 0 ran all three.
  EXPECT_EQ(runs.load(), 4);
}

}  // namespace
}  // namespace krsp::bench
