#include "harness.h"

#include <fstream>
#include <iostream>

#include "util/check.h"
#include "util/rng.h"

namespace krsp::bench {

bool same_result(const api::SolveResult& a, const api::SolveResult& b) {
  return a.status == b.status && a.cost == b.cost && a.delay == b.delay &&
         a.paths.paths() == b.paths.paths() &&
         a.telemetry.cost_guess_used == b.telemetry.cost_guess_used;
}

std::string drop_fields(std::string line,
                        std::initializer_list<std::string_view> keys) {
  for (const std::string_view key : keys) {
    const std::string member = server::wire::quoted(key) + ":";
    const std::size_t pos = line.find(member);
    if (pos == std::string::npos) continue;
    const std::size_t end = line.find_first_of(",}", pos + member.size());
    KRSP_CHECK(end != std::string::npos && pos > 0 && line[pos - 1] == ',');
    line.erase(pos - 1, end - (pos - 1));
  }
  return line;
}

std::vector<api::SolveRequest> er_request_pool(int size, int n,
                                               std::uint64_t seed) {
  std::vector<api::SolveRequest> pool;
  pool.reserve(static_cast<std::size_t>(size));
  util::Rng rng(seed);
  while (static_cast<int>(pool.size()) < size) {
    api::RandomInstanceOptions io;
    io.k = 2 + static_cast<int>(pool.size() % 2);
    io.delay_slack = 0.25;
    auto inst = api::random_er_instance(rng, n, 0.35, io);
    if (!inst) continue;
    api::SolveRequest req;
    req.instance = std::move(*inst);
    req.mode = pool.size() % 2 == 0 ? api::Mode::kExactWeights
                                    : api::Mode::kScaled;
    req.tag = "pool-" + std::to_string(pool.size());
    pool.push_back(std::move(req));
  }
  return pool;
}

double LoadReport::served_frac() const {
  return total() == 0
             ? 0.0
             : static_cast<double>(served) / static_cast<double>(total());
}

double LoadReport::rejection_rate() const {
  return total() == 0
             ? 0.0
             : static_cast<double>(rejected) / static_cast<double>(total());
}

GateReport::GateReport(std::string_view experiment, std::string_view config,
                       bool identical) {
  doc_.field("experiment", experiment)
      .raw("host",
           server::wire::ObjectWriter()
               .field("nproc", static_cast<std::int64_t>(
                                   std::thread::hardware_concurrency()))
               .field("build_type", KRSP_BUILD_TYPE)
               .done())
      .raw("config", config)
      .field("identical", identical);
}

GateReport& GateReport::section(std::string_view key, std::string_view json) {
  doc_.raw(key, json);
  return *this;
}

GateReport& GateReport::section(std::string_view key, double value) {
  doc_.field(key, value);
  return *this;
}

GateReport& GateReport::gate(std::string_view name, double value,
                             double min) {
  gate_.raw(name, server::wire::ObjectWriter()
                      .field("value", value)
                      .field("direction", "higher")
                      .field("min", min)
                      .done());
  return *this;
}

bool GateReport::write(const std::string& path) {
  if (path.empty()) return true;
  std::ofstream out(path);
  out << doc_.raw("gate", gate_.done()).done() << "\n";
  out.flush();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace krsp::bench
