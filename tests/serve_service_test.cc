#include "serve/server.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>
#include <unistd.h>

#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

using serve::DecompositionService;
using serve::ServerOptions;

std::string InstanceText(const Hypergraph& h) {
  std::ostringstream out;
  WriteHypergraph(h, out);
  return out.str();
}

Json DecomposeRequest(const std::string& instance) {
  Json request = Json::Object();
  request.Set("op", "decompose");
  request.Set("instance", instance);
  return request;
}

std::string Field(const Json& response, const std::string& name) {
  const Json* value = response.Find(name);
  return value != nullptr ? value->AsString() : "";
}

TEST(ServeServiceTest, SolvedThenMemoryThenDiskAnswerIdenticalWitnesses) {
  const std::string dir =
      ::testing::TempDir() + "serve_service_test_two_level";
  std::filesystem::remove_all(dir);
  const std::string instance =
      InstanceText(RandomHypergraph(18, 22, 2, 4, 17));
  CancellationToken cancel;

  ServerOptions options;
  options.cache_dir = dir;
  DecompositionService service(options);

  Json cold = service.Handle(DecomposeRequest(instance), cancel);
  ASSERT_EQ(Field(cold, "status"), "ok") << cold.Dump();
  EXPECT_EQ(Field(cold, "source"), "solved");
  const std::string witness = Field(cold, "witness");
  ASSERT_FALSE(witness.empty());

  Json warm = service.Handle(DecomposeRequest(instance), cancel);
  EXPECT_EQ(Field(warm, "source"), "memory");
  EXPECT_EQ(Field(warm, "witness"), witness);
  EXPECT_EQ(Field(warm, "key"), Field(cold, "key"));

  // A fresh service over the same directory: disk hit, same bytes, and
  // the hit is promoted so a repeat answers from memory.
  DecompositionService restarted(options);
  Json disk = restarted.Handle(DecomposeRequest(instance), cancel);
  EXPECT_EQ(Field(disk, "source"), "disk");
  EXPECT_EQ(Field(disk, "witness"), witness);
  Json promoted = restarted.Handle(DecomposeRequest(instance), cancel);
  EXPECT_EQ(Field(promoted, "source"), "memory");
  EXPECT_EQ(Field(promoted, "witness"), witness);

  std::filesystem::remove_all(dir);
}

TEST(ServeServiceTest, RenamedInstanceHitsTheSameEntry) {
  Hypergraph h = RandomHypergraph(16, 20, 2, 4, 23);
  // Reverse vertex ids and edge order: same structure, different text.
  const int n = h.NumVertices();
  Hypergraph renamed(n);
  for (int e = h.NumEdges() - 1; e >= 0; --e) {
    std::vector<int> members;
    for (int v : h.EdgeVertices(e)) members.push_back(n - 1 - v);
    std::string name = "r";
    name += std::to_string(e);
    renamed.AddEdge(members, std::move(name));
  }
  CancellationToken cancel;
  DecompositionService service(ServerOptions{});
  Json first = service.Handle(DecomposeRequest(InstanceText(h)), cancel);
  ASSERT_EQ(Field(first, "status"), "ok");
  Json second =
      service.Handle(DecomposeRequest(InstanceText(renamed)), cancel);
  EXPECT_EQ(Field(second, "source"), "memory");
  EXPECT_EQ(Field(second, "key"), Field(first, "key"));
  EXPECT_EQ(Field(second, "witness"), Field(first, "witness"));
}

TEST(ServeServiceTest, CancelledSolveReturnsCleanTimeout) {
  // A pre-cancelled token: the portfolio race returns right away with
  // its (unproven) prologue bounds and the response degrades to a clean
  // "timeout" — never a crash, never a cached wrong answer.
  const std::string instance =
      InstanceText(RandomHypergraph(60, 80, 3, 6, 31));
  CancellationToken cancelled;
  cancelled.Cancel();
  DecompositionService service(ServerOptions{});
  Json response = service.Handle(DecomposeRequest(instance), cancelled);
  ASSERT_EQ(Field(response, "status"), "timeout") << response.Dump();
  EXPECT_EQ(Field(response, "source"), "solved");
  const Json* exact = response.Find("exact");
  ASSERT_NE(exact, nullptr);
  EXPECT_FALSE(exact->AsBool(true));
  // Anytime bounds are still reported.
  EXPECT_GE(response.Find("width")->AsInt(), 1);
  EXPECT_GE(response.Find("lower_bound")->AsInt(), 1);
  // Unproven results are not cached: a retry solves again.
  CancellationToken live;
  Json retry = service.Handle(DecomposeRequest(instance), live);
  EXPECT_EQ(Field(retry, "source"), "solved");
}

TEST(ServeServiceTest, MalformedRequestsGetErrorResponses) {
  CancellationToken cancel;
  DecompositionService service(ServerOptions{});

  Json no_op = Json::Object();
  EXPECT_EQ(Field(service.Handle(no_op, cancel), "status"), "error");

  Json bad_op = Json::Object();
  bad_op.Set("op", "frobnicate");
  EXPECT_EQ(Field(service.Handle(bad_op, cancel), "status"), "error");

  Json no_instance = Json::Object();
  no_instance.Set("op", "decompose");
  EXPECT_EQ(Field(service.Handle(no_instance, cancel), "status"), "error");

  Json bad_instance = Json::Object();
  bad_instance.Set("op", "decompose");
  bad_instance.Set("instance", "e1(v1,v2");
  EXPECT_EQ(Field(service.Handle(bad_instance, cancel), "status"), "error");

  Json ping = Json::Object();
  ping.Set("op", "ping");
  EXPECT_EQ(Field(service.Handle(ping, cancel), "status"), "ok");
}

TEST(ServeServiceTest, StatsReportShardOccupancy) {
  CancellationToken cancel;
  ServerOptions options;
  options.mem_shards = 8;
  DecompositionService service(options);
  Json stats_request = Json::Object();
  stats_request.Set("op", "stats");

  Json before = service.Handle(stats_request, cancel);
  EXPECT_EQ(before.Find("mem_entries")->AsInt(), 0);
  EXPECT_EQ(before.Find("mem_shards")->AsInt(), 8);
  EXPECT_EQ(before.Find("shard_entries")->items().size(), size_t{8});

  service.Handle(
      DecomposeRequest(InstanceText(RandomHypergraph(14, 16, 2, 4, 41))),
      cancel);
  Json after = service.Handle(stats_request, cancel);
  EXPECT_EQ(after.Find("mem_entries")->AsInt(), 1);
  long total = 0;
  for (const Json& count : after.Find("shard_entries")->items()) {
    total += count.AsInt();
  }
  EXPECT_EQ(total, 1);
}

TEST(ServeServiceTest, EndToEndOverSocket) {
  ServerOptions options;
  options.port = 0;
  options.metrics_path = ::testing::TempDir() + "serve_e2e_metrics.ndjson";
  std::filesystem::remove(options.metrics_path);
  std::string error;
  int bound_port = 0;
  int listen_fd = serve::ListenLoopback(0, &bound_port, &error);
  ASSERT_GE(listen_fd, 0) << error;

  DecompositionService service(options);
  CancellationToken stop;
  std::thread server([&] {
    serve::ServeLoop(listen_fd, service, options, stop);
  });

  auto roundtrip = [&](const Json& request) {
    int fd = serve::ConnectLoopback(bound_port, &error);
    EXPECT_GE(fd, 0) << error;
    std::string body;
    EXPECT_TRUE(serve::WriteFrame(fd, request.Dump(), &error)) << error;
    EXPECT_EQ(serve::ReadFrame(fd, &body, &error), 1) << error;
    ::close(fd);
    std::optional<Json> response = Json::Parse(body, &error);
    EXPECT_TRUE(response.has_value()) << error;
    return response.value_or(Json());
  };

  Json ping = Json::Object();
  ping.Set("op", "ping");
  EXPECT_EQ(Field(roundtrip(ping), "status"), "ok");

  const std::string instance =
      InstanceText(RandomHypergraph(15, 18, 2, 4, 47));
  Json cold = roundtrip(DecomposeRequest(instance));
  EXPECT_EQ(Field(cold, "source"), "solved");
  Json warm = roundtrip(DecomposeRequest(instance));
  EXPECT_EQ(Field(warm, "source"), "memory");
  EXPECT_EQ(Field(warm, "witness"), Field(cold, "witness"));

  Json shutdown = Json::Object();
  shutdown.Set("op", "shutdown");
  EXPECT_EQ(Field(roundtrip(shutdown), "status"), "ok");
  server.join();
  ::close(listen_fd);

  // The metrics file carries one NDJSON record per request.
  std::ifstream metrics(options.metrics_path);
  ASSERT_TRUE(metrics.good());
  int lines = 0;
  std::string line;
  while (std::getline(metrics, line)) {
    std::optional<Json> record = Json::Parse(line, &error);
    ASSERT_TRUE(record.has_value()) << error << ": " << line;
    EXPECT_NE(record->Find("status"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 4);
  std::filesystem::remove(options.metrics_path);
}

TEST(ServeServiceTest, PersistentConnectionRoundTripsDoNotStall) {
  // A plain client on one kept-open connection: no TCP_NODELAY, no
  // TCP_QUICKACK. If either side sent a frame's header and body in two
  // writes, every round trip would wait out the peer's delayed ACK
  // (~40-90 ms on loopback); one write per frame keeps 20 round trips far
  // below the bound.
  ServerOptions options;
  options.port = 0;
  std::string error;
  int bound_port = 0;
  int listen_fd = serve::ListenLoopback(0, &bound_port, &error);
  ASSERT_GE(listen_fd, 0) << error;

  DecompositionService service(options);
  CancellationToken stop;
  std::thread server([&] {
    serve::ServeLoop(listen_fd, service, options, stop);
  });

  int fd = serve::ConnectLoopback(bound_port, &error);
  EXPECT_GE(fd, 0) << error;
  if (fd >= 0) {
    Json ping = Json::Object();
    ping.Set("op", "ping");
    const std::string request = ping.Dump();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) {
      std::string body;
      if (!serve::WriteFrame(fd, request, &error) ||
          serve::ReadFrame(fd, &body, &error) != 1) {
        ADD_FAILURE() << "round trip " << i << ": " << error;
        break;
      }
      std::optional<Json> response = Json::Parse(body, &error);
      EXPECT_TRUE(response.has_value()) << error;
      EXPECT_EQ(Field(response.value_or(Json()), "status"), "ok");
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_LT(ms, 400.0) << "20 ping round trips took " << ms << " ms";
    ::close(fd);
  }
  stop.Cancel();
  server.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace hypertree
