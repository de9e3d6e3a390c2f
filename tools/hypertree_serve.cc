// hypertree_serve: long-running decomposition-as-a-service daemon.
//
//   hypertree_serve [flags]
//
//   --port=N             loopback TCP port (default 7411; 0 = ephemeral,
//                        printed on startup)
//   --cache-dir=DIR      persistent content-addressed witness store
//                        (default: none — memory cache only)
//   --cache-max-bytes=B  disk-store size cap with LRU eviction; accepts
//                        k/m/g suffixes (default: 0 = uncapped)
//   --metrics=FILE       append one NDJSON access record per request
//   --budget-seconds=S   default per-request solve budget (default 10)
//   --threads=N          portfolio racing threads (default: hardware)
//   --max-requests=N     exit after N requests (default: run until
//                        shutdown request or SIGTERM/SIGINT)
//
// An unknown flag is an error: the tool names it, prints its usage and
// exits 2.
//
// Protocol: 4-byte big-endian length prefix + JSON body per frame; see
// docs/SERVING.md. Drive it with tools/hypertree_client.

#include <cstdio>

#include "csp/morsel.h"
#include "serve/server.h"
#include "util/flags.h"

using namespace hypertree;

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: hypertree_serve [--port=N] [--cache-dir=DIR] "
               "[--cache-max-bytes=B]\n"
               "                       [--metrics=FILE] [--budget-seconds=S]\n"
               "                       [--threads=N] [--max-requests=N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (!flags.CheckKnown({"help", "port", "cache-dir", "cache-max-bytes",
                         "metrics", "budget-seconds", "threads",
                         "max-requests"})) {
    PrintUsage(stderr);
    return 2;
  }
  if (flags.Has("help")) {
    PrintUsage(stdout);
    return 0;
  }
  serve::ServerOptions options;
  options.port = static_cast<int>(flags.GetInt("port", options.port));
  options.cache_dir = flags.GetString("cache-dir");
  const std::string cap = flags.GetString("cache-max-bytes");
  if (!cap.empty() && !ParseByteSize(cap, &options.cache_max_bytes)) {
    std::fprintf(stderr, "error: bad --cache-max-bytes value: %s\n",
                 cap.c_str());
    return 2;
  }
  options.metrics_path = flags.GetString("metrics");
  options.default_budget_seconds =
      flags.GetDouble("budget-seconds", options.default_budget_seconds);
  options.threads = static_cast<int>(flags.GetInt("threads", options.threads));
  options.max_requests = flags.GetInt("max-requests", options.max_requests);
  return serve::RunServer(options);
}
