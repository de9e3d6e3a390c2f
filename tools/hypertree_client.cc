// hypertree_client: one-shot client for the hypertree_serve daemon.
//
//   hypertree_client --port=N decompose <instance.hg> [flags]
//   hypertree_client --port=N ping|stats|shutdown
//
//   --port=N             server port (default 7411)
//   --budget-seconds=S   per-request solve budget (server default if unset)
//   --expect-source=S    fail (exit 3) unless the response's `source`
//                        field equals S (memory|disk|solved)
//   --witness-out=FILE   write the response's witness text to FILE
//   --quiet              suppress the response dump on stdout
//
// Prints the raw JSON response to stdout. Exit codes: 0 ok, 1 transport
// or server error, 2 usage, 3 --expect-source mismatch, 4 the server
// answered status "timeout".
//
// An unknown flag is an error: the tool names it, prints its usage and
// exits 2.

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "serve/protocol.h"
#include "util/flags.h"
#include "util/json.h"

using namespace hypertree;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hypertree_client [--port=N] decompose <instance.hg>\n"
               "       hypertree_client [--port=N] ping|stats|shutdown\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (!flags.CheckKnown({"help", "port", "budget-seconds", "expect-source",
                         "witness-out", "quiet"})) {
    return Usage();
  }
  if (flags.Has("help") || flags.positional().empty()) return Usage();
  const std::string& op = flags.positional()[0];

  Json request = Json::Object();
  request.Set("op", op);
  if (op == "decompose") {
    if (flags.positional().size() != 2) return Usage();
    std::ifstream in(flags.positional()[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "hypertree_client: cannot read %s\n",
                   flags.positional()[1].c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    request.Set("instance", text.str());
    if (flags.Has("budget-seconds")) {
      request.Set("budget_seconds", flags.GetDouble("budget-seconds"));
    }
  } else if (op != "ping" && op != "stats" && op != "shutdown") {
    return Usage();
  }

  const int port = static_cast<int>(flags.GetInt("port", 7411));
  std::string error;
  int fd = serve::ConnectLoopback(port, &error);
  if (fd < 0) {
    std::fprintf(stderr, "hypertree_client: %s\n", error.c_str());
    return 1;
  }
  std::string body;
  int status = 1;
  if (!serve::WriteFrame(fd, request.Dump(), &error) ||
      serve::ReadFrame(fd, &body, &error) != 1) {
    std::fprintf(stderr, "hypertree_client: %s\n", error.c_str());
    ::close(fd);
    return 1;
  }
  ::close(fd);

  std::optional<Json> response = Json::Parse(body, &error);
  if (!response.has_value() || !response->is_object()) {
    std::fprintf(stderr, "hypertree_client: malformed response: %s\n",
                 error.c_str());
    return 1;
  }
  if (!flags.GetBool("quiet")) std::printf("%s\n", response->Dump().c_str());

  const Json* resp_status = response->Find("status");
  const std::string status_text =
      resp_status != nullptr ? resp_status->AsString() : "";
  if (status_text == "ok") {
    status = 0;
  } else if (status_text == "timeout") {
    status = 4;
  } else {
    const Json* message = response->Find("error");
    std::fprintf(stderr, "hypertree_client: server error: %s\n",
                 message != nullptr ? message->AsString().c_str() : "?");
    return 1;
  }

  if (const std::string want = flags.GetString("expect-source");
      !want.empty()) {
    const Json* source = response->Find("source");
    const std::string got = source != nullptr ? source->AsString() : "";
    if (got != want) {
      std::fprintf(stderr,
                   "hypertree_client: expected source %s, server answered "
                   "from %s\n",
                   want.c_str(), got.empty() ? "(none)" : got.c_str());
      return 3;
    }
  }

  if (const std::string out_path = flags.GetString("witness-out");
      !out_path.empty()) {
    const Json* witness = response->Find("witness");
    if (witness == nullptr) {
      std::fprintf(stderr, "hypertree_client: response carries no witness\n");
      return 1;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out << witness->AsString();
    if (!out.good()) {
      std::fprintf(stderr, "hypertree_client: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  return status;
}
