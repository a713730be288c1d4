// caa-inspect: decode and query flight-recorder dumps.
//
//   caa-inspect DUMP.caafr                     full report
//   caa-inspect DUMP.caafr --action 0          one action's records/paths
//   caa-inspect DUMP.caafr --node 2            records touching node/object 2
//   caa-inspect DUMP.caafr --kind Exception    one wire message kind
//   caa-inspect DUMP.caafr --chain 42          causal chain ending at #42
//   caa-inspect DUMP.caafr --no-records        critical paths only
//   caa-inspect DUMP.caafr --no-paths          records only
//
// Exit codes: 0 ok, 1 undecodable dump, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/message.h"
#include "obs/causal.h"
#include "obs/flight_recorder.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: caa-inspect DUMP.caafr [--action SCOPE] [--node N] "
               "[--kind NAME|NUM] [--chain ID] [--no-records] [--no-paths]\n");
}

/// Accepts a numeric MsgKind or its kind_name() (e.g. "Exception", "ACK").
bool parse_kind(const std::string& arg, std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long numeric = std::strtoul(arg.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && !arg.empty()) {
    out = static_cast<std::uint32_t>(numeric);
    return true;
  }
  for (const caa::net::MsgKind kind : caa::net::all_kinds()) {
    if (arg == caa::net::kind_name(kind)) {
      out = static_cast<std::uint32_t>(kind);
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string path = argv[1];
  caa::obs::InspectOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--action" && has_value) {
      options.scope = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--node" && has_value) {
      options.node =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--kind" && has_value) {
      std::uint32_t kind = 0;
      if (!parse_kind(argv[++i], kind)) {
        std::fprintf(stderr, "caa-inspect: unknown message kind '%s'\n",
                     argv[i]);
        return 2;
      }
      options.kind = kind;
    } else if (arg == "--chain" && has_value) {
      options.chain = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--no-records") {
      options.show_records = false;
    } else if (arg == "--no-paths") {
      options.show_paths = false;
    } else {
      usage();
      return 2;
    }
  }

  const caa::Result<caa::obs::FlightDump> dump =
      caa::obs::FlightRecorder::read_dump(path);
  if (!dump.is_ok()) {
    std::fprintf(stderr, "caa-inspect: %s: %s\n", path.c_str(),
                 dump.status().message().c_str());
    return 1;
  }
  const std::string report = caa::obs::inspect_report(dump.value(), options);
  std::fwrite(report.data(), 1, report.size(), stdout);
  return 0;
}
