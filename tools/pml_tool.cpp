// pml — command-line front end to the PML-MPI framework.
//
//   pml train   --out model.json [--clusters A,B | --exclude A,B]
//               [--trees N] [--top-features K]
//               [--collectives allgather,alltoall,...]
//               [--threads N] [--cost-source analytic|engine]
//               [--prune-topk K] [--prune-epsilon P] [--hierarchy]
//       Offline stage: build the tuning dataset from the built-in Table-I
//       clusters (minus exclusions) and write the pre-trained bundle.
//       --threads caps training parallelism (0 = all hardware threads,
//       1 = serial); the bundle is bit-identical at any thread count.
//       --cost-source engine measures cells on the event engine with
//       analytic top-k pruning (--prune-topk, --prune-epsilon; see
//       `pml dataset`). --hierarchy trains over label space v2: flat
//       algorithms plus leader-based hierarchical schedules.
//
//   pml dataset --out dataset.json --collective alltoall
//               [--clusters A,B | --exclude A,B] [--cost-source ...]
//               [--prune-topk K] [--prune-epsilon P] [--audit]
//               [--fault-plan plan.json] [--iterations N] [--seed S]
//               [--threads N] [--hierarchy]
//       Build (and persist) one collective's tuning dataset without
//       training: a "dataset"-kind artifact holding every record. The
//       engine cost source accepts a fault plan (which disables pruning —
//       the analytic ranking is fault-blind) and prints the build's
//       measurement/pruning tallies; --audit measures exhaustively and
//       reports the cells pruning would have mislabeled.
//
//   pml compile --model model.json --cluster NAME|spec.json
//               --out table.json [--nodes 1,2,4,8,16] [--ppn 28,56]
//               [--threads N]
//       Online stage: one inference sweep for a cluster, emitting its
//       JSON tuning table. Prints the measured inference time.
//
//   pml query   --table table.json --collective alltoall --nodes 16
//               --ppn 56 --bytes 4096
//       Runtime lookup: print the selected schedule (display name plus
//       the stable label-space-v2 encoding, e.g. "leader:ring+binomial").
//
//   pml inspect --model model.json
//       Show per-collective model shape and feature importances.
//
//   pml clusters
//       List the built-in Table-I cluster specifications.
//
//   pml stats   --metrics metrics.json
//       Pretty-print a metrics.json summary written by --metrics.
//
//   pml doctor  [--dir artifacts/ | --path artifact.json] [--strict]
//               [--repair]
//       Audit on-disk JSON artifacts: classify each as ok / legacy /
//       stale-schema / corrupt / unreadable. Exit 0 always, unless
//       --strict (then nonzero when anything is less than ok). --repair
//       additionally fixes what it can: legacy documents are rewrapped
//       in checksummed envelopes (atomic rewrite), corrupt files are
//       moved to a .quarantine/ sibling directory; ok and stale-schema
//       files are never touched.
//
//   pml serve   [--model model.json] [--port N | --stdio] [--shards N]
//               [--capacity N] [--threads N]
//               [--max-connections N] [--max-line-bytes N]
//               [--read-timeout-ms N] [--queue-limit N]
//       Selector-as-a-service: answer newline-delimited JSON requests
//       (ops: select, table, ping, stats, health — see docs/API.md,
//       "Serve protocol") over TCP on 127.0.0.1:N (0 = ephemeral,
//       printed on stdout) or over stdin/stdout with --stdio. A select
//       whose table is still compiling is answered by one direct model
//       inference on the request thread. Without
//       --model, or when the artifact is corrupt, serves heuristic
//       answers marked "degraded" and keeps re-checking the artifact on
//       cache misses. The --max-*/--read-timeout-ms/--queue-limit flags
//       set the overload limits (connection cap, line-buffer bound, read
//       deadline, pending-recompile queue bound before shedding).
//
//   pml --version (or `pml version`)
//       Print the release version plus the artifact schema matrix this
//       build writes and reads.
//
// Global options (every command except stats, whose --metrics is the file
// it reads): --trace out.json writes a chrome://tracing file for the run;
// --metrics out.json writes the flat span/counter summary.
//
// Each command reads argv through one flag table (commands() below): a
// value flag takes the next token verbatim, a switch takes none, and the
// last of a repeated flag wins. A missing or unknown command, an unknown
// flag, a stray token, a missing value or a missing required flag is a
// usage error (exit 2). A number must be the whole token and fit its
// field: "1x", "-5" for an unsigned field, or a value past the field's
// range is a config error (exit 3).
//
// Exit statuses: 0 success, 1 unexpected failure, 2 usage error, then one
// per pml::ErrorCode (3 config, 4 io, 5 json, 6 sim, 7 ml, 8 tuning).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <charconv>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "core/framework.hpp"
#include "core/serve.hpp"
#include "obs/export.hpp"

namespace {

using namespace pml;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: pml <train|dataset|compile|query|inspect|clusters|"
               "stats|doctor|serve> [options]\n"
               "Global options: --trace out.json, --metrics out.json\n"
               "Run `pml <command>` with missing options to see what it "
               "needs; see the header of tools/pml_tool.cpp for details.\n");
  std::exit(2);
}

/// std::from_chars over the whole token into T (int, std::uint64_t, which
/// is also std::size_t here, or double): a malformed, partial ("1x"),
/// negative-where-unsigned or out-of-range number is a ConfigError.
template <class T>
T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw ConfigError("invalid " + what + ": '" + text + "'");
  }
  return value;
}

/// One command line after parsing: the value of every --key value flag
/// given (the last one wins) and the set of boolean switches given.
struct Args {
  std::map<std::string, std::string> values;
  std::set<std::string> switches;

  bool has(const std::string& key) const { return values.contains(key); }
  bool on(const std::string& key) const { return switches.contains(key); }
  std::string get(const std::string& key) const {
    return has(key) ? values.at(key) : "";
  }
  std::string require(const std::string& key) const {
    if (!has(key)) usage("missing required --" + key);
    return values.at(key);
  }
  /// The required flag as a number of type T.
  template <class T>
  T number(const std::string& key) const {
    return parse_number<T>(require(key), "--" + key);
  }
  /// Overwrite `out` with the flag's value when it was given; the type of
  /// `out` picks the parse and its range.
  template <class T>
  void read(const std::string& key, T& out) const {
    if (has(key)) out = parse_number<T>(values.at(key), "--" + key);
  }
};

/// One command's flag table. Every command but stats also takes the
/// global --trace/--metrics pair (stats reads its --metrics file).
struct Command {
  std::string name;
  std::vector<std::string> values;    ///< flags that take the next token
  std::vector<std::string> switches;  ///< boolean flags
  int (*run)(const Args&);
  bool traced = true;
};

/// The one argv reader: each token after the command must be one of its
/// flags. An unknown flag, a stray token or a value flag at the end of
/// the line is a usage error.
Args parse_command_line(const Command& command, int argc, char** argv) {
  const auto listed = [](const std::vector<std::string>& keys,
                         const std::string& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      usage(command.name + ": unexpected argument: " + arg);
    }
    const std::string key = arg.substr(2);
    if (listed(command.switches, key)) {
      args.switches.insert(key);
      continue;
    }
    if (!listed(command.values, key) &&
        !(command.traced && (key == "trace" || key == "metrics"))) {
      usage(command.name + ": unknown flag " + arg);
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    args.values[key] = argv[++i];
  }
  return args;
}

/// Shared sweep knobs for the commands that build datasets (train and
/// dataset): cost source and the engine-mode pruning layer.
void apply_sweep_args(const Args& args, core::BuildOptions& build) {
  if (args.has("cost-source")) {
    build.cost_source = core::cost_source_from_string(args.get("cost-source"));
  }
  args.read("prune-topk", build.prune_topk);
  args.read("prune-epsilon", build.prune_epsilon);
}

/// Built-in Table-I clusters filtered by --clusters (keep-list) or
/// --exclude (drop-list); both at once is a usage error.
std::vector<sim::ClusterSpec> select_clusters(const Args& args) {
  if (args.has("clusters") && args.has("exclude")) {
    usage("pass --clusters or --exclude, not both");
  }
  if (args.has("clusters")) {
    std::vector<sim::ClusterSpec> picked;
    for (const auto& name : split(args.get("clusters"), ',')) {
      picked.push_back(sim::cluster_by_name(name));
    }
    return picked;
  }
  std::vector<std::string> excluded;
  if (args.has("exclude")) excluded = split(args.get("exclude"), ',');
  std::vector<sim::ClusterSpec> kept;
  for (const auto& c : sim::builtin_clusters()) {
    bool skip = false;
    for (const auto& name : excluded) skip = skip || c.name == name;
    if (!skip) kept.push_back(c);
  }
  return kept;
}

/// A comma-separated --key list of ints, or `out` untouched when absent.
void read_ints(const Args& args, const std::string& key,
               std::vector<int>& out) {
  if (!args.has(key)) return;
  out.clear();
  for (const auto& part : split(args.get(key), ',')) {
    out.push_back(parse_number<int>(part, "--" + key));
  }
}

sim::ClusterSpec load_cluster(const std::string& name_or_path) {
  if (name_or_path.size() > 5 &&
      name_or_path.substr(name_or_path.size() - 5) == ".json") {
    // Bare cluster documents and pml-artifact-v1 envelopes both load.
    return sim::ClusterSpec::from_json(
        artifact_payload(Json::parse(read_file(name_or_path)), "cluster"));
  }
  return sim::cluster_by_name(name_or_path);
}

/// `pml train`: offline stage.
int cmd_train(const Args& args) {
  const std::string out = args.require("out");
  const std::vector<sim::ClusterSpec> training = select_clusters(args);

  core::TrainOptions options;
  apply_sweep_args(args, options.build);
  options.build.hierarchy = args.on("hierarchy");
  args.read("trees", options.forest.n_trees);
  args.read("top-features", options.top_features);
  if (args.has("collectives")) {
    options.collectives.clear();
    for (const auto& name : split(args.get("collectives"), ',')) {
      options.collectives.push_back(coll::collective_from_string(name));
    }
  }
  args.read("threads", options.threads);

  std::printf("training on %zu clusters...\n", training.size());
  const auto fw = core::PmlFramework::train(training, options);
  write_artifact(out, fw.to_json(), "model");
  std::printf("model bundle written to %s\n", out.c_str());
  return 0;
}

/// `pml dataset`: build and persist one collective's tuning dataset.
int cmd_dataset(const Args& args) {
  const std::string out = args.require("out");
  const auto collective =
      coll::collective_from_string(args.require("collective"));
  const std::vector<sim::ClusterSpec> clusters = select_clusters(args);

  core::BuildOptions options;
  apply_sweep_args(args, options);
  options.prune_audit = args.on("audit");
  options.hierarchy = args.on("hierarchy");
  args.read("iterations", options.iterations);
  args.read("seed", options.seed);
  args.read("threads", options.threads);
  if (args.has("fault-plan")) {
    options.faults = sim::FaultPlan::from_json(artifact_payload(
        Json::parse(read_file(args.get("fault-plan"))), "fault-plan"));
  }

  std::printf("building MPI_%s dataset on %zu clusters (%s cost source)...\n",
              coll::to_string(collective).c_str(), clusters.size(),
              core::to_string(options.cost_source).c_str());
  core::BuildStats stats;
  const auto records =
      core::build_records(clusters, collective, options, stats);
  write_artifact(out, core::records_to_json(records, collective), "dataset");
  std::printf("%llu records written to %s\n",
              static_cast<unsigned long long>(stats.cells), out.c_str());
  std::printf("measured %llu evaluations (%llu pruned, %llu rescued by the "
              "epsilon-sample)\n",
              static_cast<unsigned long long>(stats.measured_evals),
              static_cast<unsigned long long>(stats.pruned_evals),
              static_cast<unsigned long long>(stats.epsilon_evals));
  if (options.prune_audit) {
    std::printf("audit: pruning would have mislabeled %llu/%llu cells\n",
                static_cast<unsigned long long>(stats.prune_mispredictions),
                static_cast<unsigned long long>(stats.cells));
  }
  return 0;
}

int cmd_compile(const Args& args) {
  auto fw = core::PmlFramework::load_file(args.require("model"));
  const sim::ClusterSpec cluster = load_cluster(args.require("cluster"));
  const std::string out = args.require("out");

  core::CompileOptions options;  // empty grids = the cluster's own sweep
  read_ints(args, "nodes", options.node_counts);
  read_ints(args, "ppn", options.ppn_values);
  args.read("threads", options.threads);

  const core::TuningTable table = fw.compile_for(cluster, options);
  write_artifact(out, table.to_json(), "tuning-table");
  std::printf("tuning table for '%s' written to %s (inference: %s)\n",
              cluster.name.c_str(), out.c_str(),
              format_time(table.compile_seconds()).c_str());
  return 0;
}

int cmd_query(const Args& args) {
  const core::TuningTable table = core::TuningTable::from_json(artifact_payload(
      Json::parse(read_file(args.require("table"))), "tuning-table"));
  const auto collective =
      coll::collective_from_string(args.require("collective"));
  const int nodes = args.number<int>("nodes");
  const int ppn = args.number<int>("ppn");
  const auto bytes = args.number<std::uint64_t>("bytes");
  const coll::Selection s = table.lookup(collective, nodes, ppn, bytes);
  std::printf("%s [%s]\n", s.display().c_str(), s.encode().c_str());
  return 0;
}

int cmd_inspect(const Args& args) {
  const auto fw = core::PmlFramework::load_file(args.require("model"));
  for (const auto collective : coll::all_collectives()) {
    std::vector<double> importances;
    try {
      importances = fw.full_feature_importances(collective);
    } catch (const TuningError&) {
      continue;  // bundle has no model for this collective
    }
    const auto& forest = fw.model(collective);
    std::printf("MPI_%s: %zu trees over %zu features\n",
                coll::to_string(collective).c_str(), forest.tree_count(),
                fw.selected_columns(collective).size());
    TextTable t({"feature", "importance"});
    for (std::size_t f = 0; f < importances.size(); ++f) {
      if (importances[f] <= 0.0) continue;
      t.add_row({core::feature_names()[f], format_double(importances[f], 4)});
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}

int cmd_clusters(const Args&) {
  TextTable t({"name", "processor", "interconnect", "cores", "L3 (MB)",
               "mem BW (GB/s)"});
  for (const auto& c : sim::builtin_clusters()) {
    t.add_row({c.name, c.processor, sim::to_string(c.interconnect),
               std::to_string(c.hw.cores), format_double(c.hw.l3_cache_mb, 0),
               format_double(c.hw.mem_bw_gbs, 0)});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}

/// Pretty-print a metrics.json summary (written by a --metrics run).
int cmd_stats(const Args& args) {
  const Json doc = Json::parse(read_file(args.require("metrics")));
  if (!doc.contains("format") ||
      doc.at("format").as_string() != "pml-metrics-v1") {
    throw ConfigError("not a pml-metrics-v1 file");
  }

  const auto ns_str = [](double ns) { return format_time(ns / 1e9); };
  const auto& spans = doc.at("spans").as_object();
  if (!spans.empty()) {
    TextTable t({"span", "count", "total", "p50", "p95", "max"});
    t.set_title("spans");
    for (const auto& [name, s] : spans) {
      t.add_row({name, std::to_string(s.at("count").as_int()),
                 ns_str(s.at("total_ns").as_number()),
                 ns_str(s.at("p50_ns").as_number()),
                 ns_str(s.at("p95_ns").as_number()),
                 ns_str(s.at("max_ns").as_number())});
    }
    std::printf("%s\n", t.str().c_str());
  }

  const auto& counters = doc.at("counters").as_object();
  if (!counters.empty()) {
    TextTable t({"counter", "value"});
    t.set_title("counters");
    for (const auto& [name, v] : counters) {
      t.add_row({name, std::to_string(v.as_int())});
    }
    std::printf("%s\n", t.str().c_str());
  }

  const auto& gauges = doc.at("gauges").as_object();
  if (!gauges.empty()) {
    TextTable t({"gauge", "value", "max"});
    t.set_title("gauges");
    for (const auto& [name, g] : gauges) {
      t.add_row({name, std::to_string(g.at("value").as_int()),
                 std::to_string(g.at("max").as_int())});
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}

/// `pml doctor`: audit artifact files.
int cmd_doctor(const Args& args) {
  const bool repair = args.on("repair");
  const std::string dir = args.get("dir");
  const std::string path = args.get("path");
  if (!dir.empty() && !path.empty()) {
    usage("doctor: pass --dir or --path, not both");
  }

  std::vector<std::string> files;
  if (!path.empty()) {
    files.push_back(path);
  } else {
    const std::string root = dir.empty() ? "." : dir;
    if (!std::filesystem::is_directory(root)) {
      throw IoError("doctor: not a directory: " + root);
    }
    for (const auto& entry : std::filesystem::directory_iterator(root)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  }
  if (files.empty()) {
    std::printf("no artifacts found\n");
    return 0;
  }

  int tally[5] = {0, 0, 0, 0, 0};
  int failed_repairs = 0;
  if (repair) {
    TextTable t({"artifact", "verdict", "action", "detail"});
    for (const auto& file : files) {
      const RepairResult fix = repair_artifact(file);
      ++tally[static_cast<int>(fix.info.status)];
      failed_repairs += fix.action == RepairAction::kFailed;
      t.add_row({file, to_string(fix.info.status), to_string(fix.action),
                 fix.detail});
    }
    std::printf("%s", t.str().c_str());
  } else {
    TextTable t({"artifact", "verdict", "kind", "schema", "detail"});
    for (const auto& file : files) {
      const ArtifactInfo info = inspect_artifact(file);
      ++tally[static_cast<int>(info.status)];
      t.add_row({file, to_string(info.status), info.kind,
                 info.schema > 0 ? std::to_string(info.schema) : "-",
                 info.detail});
    }
    std::printf("%s", t.str().c_str());
  }
  std::printf("%d ok, %d legacy, %d stale-schema, %d corrupt, %d unreadable\n",
              tally[static_cast<int>(ArtifactStatus::kOk)],
              tally[static_cast<int>(ArtifactStatus::kLegacy)],
              tally[static_cast<int>(ArtifactStatus::kStaleSchema)],
              tally[static_cast<int>(ArtifactStatus::kCorrupt)],
              tally[static_cast<int>(ArtifactStatus::kUnreadable)]);

  if (args.on("strict")) {
    // --repair fixes legacy and corrupt files, so only what it could not
    // fix (plus schema skew, which is not damage) stays gating.
    if (repair && failed_repairs == 0) {
      return tally[static_cast<int>(ArtifactStatus::kStaleSchema)] > 0
                 ? exit_status(ErrorCode::kJson)
                 : 0;
    }
    if (tally[static_cast<int>(ArtifactStatus::kUnreadable)] > 0) {
      return exit_status(ErrorCode::kIo);
    }
    if (repair ||
        tally[static_cast<int>(ArtifactStatus::kCorrupt)] > 0 ||
        tally[static_cast<int>(ArtifactStatus::kStaleSchema)] > 0 ||
        tally[static_cast<int>(ArtifactStatus::kLegacy)] > 0) {
      return exit_status(ErrorCode::kJson);
    }
  }
  return 0;
}

/// `pml serve`: the selector-as-a-service daemon. The --metrics file is
/// written when the transport loop ends — i.e. on stdin EOF for --stdio;
/// a TCP daemon killed by a signal writes nothing.
int cmd_serve(const Args& args) {
  core::ServeOptions options;
  options.model_path = args.get("model");
  int port = 0;
  args.read("port", port);
  args.read("shards", options.shards);
  args.read("capacity", options.shard_capacity);
  args.read("threads", options.compile.threads);
  args.read("max-connections", options.max_connections);
  args.read("max-line-bytes", options.max_line_bytes);
  args.read("read-timeout-ms", options.read_timeout_ms);
  args.read("queue-limit", options.queue_limit);

  core::ServeEngine engine(options);
  if (!options.model_path.empty() && !engine.model_loaded()) {
    std::fprintf(stderr,
                 "pml: warning: serve: model '%s' unusable; serving "
                 "heuristic answers until it is repaired\n",
                 options.model_path.c_str());
  }
  if (args.on("stdio")) {
    core::serve_stdio(engine, stdin, stdout);
    return 0;
  }
  core::TcpServer server(engine);
  const int bound = server.start(port);
  std::printf("pml serve listening on 127.0.0.1:%d\n", bound);
  std::fflush(stdout);
  server.wait();
  return 0;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"train",
       {"out", "clusters", "exclude", "trees", "top-features", "collectives",
        "threads", "cost-source", "prune-topk", "prune-epsilon"},
       {"hierarchy"},
       cmd_train},
      {"dataset",
       {"out", "collective", "clusters", "exclude", "cost-source",
        "prune-topk", "prune-epsilon", "fault-plan", "iterations", "seed",
        "threads"},
       {"audit", "hierarchy"},
       cmd_dataset},
      {"compile", {"model", "cluster", "out", "nodes", "ppn", "threads"}, {},
       cmd_compile},
      {"query", {"table", "collective", "nodes", "ppn", "bytes"}, {},
       cmd_query},
      {"inspect", {"model"}, {}, cmd_inspect},
      {"clusters", {}, {}, cmd_clusters},
      {"stats", {"metrics"}, {}, cmd_stats, /*traced=*/false},
      {"doctor", {"dir", "path"}, {"strict", "repair"}, cmd_doctor},
      {"serve",
       {"model", "port", "shards", "capacity", "threads", "max-connections",
        "max-line-bytes", "read-timeout-ms", "queue-limit"},
       {"stdio"},
       cmd_serve},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string name = argv[1];
  if (name == "--version" || name == "version") {
    const std::string text = version_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  const auto command =
      std::find_if(commands().begin(), commands().end(),
                   [&](const Command& c) { return c.name == name; });
  if (command == commands().end()) usage("unknown command: " + name);
  const Args args = parse_command_line(*command, argc, argv);
  try {
    // Global trace/metrics capture: enabled for the whole command, files
    // written when the capture leaves scope (after the command returns).
    // Empty for stats, whose --metrics is its input.
    obs::Sink sink;
    if (command->traced) {
      sink.chrome_trace = args.get("trace");
      sink.metrics = args.get("metrics");
    }
    obs::ScopedCapture capture(std::move(sink));
    return command->run(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_status(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
