// pml — command-line front end to the PML-MPI framework.
//
//   pml train   --out model.json [--exclude Frontera,MRI] [--trees N]
//               [--top-features K] [--collectives allgather,alltoall,...]
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
// Global options (any command): --trace out.json writes a chrome://tracing
// file for the run; --metrics out.json writes the flat span/counter summary.
//
// Exit statuses: 0 success, 1 unexpected failure, 2 usage error, then one
// per pml::ErrorCode (3 config, 4 io, 5 json, 6 sim, 7 ml, 8 tuning).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
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

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: pml <train|dataset|compile|query|inspect|clusters|"
               "stats|doctor|serve> [options]\n"
               "Global options: --trace out.json, --metrics out.json\n"
               "Run `pml <command>` with missing options to see what it "
               "needs; see the header of tools/pml_tool.cpp for details.\n");
  std::exit(error == nullptr ? 0 : 2);
}

/// --key value argument map (flags must all take a value).
std::map<std::string, std::string> parse_args(int argc, char** argv,
                                              int start) {
  std::map<std::string, std::string> args;
  for (int i = start; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage(("unexpected argument: " + key).c_str());
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string require(const std::map<std::string, std::string>& args,
                    const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) usage(("missing required --" + key).c_str());
  return it->second;
}

/// std::stoi with the failure mapped onto the pml error taxonomy.
int parse_int(const std::string& text, const std::string& what) {
  try {
    return std::stoi(text);
  } catch (const std::exception&) {
    throw ConfigError("invalid " + what + ": '" + text + "'");
  }
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  try {
    return static_cast<std::uint64_t>(std::stoull(text));
  } catch (const std::exception&) {
    throw ConfigError("invalid " + what + ": '" + text + "'");
  }
}

double parse_double(const std::string& text, const std::string& what) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw ConfigError("invalid " + what + ": '" + text + "'");
  }
}

/// Shared sweep knobs for the commands that build datasets (train and
/// dataset): cost source and the engine-mode pruning layer.
void apply_sweep_args(const std::map<std::string, std::string>& args,
                      core::BuildOptions& build) {
  if (args.contains("cost-source")) {
    build.cost_source = core::cost_source_from_string(args.at("cost-source"));
  }
  if (args.contains("prune-topk")) {
    build.prune_topk = parse_int(args.at("prune-topk"), "--prune-topk");
  }
  if (args.contains("prune-epsilon")) {
    build.prune_epsilon =
        parse_double(args.at("prune-epsilon"), "--prune-epsilon");
  }
}

/// Built-in Table-I clusters filtered by --clusters (keep-list) or
/// --exclude (drop-list); both at once is a usage error.
std::vector<sim::ClusterSpec> select_clusters(
    const std::map<std::string, std::string>& args) {
  if (args.contains("clusters") && args.contains("exclude")) {
    usage("pass --clusters or --exclude, not both");
  }
  if (args.contains("clusters")) {
    std::vector<sim::ClusterSpec> picked;
    for (const auto& name : split(args.at("clusters"), ',')) {
      picked.push_back(sim::cluster_by_name(name));
    }
    return picked;
  }
  std::vector<std::string> excluded;
  if (args.contains("exclude")) excluded = split(args.at("exclude"), ',');
  std::vector<sim::ClusterSpec> kept;
  for (const auto& c : sim::builtin_clusters()) {
    bool skip = false;
    for (const auto& name : excluded) skip = skip || c.name == name;
    if (!skip) kept.push_back(c);
  }
  return kept;
}

std::vector<int> parse_ints(const std::string& csv, const std::string& what) {
  std::vector<int> out;
  for (const auto& part : split(csv, ',')) out.push_back(parse_int(part, what));
  return out;
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

/// `pml train`: offline stage. Parses argv directly (like dataset)
/// because --hierarchy is a boolean flag; installs its own trace/metrics
/// capture so the global options keep working.
int cmd_train(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool hierarchy = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--hierarchy") {
      hierarchy = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      usage(("train: unexpected argument: " + arg).c_str());
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    args[arg.substr(2)] = argv[++i];
  }

  obs::Sink sink;
  if (args.contains("trace")) sink.chrome_trace = args.at("trace");
  if (args.contains("metrics")) sink.metrics = args.at("metrics");
  obs::ScopedCapture capture(std::move(sink));

  const std::string out = require(args, "out");
  const std::vector<sim::ClusterSpec> training = select_clusters(args);

  core::TrainOptions options;
  apply_sweep_args(args, options.build);
  options.build.hierarchy = hierarchy;
  if (args.contains("trees")) {
    options.forest.n_trees = parse_int(args.at("trees"), "--trees");
  }
  if (args.contains("top-features")) {
    options.top_features = parse_int(args.at("top-features"), "--top-features");
  }
  if (args.contains("collectives")) {
    options.collectives.clear();
    for (const auto& name : split(args.at("collectives"), ',')) {
      options.collectives.push_back(coll::collective_from_string(name));
    }
  }
  if (args.contains("threads")) {
    options.threads = parse_int(args.at("threads"), "--threads");
  }

  std::printf("training on %zu clusters...\n", training.size());
  const auto fw = core::PmlFramework::train(training, options);
  write_artifact(out, fw.to_json(), "model");
  std::printf("model bundle written to %s\n", out.c_str());
  return 0;
}

/// `pml dataset`: build and persist one collective's tuning dataset.
/// Parses argv directly because --audit is a boolean flag.
int cmd_dataset(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool audit = false;
  bool hierarchy = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--audit") {
      audit = true;
      continue;
    }
    if (arg == "--hierarchy") {
      hierarchy = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      usage(("dataset: unexpected argument: " + arg).c_str());
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    args[arg.substr(2)] = argv[++i];
  }

  obs::Sink sink;
  if (args.contains("trace")) sink.chrome_trace = args.at("trace");
  if (args.contains("metrics")) sink.metrics = args.at("metrics");
  obs::ScopedCapture capture(std::move(sink));

  const std::string out = require(args, "out");
  const auto collective =
      coll::collective_from_string(require(args, "collective"));
  const std::vector<sim::ClusterSpec> clusters = select_clusters(args);

  core::BuildOptions options;
  apply_sweep_args(args, options);
  options.prune_audit = audit;
  options.hierarchy = hierarchy;
  if (args.contains("iterations")) {
    options.iterations = parse_int(args.at("iterations"), "--iterations");
  }
  if (args.contains("seed")) {
    options.seed = parse_u64(args.at("seed"), "--seed");
  }
  if (args.contains("threads")) {
    options.threads = parse_int(args.at("threads"), "--threads");
  }
  if (args.contains("fault-plan")) {
    options.faults = sim::FaultPlan::from_json(artifact_payload(
        Json::parse(read_file(args.at("fault-plan"))), "fault-plan"));
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
  if (audit) {
    std::printf("audit: pruning would have mislabeled %llu/%llu cells\n",
                static_cast<unsigned long long>(stats.prune_mispredictions),
                static_cast<unsigned long long>(stats.cells));
  }
  return 0;
}

int cmd_compile(const std::map<std::string, std::string>& args) {
  auto fw = core::PmlFramework::load_file(require(args, "model"));
  const sim::ClusterSpec cluster = load_cluster(require(args, "cluster"));
  const std::string out = require(args, "out");

  core::CompileOptions options;  // empty grids = the cluster's own sweep
  if (args.contains("nodes")) {
    options.node_counts = parse_ints(args.at("nodes"), "--nodes");
  }
  if (args.contains("ppn")) {
    options.ppn_values = parse_ints(args.at("ppn"), "--ppn");
  }
  if (args.contains("threads")) {
    options.threads = parse_int(args.at("threads"), "--threads");
  }

  const core::TuningTable table = fw.compile_for(cluster, options);
  write_artifact(out, table.to_json(), "tuning-table");
  std::printf("tuning table for '%s' written to %s (inference: %s)\n",
              cluster.name.c_str(), out.c_str(),
              format_time(fw.inference_seconds()).c_str());
  return 0;
}

int cmd_query(const std::map<std::string, std::string>& args) {
  const core::TuningTable table = core::TuningTable::from_json(artifact_payload(
      Json::parse(read_file(require(args, "table"))), "tuning-table"));
  const auto collective =
      coll::collective_from_string(require(args, "collective"));
  const int nodes = parse_int(require(args, "nodes"), "--nodes");
  const int ppn = parse_int(require(args, "ppn"), "--ppn");
  const auto bytes = parse_u64(require(args, "bytes"), "--bytes");
  const coll::Selection s = table.lookup(collective, nodes, ppn, bytes);
  std::printf("%s [%s]\n", s.display().c_str(), s.encode().c_str());
  return 0;
}

int cmd_inspect(const std::map<std::string, std::string>& args) {
  const auto fw = core::PmlFramework::load_file(require(args, "model"));
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

int cmd_clusters() {
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
int cmd_stats(const std::map<std::string, std::string>& args) {
  const Json doc = Json::parse(read_file(require(args, "metrics")));
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

/// `pml doctor`: audit artifact files. Parses argv directly because
/// --strict/--repair are boolean flags and parse_args() requires --key
/// value pairs.
int cmd_doctor(int argc, char** argv) {
  bool strict = false;
  bool repair = false;
  std::string dir;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--repair") {
      repair = true;
    } else if ((arg == "--dir" || arg == "--path") && i + 1 < argc) {
      (arg == "--dir" ? dir : path) = argv[++i];
    } else {
      usage(("doctor: unexpected argument: " + arg).c_str());
    }
  }
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

  if (strict) {
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

/// `pml serve`: the selector-as-a-service daemon. Parses argv directly
/// (like doctor) because --stdio is a boolean flag; installs its own
/// trace/metrics capture so --trace/--metrics keep working. The metrics
/// file is written when the transport loop ends — i.e. on stdin EOF for
/// --stdio; a TCP daemon killed by a signal writes nothing.
int cmd_serve(int argc, char** argv) {
  core::ServeOptions options;
  bool stdio = false;
  int port = 0;
  obs::Sink sink;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--model") {
      options.model_path = value();
    } else if (arg == "--port") {
      port = parse_int(value(), "--port");
    } else if (arg == "--shards") {
      options.shards = parse_int(value(), "--shards");
    } else if (arg == "--capacity") {
      options.shard_capacity =
          static_cast<std::size_t>(parse_int(value(), "--capacity"));
    } else if (arg == "--threads") {
      options.compile.threads = parse_int(value(), "--threads");
    } else if (arg == "--max-connections") {
      options.max_connections = parse_int(value(), "--max-connections");
    } else if (arg == "--max-line-bytes") {
      options.max_line_bytes =
          static_cast<std::size_t>(parse_int(value(), "--max-line-bytes"));
    } else if (arg == "--read-timeout-ms") {
      options.read_timeout_ms = parse_int(value(), "--read-timeout-ms");
    } else if (arg == "--queue-limit") {
      options.queue_limit = parse_int(value(), "--queue-limit");
    } else if (arg == "--trace") {
      sink.chrome_trace = value();
    } else if (arg == "--metrics") {
      sink.metrics = value();
    } else {
      usage(("serve: unexpected argument: " + arg).c_str());
    }
  }
  obs::ScopedCapture capture(std::move(sink));

  core::ServeEngine engine(options);
  if (!options.model_path.empty() && !engine.model_loaded()) {
    std::fprintf(stderr,
                 "pml: warning: serve: model '%s' unusable; serving "
                 "heuristic answers until it is repaired\n",
                 options.model_path.c_str());
  }
  if (stdio) {
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    const std::string text = version_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  try {
    // doctor, serve, dataset, and train take boolean flags, so they
    // parse argv themselves.
    if (command == "doctor") return cmd_doctor(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "dataset") return cmd_dataset(argc, argv);
    if (command == "train") return cmd_train(argc, argv);
    const auto args = parse_args(argc, argv, 2);
    if (command == "stats") return cmd_stats(args);

    // Global trace/metrics capture: enabled for the whole command, files
    // written when the capture leaves scope (after the command returns).
    obs::Sink sink;
    if (args.contains("trace")) sink.chrome_trace = args.at("trace");
    if (args.contains("metrics")) sink.metrics = args.at("metrics");
    obs::ScopedCapture capture(std::move(sink));

    if (command == "compile") return cmd_compile(args);
    if (command == "query") return cmd_query(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "clusters") return cmd_clusters();
    usage(("unknown command: " + command).c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_status(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
