// Chaos suite (ctest -L chaos): drive the online stage as `pml serve`
// runs it and the discrete-event simulator through every failure mode the
// robustness layer handles — deleted/truncated/corrupt/foreign/unreadable
// model artifacts on one axis, every sim fault type (alone and combined)
// on the other — and assert the system's two invariants: the online stage
// always returns a schema-valid tuning table covering the requested grid,
// and fault-injected simulations always complete deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "coll/runner.hpp"
#include "common/artifact.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/framework.hpp"
#include "core/serve.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace pml {
namespace {

core::PmlFramework& trained() {
  static core::PmlFramework fw = [] {
    core::TrainOptions options;
    options.forest.n_trees = 8;
    const std::vector<sim::ClusterSpec> clusters = {
        sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
    return core::PmlFramework::train(clusters, options);
  }();
  return fw;
}

const sim::ClusterSpec& target() { return sim::cluster_by_name("MRI"); }

/// The requested grid, used both to compile and to audit coverage.
const std::vector<int> kNodes = {2, 4};
const std::vector<int> kPpn = {16};
const std::vector<std::uint64_t> kSizes = {1024, 65536};

/// A usable table answers every (collective, nodes, ppn, size) cell of the
/// requested grid with an algorithm that is valid at that world size.
/// Checked over the paper's collectives: model-compiled tables cover those
/// two, heuristic fallback tables cover all four.
void expect_covers_grid(const core::TuningTable& table) {
  ASSERT_FALSE(table.empty());
  for (const auto collective : coll::paper_collectives()) {
    for (const int nodes : kNodes) {
      for (const int ppn : kPpn) {
        for (const std::uint64_t bytes : kSizes) {
          const coll::Selection s =
              table.lookup(collective, nodes, ppn, bytes);
          EXPECT_TRUE(coll::selection_supports(s, sim::Topology{nodes, ppn}))
              << coll::to_string(collective) << " " << nodes << "x" << ppn
              << " @" << bytes;
        }
      }
    }
  }
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_chaos_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string model_path() const { return (dir_ / "model.json").string(); }

  std::filesystem::path dir_;
};

// --- Artifact chaos: every corruption mode, applied to the model -----------

/// Named ways of damaging an artifact file in place.
struct Damage {
  const char* name;
  std::function<void(const std::string&)> apply;
};

std::vector<Damage> damage_modes() {
  return {
      {"deleted", [](const std::string& p) { std::filesystem::remove(p); }},
      {"truncated",
       [](const std::string& p) {
         const std::string full = read_file(p);
         write_file(p, full.substr(0, full.size() / 3));
       }},
      {"bit_flipped",
       [](const std::string& p) {
         std::string bytes = read_file(p);
         bytes[bytes.size() / 2] ^= 0x20;
         write_file(p, bytes);
       }},
      {"emptied", [](const std::string& p) { write_file(p, ""); }},
      {"foreign_json",
       [](const std::string& p) { write_file(p, "{\"not\": \"ours\"}"); }},
      {"directory",
       [](const std::string& p) {
         std::filesystem::remove(p);
         std::filesystem::create_directories(p);
       }},
  };
}

/// A waited "table" request for the test's grid on `target()`.
constexpr const char* kTableRequest =
    R"({"op":"table","cluster":"MRI","node_counts":[2,4],"ppn_values":[16],)"
    R"("msg_sizes":[1024,65536],"wait":true})";

TEST_F(ChaosTest, EveryDamageModeOnTheModelStillYieldsAUsableTable) {
  const std::string expected =
      trained()
          .compile_for(target(), core::CompileOptions::sweep(kNodes, kPpn,
                                                             kSizes))
          .to_json()
          .dump();
  for (const Damage& damage : damage_modes()) {
    SCOPED_TRACE(damage.name);
    write_artifact(model_path(), trained().to_json(), "model");
    damage.apply(model_path());
    core::ServeOptions options;
    options.model_path = model_path();
    options.async_compile = false;
    core::ServeEngine engine(options);

    // Damaged model: the ladder's bottom rung still answers the grid.
    const Json degraded = Json::parse(engine.handle_line(kTableRequest));
    ASSERT_TRUE(degraded.at("ok").as_bool());
    EXPECT_TRUE(degraded.at("degraded").as_bool());
    EXPECT_EQ(degraded.at("source").as_string(), "heuristic");
    expect_covers_grid(core::TuningTable::from_json(degraded.at("table")));

    // Repaired model: the next request recompiles from it, and the served
    // table is byte-for-byte the direct compile.
    std::filesystem::remove_all(model_path());
    write_artifact(model_path(), trained().to_json(), "model");
    const std::string raw = engine.handle_line(kTableRequest);
    const Json repaired = Json::parse(raw);
    ASSERT_TRUE(repaired.at("ok").as_bool());
    EXPECT_FALSE(repaired.at("degraded").as_bool());
    EXPECT_EQ(repaired.at("source").as_string(), "model");
    EXPECT_TRUE(raw.ends_with("\"table\":" + expected + "}"));
    std::filesystem::remove_all(model_path());
  }
}

TEST_F(ChaosTest, DoctorNeverThrowsOnDamagedArtifacts) {
  for (const Damage& damage : damage_modes()) {
    SCOPED_TRACE(damage.name);
    const std::string file = (dir_ / "artifact.json").string();
    std::filesystem::remove_all(file);
    write_artifact(file, trained().to_json(), "model");
    damage.apply(file);
    const ArtifactInfo info = inspect_artifact(file);
    EXPECT_NE(info.status, ArtifactStatus::kOk);
    std::filesystem::remove_all(file);
  }
}

// --- Simulation chaos: every fault type, alone and combined ----------------

std::vector<std::pair<const char*, sim::FaultPlan>> fault_scenarios() {
  std::vector<std::pair<const char*, sim::FaultPlan>> scenarios;

  sim::FaultPlan degraded;
  degraded.link_degradations.push_back({0, 0.25, 1e-5});
  scenarios.emplace_back("degraded_link", degraded);

  sim::FaultPlan straggler;
  straggler.stragglers.push_back({2, 6.0});
  scenarios.emplace_back("straggler", straggler);

  sim::FaultPlan flapping;
  flapping.flaps.push_back({1, 0.0, 2e-4});
  flapping.flaps.push_back({1, 5e-4, 1e-4});
  scenarios.emplace_back("flapping_nic", flapping);

  sim::FaultPlan corrupting;
  corrupting.corruption.probability = 0.5;
  scenarios.emplace_back("corrupting", corrupting);

  sim::FaultPlan everything;
  everything.seed = 99;
  everything.link_degradations.push_back({0, 0.5, 2e-6});
  everything.stragglers.push_back({1, 2.0});
  everything.flaps.push_back({2, 0.0, 1e-4});
  everything.corruption.probability = 0.25;
  scenarios.emplace_back("everything_at_once", everything);

  return scenarios;
}

TEST_F(ChaosTest, FaultedRunsCompleteAndAreDeterministic) {
  const coll::Algorithm algorithms[] = {coll::Algorithm::kAgRing,
                                        coll::Algorithm::kAaPairwise,
                                        coll::Algorithm::kArRing,
                                        coll::Algorithm::kBcBinomial};
  for (const auto& [name, plan] : fault_scenarios()) {
    SCOPED_TRACE(name);
    for (const auto algorithm : algorithms) {
      sim::SimOptions opts;
      opts.payload = sim::PayloadMode::kTimingOnly;
      opts.faults = plan;
      const auto run = [&] {
        return coll::run_collective(sim::cluster_by_name("Frontera"),
                                    sim::Topology{4, 2}, algorithm, 2048, opts)
            .seconds;
      };
      const double first = run();
      EXPECT_GT(first, 0.0);
      EXPECT_EQ(first, run());  // bit-identical on repeat
    }
  }
}

TEST_F(ChaosTest, CorruptionSurfacesOnlyInVerifyMode) {
  sim::FaultPlan plan;
  plan.corruption.probability = 1.0;

  sim::SimOptions verify;
  verify.faults = plan;
  EXPECT_THROW(
      coll::run_collective(sim::cluster_by_name("Frontera"),
                           sim::Topology{2, 2}, coll::Algorithm::kAgRing, 512,
                           verify),
      SimError);

  sim::SimOptions timing = verify;
  timing.payload = sim::PayloadMode::kTimingOnly;
  EXPECT_NO_THROW(
      coll::run_collective(sim::cluster_by_name("Frontera"),
                           sim::Topology{2, 2}, coll::Algorithm::kAgRing, 512,
                           timing));
}

TEST_F(ChaosTest, FaultPlansSurviveJsonRoundTripsThroughTheOnlineStage) {
  // Plans are artifacts too: a scenario written to disk, enveloped, and
  // reloaded drives the exact same simulation.
  for (const auto& [name, plan] : fault_scenarios()) {
    SCOPED_TRACE(name);
    const std::string file = (dir_ / "plan.json").string();
    write_artifact(file, plan.to_json(), "fault-plan");
    const sim::FaultPlan back = sim::FaultPlan::from_json(
        artifact_payload(Json::parse(read_file(file)), "fault-plan"));

    sim::SimOptions a;
    a.payload = sim::PayloadMode::kTimingOnly;
    a.faults = plan;
    sim::SimOptions b = a;
    b.faults = back;
    const auto run = [](const sim::SimOptions& opts) {
      return coll::run_collective(sim::cluster_by_name("Frontera"),
                                  sim::Topology{4, 2},
                                  coll::Algorithm::kAgBruck, 4096, opts)
          .seconds;
    };
    EXPECT_EQ(run(a), run(b));
  }
}

}  // namespace
}  // namespace pml
