// `pml doctor --repair` mechanics: legacy envelope upgrades in place
// (atomic rewrite, checksum recomputed), corrupt files quarantined to a
// .quarantine/ sibling directory with collision-proof names, and healthy
// or merely version-skewed files left untouched.
#include "common/artifact.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pml {
namespace {

namespace fs = std::filesystem;

class DoctorRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pml_doctor_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(DoctorRepairTest, LegacyKindMapping) {
  EXPECT_EQ(legacy_kind_for_format("pml-mpi-model-v2"), "model");
  EXPECT_EQ(legacy_kind_for_format("pml-mpi-model-v1"), "model");
  EXPECT_EQ(legacy_kind_for_format("pml-mpi-tuning-table-v2"),
            "tuning-table");
  EXPECT_EQ(legacy_kind_for_format("pml-fault-plan-v1"), "fault-plan");
  EXPECT_EQ(legacy_kind_for_format("pml-dataset-v2"), "dataset");
  EXPECT_EQ(legacy_kind_for_format("pml-from-the-future-v9"), "");
  // The retired v1 table and dataset schemas no longer load, so there is
  // nothing to upgrade them into.
  EXPECT_EQ(legacy_kind_for_format("pml-mpi-tuning-table-v1"), "");
  EXPECT_EQ(legacy_kind_for_format("pml-dataset-v1"), "");
}

TEST_F(DoctorRepairTest, RepairActionNames) {
  EXPECT_STREQ(to_string(RepairAction::kNone), "none");
  EXPECT_STREQ(to_string(RepairAction::kUpgraded), "upgraded");
  EXPECT_STREQ(to_string(RepairAction::kQuarantined), "quarantined");
  EXPECT_STREQ(to_string(RepairAction::kFailed), "failed");
}

TEST_F(DoctorRepairTest, UpgradesLegacyDocumentInPlace) {
  Json legacy = Json::object();
  legacy["format"] = std::string("pml-mpi-tuning-table-v2");
  legacy["collectives"] = Json::object();
  const std::string file = path("table.json");
  write_file_atomic(file, legacy.dump());
  ASSERT_EQ(inspect_artifact(file).status, ArtifactStatus::kLegacy);

  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.info.status, ArtifactStatus::kLegacy);
  EXPECT_EQ(result.action, RepairAction::kUpgraded);

  const ArtifactInfo after = inspect_artifact(file);
  EXPECT_EQ(after.status, ArtifactStatus::kOk);
  EXPECT_EQ(after.kind, "tuning-table");
  // The payload survives the rewrap byte-for-byte.
  const Json doc = Json::parse(read_file(file));
  ASSERT_TRUE(is_artifact_envelope(doc));
  const Json payload = artifact_payload(doc, "tuning-table");
  EXPECT_EQ(payload.dump(), legacy.dump());
}

TEST_F(DoctorRepairTest, UnknownLegacyFormatIsLeftUntouched) {
  const std::string file = path("future.json");
  write_file_atomic(file, R"({"format":"pml-from-the-future-v9"})");
  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.action, RepairAction::kFailed);
  EXPECT_NE(result.detail.find("no envelope kind mapping"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(file));  // never quarantine what we can't identify
}

TEST_F(DoctorRepairTest, QuarantinesCorruptFile) {
  const std::string file = path("broken.json");
  write_file_atomic(file, "{ not json");
  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.info.status, ArtifactStatus::kCorrupt);
  EXPECT_EQ(result.action, RepairAction::kQuarantined);
  EXPECT_FALSE(fs::exists(file));
  EXPECT_TRUE(fs::exists(dir_ / ".quarantine" / "broken.json"));
}

TEST_F(DoctorRepairTest, QuarantineChecksumMismatch) {
  // A well-formed envelope whose payload was tampered with: checksum no
  // longer matches, so the content cannot be trusted and is quarantined.
  Json payload = Json::object();
  payload["value"] = 1;
  const std::string file = path("tampered.json");
  write_artifact(file, payload, "model");
  Json doc = Json::parse(read_file(file));
  doc["payload"]["value"] = 2;  // flips bytes without updating the checksum
  write_file_atomic(file, doc.dump());

  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.action, RepairAction::kQuarantined);
  EXPECT_TRUE(fs::exists(dir_ / ".quarantine" / "tampered.json"));
}

TEST_F(DoctorRepairTest, QuarantineNamesNeverCollide) {
  for (int round = 0; round < 3; ++round) {
    const std::string file = path("repeat.json");
    write_file_atomic(file, "corrupt #" + std::to_string(round));
    const RepairResult result = repair_artifact(file);
    ASSERT_EQ(result.action, RepairAction::kQuarantined) << round;
  }
  EXPECT_TRUE(fs::exists(dir_ / ".quarantine" / "repeat.json"));
  EXPECT_TRUE(fs::exists(dir_ / ".quarantine" / "repeat.json.1"));
  EXPECT_TRUE(fs::exists(dir_ / ".quarantine" / "repeat.json.2"));
  EXPECT_EQ(read_file((dir_ / ".quarantine" / "repeat.json").string()),
            "corrupt #0");
  EXPECT_EQ(read_file((dir_ / ".quarantine" / "repeat.json.2").string()),
            "corrupt #2");
}

TEST_F(DoctorRepairTest, HealthyEnvelopeUntouched) {
  Json payload = Json::object();
  payload["value"] = 42;
  const std::string file = path("ok.json");
  write_artifact(file, payload, "model");
  const std::string before = read_file(file);

  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.action, RepairAction::kNone);
  EXPECT_EQ(read_file(file), before);
}

TEST_F(DoctorRepairTest, PrettyPrintedEnvelopeFromEarlierReleasesUntouched) {
  // Earlier releases wrote envelopes with dump(2); the layout changed to
  // compact, but a valid old file is not damage and must not be rewritten.
  Json payload = Json::object();
  payload["value"] = 42;
  Json envelope = Json::object();
  envelope["format"] = std::string(kArtifactFormat);
  envelope["kind"] = std::string("model");
  envelope["schema"] = 1;
  envelope["checksum"] = payload_checksum(payload);
  envelope["payload"] = payload;
  const std::string file = path("pretty.json");
  write_file(file, envelope.dump(2) + "\n");
  const std::string before = read_file(file);

  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.info.status, ArtifactStatus::kOk);
  EXPECT_EQ(result.action, RepairAction::kNone);
  EXPECT_EQ(read_file(file), before);
}

TEST_F(DoctorRepairTest, StaleSchemaUntouched) {
  Json payload = Json::object();
  payload["value"] = 7;
  const std::string file = path("stale.json");
  write_artifact(file, payload, "model", 2);
  const std::string before = read_file(file);

  const RepairResult result = repair_artifact(file);
  EXPECT_EQ(result.info.status, ArtifactStatus::kStaleSchema);
  EXPECT_EQ(result.action, RepairAction::kNone);
  EXPECT_EQ(read_file(file), before);
}

TEST_F(DoctorRepairTest, MissingFileReportsFailed) {
  const RepairResult result = repair_artifact(path("absent.json"));
  EXPECT_EQ(result.info.status, ArtifactStatus::kUnreadable);
  EXPECT_EQ(result.action, RepairAction::kFailed);
}

}  // namespace
}  // namespace pml
