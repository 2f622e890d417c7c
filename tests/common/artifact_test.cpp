// pml-artifact-v1 envelopes: checksum math, atomic write round-trips,
// legacy passthrough, mismatch detection, doctor verdicts, and the
// bounded-exponential-backoff retry helper.
#include "common/artifact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/framework.hpp"
#include "sim/hardware.hpp"

namespace pml {
namespace {

class ArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_artifact_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Json sample_payload() {
  Json payload = Json::object();
  payload["format"] = "pml-sample-v1";
  payload["value"] = 42;
  return payload;
}

TEST(Fnv1a64, KnownVectors) {
  // Reference values of the FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Xxh64, KnownVectors) {
  // Seed-0 digests as printed by `xxhsum -H1`.
  EXPECT_EQ(xxh64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxh64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(xxh64("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
  // Three stripes, then a 21-byte tail: two 8-byte, one 4- and one 1-byte step.
  std::string thrice;
  for (int i = 0; i < 3; ++i) thrice += "Nobody inspects the spammish repetition";
  EXPECT_EQ(xxh64(thrice), 0x03672e8d89443a6fULL);
}

/// Streams `bytes` through Xxh64 in chunks whose sizes cycle through
/// `splits`, so partial stripes are carried across update() calls.
std::uint64_t streamed(std::string_view bytes,
                       const std::vector<std::size_t>& splits) {
  Xxh64 state;
  for (std::size_t i = 0; !bytes.empty(); ++i) {
    const std::size_t n = std::min(bytes.size(), splits[i % splits.size()]);
    state.update(bytes.substr(0, n));
    bytes.remove_prefix(n);
  }
  return state.digest();
}

std::string patterned(std::size_t size) {
  std::string bytes(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  return bytes;
}

TEST(Xxh64, StreamingInAnySplitEqualsOneShot) {
  const std::vector<std::vector<std::size_t>> splittings = {
      {1}, {3, 5}, {7, 31, 1}, {32}, {33, 2}, {64, 17}, {4096}};
  for (std::size_t len = 0; len <= 100; ++len) {
    const std::string bytes = patterned(len);
    const std::uint64_t whole = xxh64(bytes);
    for (const auto& splits : splittings) {
      EXPECT_EQ(streamed(bytes, splits), whole) << "len " << len;
    }
  }
  const std::string big = patterned(100 * 1000);
  const std::uint64_t whole = xxh64(big);
  for (const auto& splits : splittings) {
    EXPECT_EQ(streamed(big, splits), whole);
  }
  // An empty update anywhere is a no-op, and digest() does not consume.
  Xxh64 state;
  state.update(std::string_view(big).substr(0, 50));
  state.update("");
  EXPECT_EQ(state.digest(), state.digest());
  state.update(std::string_view(big).substr(50));
  EXPECT_EQ(state.digest(), whole);
}

TEST(Fnv1a64, ChecksumSurvivesParseDumpRoundTrip) {
  const Json payload = sample_payload();
  const std::string checksum = payload_checksum(payload);
  const Json reparsed = Json::parse(payload.dump(2));
  EXPECT_EQ(payload_checksum(reparsed), checksum);
}

/// The envelope exactly as write_artifact lays it out, as a Json value.
Json envelope_of(const Json& payload, std::string_view kind) {
  Json envelope = Json::object();
  envelope["format"] = std::string(kArtifactFormat);
  envelope["kind"] = std::string(kind);
  envelope["schema"] = 1;
  envelope["checksum"] = payload_checksum(payload);
  envelope["payload"] = payload;
  return envelope;
}

TEST_F(ArtifactTest, WritesCompactSingleLineEnvelope) {
  const std::string file = path("compact.json");
  write_artifact(file, sample_payload(), "sample");
  const std::string bytes = read_file(file);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.find('\n'), bytes.size() - 1);  // one line plus "\n"
  EXPECT_EQ(bytes, envelope_of(sample_payload(), "sample").dump() + "\n");
  EXPECT_EQ(Json::parse(bytes).at("checksum").as_string(),
            payload_checksum(sample_payload()));
}

TEST_F(ArtifactTest, PrettyPrintedEnvelopeFromEarlierReleasesStillVerifies) {
  const std::string file = path("pretty.json");
  write_file(file, envelope_of(sample_payload(), "sample").dump(2) + "\n");
  EXPECT_EQ(inspect_artifact(file).status, ArtifactStatus::kOk);
  EXPECT_EQ(artifact_payload(Json::parse(read_file(file)), "sample"),
            sample_payload());
}

TEST_F(ArtifactTest, WriteAndLoadRoundTrip) {
  const std::string file = path("sample.json");
  write_artifact(file, sample_payload(), "sample");

  const Json doc = Json::parse(read_file(file));
  EXPECT_TRUE(is_artifact_envelope(doc));
  const Json back = artifact_payload(doc, "sample");
  EXPECT_EQ(back, sample_payload());
  // The atomic write must not leave any temp file behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().filename().string().rfind("sample.json.tmp", 0), 0u)
        << "leftover temp file " << entry.path();
  }
}

TEST_F(ArtifactTest, AtomicWriteReplacesExistingFile) {
  const std::string file = path("sample.json");
  write_file(file, "old contents");
  write_artifact(file, sample_payload(), "sample");
  const Json doc = Json::parse(read_file(file));
  EXPECT_EQ(artifact_payload(doc, "sample"), sample_payload());
}

/// A trained model bundle whose forests have 16 trees each, the smallest
/// tree array the checksum dump writes on the pool.
core::PmlFramework trained_bundle(int threads) {
  core::TrainOptions options;
  options.forest.n_trees = 16;
  options.threads = threads;
  const std::vector<sim::ClusterSpec> clusters = {
      sim::cluster_by_name("RI"), sim::cluster_by_name("Rome")};
  return core::PmlFramework::train(clusters, options);
}

TEST_F(ArtifactTest, TrainedBundleWritesLoadsAndRewritesByteIdentical) {
  std::string first;
  for (const int threads : {1, 0}) {
    const std::string file = path("model.json");
    write_artifact(file, trained_bundle(threads).to_json(), "model");
    const std::string bytes = read_file(file);
    if (first.empty()) first = bytes;
    EXPECT_EQ(bytes, first) << "threads " << threads;

    const std::string rewritten = path("rewritten.json");
    write_artifact(rewritten, core::PmlFramework::load_file(file).to_json(),
                   "model");
    EXPECT_EQ(read_file(rewritten), bytes) << "threads " << threads;
  }
}

TEST_F(ArtifactTest, TrainedBundleChecksumIsFnvOfTheSerialDump) {
  const Json payload = trained_bundle(0).to_json();
  for (const auto& [name, part] : payload.at("collectives").as_object()) {
    EXPECT_GE(part.at("forest").at("trees").as_array().size(), 16u) << name;
  }
  char expected[32];
  std::snprintf(expected, sizeof expected, "fnv1a64:%016llx",
                static_cast<unsigned long long>(fnv1a64(payload.dump())));
  EXPECT_EQ(payload_checksum(payload), expected);
}

TEST_F(ArtifactTest, PrettyPrintedTrainedBundleStillLoads) {
  const std::string compact = path("model.json");
  write_artifact(compact, trained_bundle(0).to_json(), "model");
  const std::string pretty = path("pretty.json");
  write_file(pretty, Json::parse(read_file(compact)).dump(2) + "\n");
  EXPECT_EQ(inspect_artifact(pretty).status, ArtifactStatus::kOk);

  const std::string rewritten = path("rewritten.json");
  write_artifact(rewritten, core::PmlFramework::load_file(pretty).to_json(),
                 "model");
  EXPECT_EQ(read_file(rewritten), read_file(compact));
}

TEST(ArtifactPayload, LegacyDocumentPassesThroughByDefault) {
  const Json legacy = sample_payload();  // no envelope
  EXPECT_EQ(artifact_payload(legacy, "sample"), legacy);
  EXPECT_THROW(artifact_payload(legacy, "sample", 1, /*allow_legacy=*/false),
               JsonError);
}

TEST_F(ArtifactTest, MismatchesThrow) {
  const std::string file = path("sample.json");
  write_artifact(file, sample_payload(), "sample");
  Json doc = Json::parse(read_file(file));

  EXPECT_THROW(artifact_payload(doc, "other-kind"), JsonError);
  EXPECT_THROW(artifact_payload(doc, "sample", 2), JsonError);

  doc["payload"]["value"] = 43;  // content changed, checksum now stale
  EXPECT_THROW(artifact_payload(doc, "sample"), JsonError);
}

TEST_F(ArtifactTest, InspectClassifiesEveryVerdict) {
  const std::string ok = path("ok.json");
  write_artifact(ok, sample_payload(), "sample");
  EXPECT_EQ(inspect_artifact(ok).status, ArtifactStatus::kOk);
  EXPECT_EQ(inspect_artifact(ok).kind, "sample");

  const std::string legacy = path("legacy.json");
  write_file(legacy, sample_payload().dump(2));
  EXPECT_EQ(inspect_artifact(legacy).status, ArtifactStatus::kLegacy);
  EXPECT_EQ(inspect_artifact(legacy).kind, "pml-sample-v1");

  const std::string stale = path("stale.json");
  write_artifact(stale, sample_payload(), "sample", /*schema_version=*/2);
  EXPECT_EQ(inspect_artifact(stale).status, ArtifactStatus::kStaleSchema);
  EXPECT_EQ(inspect_artifact(stale).schema, 2);

  const std::string truncated = path("truncated.json");
  const std::string full = read_file(ok);
  write_file(truncated, full.substr(0, full.size() / 2));
  EXPECT_EQ(inspect_artifact(truncated).status, ArtifactStatus::kCorrupt);

  const std::string flipped = path("flipped.json");
  std::string bytes = read_file(ok);
  const std::size_t key_at = bytes.find("\"value\"");
  ASSERT_NE(key_at, std::string::npos);
  const std::size_t value_at = bytes.find("42", key_at);
  ASSERT_NE(value_at, std::string::npos);
  bytes[value_at + 1] = '9';  // payload changed under the checksum
  write_file(flipped, bytes);
  EXPECT_EQ(inspect_artifact(flipped).status, ArtifactStatus::kCorrupt);

  const std::string foreign = path("foreign.json");
  write_file(foreign, "{\"hello\": \"world\"}");
  EXPECT_EQ(inspect_artifact(foreign).status, ArtifactStatus::kCorrupt);

  EXPECT_EQ(inspect_artifact(path("missing.json")).status,
            ArtifactStatus::kUnreadable);
}

TEST(ArtifactStatusName, StableStrings) {
  EXPECT_STREQ(to_string(ArtifactStatus::kOk), "ok");
  EXPECT_STREQ(to_string(ArtifactStatus::kLegacy), "legacy");
  EXPECT_STREQ(to_string(ArtifactStatus::kStaleSchema), "stale-schema");
  EXPECT_STREQ(to_string(ArtifactStatus::kCorrupt), "corrupt");
  EXPECT_STREQ(to_string(ArtifactStatus::kUnreadable), "unreadable");
}

TEST(WithRetry, TransientFailureRecoversWithBackoff) {
  std::vector<double> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_seconds = 0.001;
  policy.backoff_multiplier = 8.0;
  policy.sleep = [&](double seconds) { sleeps.push_back(seconds); };

  int calls = 0;
  const int result = with_retry(policy, [&] {
    if (++calls < 3) throw IoError("transient");
    return 7;
  });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 3);
  // Two retries: backoff doubles by the multiplier each time.
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.001);
  EXPECT_DOUBLE_EQ(sleeps[1], 0.008);
}

TEST(WithRetry, ExhaustionRethrowsTheLastError) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.sleep = [](double) {};
  int calls = 0;
  EXPECT_THROW(with_retry(policy, [&]() -> int {
                 ++calls;
                 throw IoError("still broken");
               }),
               IoError);
  EXPECT_EQ(calls, 2);
}

TEST(WithRetry, NonIoErrorsPropagateImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleep = [](double) { FAIL() << "must not sleep for non-IO errors"; };
  int calls = 0;
  EXPECT_THROW(with_retry(policy, [&]() -> int {
                 ++calls;
                 throw JsonError("corrupt");
               }),
               JsonError);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace pml
